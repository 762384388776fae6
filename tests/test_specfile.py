"""Tests for parsing, validating, and emitting ring-spec files."""

import pytest

from froblab.errors import BadMatrixShape, MissingField, SpecFileError
from froblab.polyring import PolyRing
from froblab.specfile import (
    RingSpec,
    emit_ring_spec,
    load_ring_spec,
    matrix_minors,
    parse_ring_spec,
)

FULL_TEXT = """\
# a determinantal instance
p = 3
vars = x1, x2, x3, x4, x5
matrix_row = x1, x2, x2, x5
matrix_row = x4, x4, x3, x1
canonical_ideal = x1, x4, x5
sop = x4 + x5, x2 - x3
f = 1
e_max = 2
"""


def test_parse_full_spec():
    spec = parse_ring_spec(FULL_TEXT)
    assert spec.p == 3
    assert spec.variables == ("x1", "x2", "x3", "x4", "x5")
    assert spec.relations == ()
    assert spec.matrix == (("x1", "x2", "x2", "x5"), ("x4", "x4", "x3", "x1"))
    assert spec.canonical_ideal == ("x1", "x4", "x5")
    assert spec.sop == ("x4 + x5", "x2 - x3")
    assert spec.f == "1"
    assert spec.e_max == 2


def test_emit_round_trips():
    spec = parse_ring_spec(FULL_TEXT)
    again = parse_ring_spec(emit_ring_spec(spec))
    assert again == spec
    ring = spec.ring()
    assert spec.presentation(ring).defining == again.presentation(again.ring()).defining


def test_relations_spec():
    spec = parse_ring_spec("p = 5\nvars = x, y\nrelations = y^2 - x^3\n")
    ring = spec.ring()
    assert [str(r) for r in spec.relation_polys(ring)] == ["4*x^3 + y^2"]
    assert spec.matrix == ()


def test_matrix_minors_order_and_signs():
    ring = parse_ring_spec("p = 7\nvars = x, y, z, w\n").ring()
    rows = [
        [ring.parse("x"), ring.parse("y")],
        [ring.parse("z"), ring.parse("w")],
    ]
    minors = matrix_minors(rows)
    assert [str(m) for m in minors] == ["6*y*z + x*w"]
    with pytest.raises(BadMatrixShape):
        matrix_minors(rows[:1])
    with pytest.raises(BadMatrixShape):
        matrix_minors(rows + [rows[0]])
    with pytest.raises(BadMatrixShape):
        matrix_minors([rows[0], rows[1][:1]])


def test_single_column_matrix_has_no_minors():
    spec = parse_ring_spec("p = 3\nvars = x, y\nmatrix_row = x\nmatrix_row = y\n")
    ring = spec.ring()
    assert spec.relation_polys(ring) == []
    assert spec.presentation(ring).defining.is_zero


def test_minor_count_for_four_columns():
    spec = parse_ring_spec(FULL_TEXT)
    ring = spec.ring()
    assert len(spec.relation_polys(ring)) == 6


def test_relations_and_matrix_are_exclusive():
    text = "p = 3\nvars = x, y\nrelations = x*y\nmatrix_row = x, y\nmatrix_row = y, x\n"
    with pytest.raises(SpecFileError):
        parse_ring_spec(text)


def test_matrix_needs_two_rows():
    with pytest.raises(BadMatrixShape):
        parse_ring_spec("p = 3\nvars = x, y\nmatrix_row = x, y\n")
    with pytest.raises(BadMatrixShape):
        parse_ring_spec(
            "p = 3\nvars = x, y\n"
            "matrix_row = x, y\nmatrix_row = y, x\nmatrix_row = x, x\n"
        )


def test_matrix_rows_must_align():
    with pytest.raises(BadMatrixShape):
        parse_ring_spec("p = 3\nvars = x, y\nmatrix_row = x, y\nmatrix_row = x\n")


def test_line_numbers_in_errors():
    err = None
    try:
        parse_ring_spec("p = 3\nvars = x, y\nbogus_key = 1\n")
    except SpecFileError as exc:
        err = exc
    assert err is not None and err.line == 3

    try:
        parse_ring_spec("p = 3\np = 5\nvars = x\n")
    except SpecFileError as exc:
        err = exc
    assert err.line == 2

    try:
        parse_ring_spec("p = 3\nvars = x, y\nrelations = x + z\n")
    except SpecFileError as exc:
        err = exc
    assert err.line == 3 and "z" in str(err)


def test_rejects_bad_scalars():
    with pytest.raises(SpecFileError):
        parse_ring_spec("p = 4\nvars = x\n")
    with pytest.raises(SpecFileError):
        parse_ring_spec("p = 0\nvars = x\n")
    with pytest.raises(SpecFileError):
        parse_ring_spec("p = two\nvars = x\n")
    with pytest.raises(SpecFileError):
        parse_ring_spec("p = 3\nvars = x, x\n")
    with pytest.raises(SpecFileError):
        parse_ring_spec("p = 3\nvars = 2x\n")
    with pytest.raises(SpecFileError):
        parse_ring_spec("p = 3\nvars = x\ne_max = -1\n")
    with pytest.raises(SpecFileError):
        parse_ring_spec("p = 3\nvars = x\ncanonical_ideal =\n")
    with pytest.raises(SpecFileError):
        parse_ring_spec("vars = x\n")
    with pytest.raises(SpecFileError):
        parse_ring_spec("p = 3\n")
    with pytest.raises(SpecFileError):
        parse_ring_spec("p = 3\nvars = x\nnot a key value line\n")


def test_comments_and_blank_lines_ignored():
    spec = parse_ring_spec("# heading\n\np = 3  # trailing\nvars = x\n")
    assert spec.p == 3 and spec.variables == ("x",)


def test_optional_fields_raise_when_requested():
    spec = parse_ring_spec("p = 5\nvars = x, y\nrelations = y^2 - x^3\n")
    ring = spec.ring()
    with pytest.raises(MissingField):
        spec.coefficient_ideal(ring)
    with pytest.raises(MissingField):
        spec.sop_polys(ring)
    assert str(spec.twist_poly(ring)) == "1"
    assert spec.e_max is None


def test_load_from_disk(tmp_path):
    path = tmp_path / "inst.ring"
    path.write_text(FULL_TEXT, encoding="utf-8")
    spec = load_ring_spec(path)
    assert spec == parse_ring_spec(FULL_TEXT)


def test_bundled_fixtures_parse():
    import froblab

    base = __import__("pathlib").Path(froblab.__file__).parent / "fixtures"
    names = sorted(f.name for f in base.glob("*.ring"))
    assert names == ["cusp_f5.ring", "determinantal_f3.ring", "regular_f2.ring"]
    for name in names:
        spec = load_ring_spec(base / name)
        spec.presentation(spec.ring())


def test_spec_is_frozen():
    spec = parse_ring_spec("p = 3\nvars = x\n")
    with pytest.raises(Exception):
        spec.p = 5
    assert isinstance(spec, RingSpec)


RELATIONS_TEXT = """\
p = 5
vars = x, y, z
relations = y^2 - x^3, (x + z)^2*y - 3*x, x*y
canonical_ideal = x, y + z
sop = x, y + z^2
f = 2*y^3 - z
"""


def _accessor_results(spec, ring):
    return (
        spec.matrix_polys(ring),
        tuple(spec.relation_polys(ring)),
        spec.coefficient_ideal(ring).generators,
        tuple(spec.sop_polys(ring)),
        spec.twist_poly(ring),
    )


@pytest.mark.parametrize("text", [FULL_TEXT, RELATIONS_TEXT], ids=["matrix", "relations"])
def test_accessors_return_the_validated_polynomials(monkeypatch, text):
    """Handed spec.ring(), every accessor returns the polynomials that
    validation parsed, parsing nothing, and they equal a fresh parse of the
    spec's texts; an equal ring built elsewhere gets its own parses."""
    spec = parse_ring_spec(text)
    ring = spec.ring()
    assert spec.ring() is ring
    other = PolyRing(spec.p, spec.variables)
    assert other == ring and other is not ring

    def parsed(texts):
        return tuple(other.parse(s) for s in texts)

    matrix = tuple(parsed(row) for row in spec.matrix)
    relations = tuple(matrix_minors(matrix)) if matrix else parsed(spec.relations)
    fresh = (matrix, relations, parsed(spec.canonical_ideal), parsed(spec.sop), other.parse(spec.f))
    parses = []
    parse = PolyRing.parse
    monkeypatch.setattr(PolyRing, "parse", lambda self, s: parses.append(s) or parse(self, s))
    kept = _accessor_results(spec, ring)
    assert parses == []
    assert kept == fresh
    elsewhere = _accessor_results(spec, other)
    assert parses != [] and elsewhere == fresh
    assert {g.ring is other for g in elsewhere[-1:] + elsewhere[3]} == {True}
    assert spec.presentation(other).defining == spec.presentation(ring).defining
