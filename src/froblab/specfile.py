"""Line-oriented ring-spec files: parsing, validation, and canonical emission.

A spec file declares a prime, a variable list, and defining relations (either
directly or as the 2 x 2 minors of a two-row matrix), plus optional data for
the cover commands: a coefficient ideal, a system of parameters, a twist
element, and a Frobenius depth bound.  The grammar lives in
docs/specfile-grammar.md and is versioned as ring-spec/1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from froblab.errors import BadMatrixShape, MissingField, ParseError, SpecFileError, UnknownVariable
from froblab.ideals import Ideal
from froblab.polyring import PolyRing, Polynomial, check_modulus
from froblab.quotients import QuotientPresentation

FORMAT_NAME = "ring-spec/1"

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_SCALAR_KEYS = ("p", "vars", "relations", "canonical_ideal", "sop", "f", "e_max")
_ALL_KEYS = _SCALAR_KEYS + ("matrix_row",)


@dataclass(frozen=True)
class RingSpec:
    """Parsed and validated contents of one ring-spec file."""

    p: int
    variables: tuple[str, ...]
    relations: tuple[str, ...] = ()
    matrix: tuple[tuple[str, ...], ...] = ()
    canonical_ideal: tuple[str, ...] | None = None
    sop: tuple[str, ...] | None = None
    f: str | None = None
    e_max: int | None = None
    # (ring, text -> polynomial) from the validation in parse_ring_spec
    _parsed: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def ring(self) -> PolyRing:
        """The ring the file's polynomials were validated in, when
        parse_ring_spec made this spec; the accessors handed it return those
        polynomials and parse nothing."""
        return self._parsed[0] if self._parsed else PolyRing(self.p, self.variables)

    def _poly(self, ring: PolyRing, text: str) -> Polynomial:
        if self._parsed and ring is self._parsed[0]:
            return self._parsed[1][text]
        return ring.parse(text)

    def matrix_polys(self, ring: PolyRing) -> tuple[tuple[Polynomial, ...], ...]:
        return tuple(tuple(self._poly(ring, entry) for entry in row) for row in self.matrix)

    def relation_polys(self, ring: PolyRing) -> list[Polynomial]:
        """Defining relations: the stated ones, or the minors of the matrix."""
        if self.matrix:
            return matrix_minors(self.matrix_polys(ring))
        return [self._poly(ring, s) for s in self.relations]

    def presentation(self, ring: PolyRing) -> QuotientPresentation:
        return QuotientPresentation(ring, Ideal(ring, tuple(self.relation_polys(ring))))

    def coefficient_ideal(self, ring: PolyRing) -> Ideal:
        if self.canonical_ideal is None:
            raise MissingField("the command needs a canonical_ideal entry in the spec file")
        return Ideal(ring, tuple(self._poly(ring, s) for s in self.canonical_ideal))

    def sop_polys(self, ring: PolyRing) -> list[Polynomial]:
        if self.sop is None:
            raise MissingField("the command needs a sop entry in the spec file")
        return [self._poly(ring, s) for s in self.sop]

    def twist_poly(self, ring: PolyRing) -> Polynomial:
        """The twist element; defaults to 1 when the file has no f entry."""
        return self._poly(ring, self.f) if self.f is not None else ring.one()


def matrix_minors(rows: tuple[tuple[Polynomial, ...], ...]) -> list[Polynomial]:
    """All 2 x 2 column-pair minors r0[i]*r1[j] - r0[j]*r1[i] with i < j."""
    if len(rows) != 2:
        raise BadMatrixShape(f"need exactly 2 matrix rows, got {len(rows)}")
    top, bottom = rows
    if len(top) != len(bottom):
        raise BadMatrixShape(f"matrix rows have lengths {len(top)} and {len(bottom)}")
    n = len(top)
    return [top[i] * bottom[j] - top[j] * bottom[i] for i in range(n) for j in range(i + 1, n)]


def _split_list(value: str) -> tuple[str, ...]:
    parts = [part.strip() for part in value.split(",")]
    return tuple(part for part in parts if part)


def parse_ring_spec(text: str) -> RingSpec:
    """Parse spec-file text, validating keys, shapes, and every polynomial."""
    seen: dict[str, tuple[str, int]] = {}
    matrix_rows: list[tuple[tuple[str, ...], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(f"expected key = value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise SpecFileError(f"unknown key {key!r}", lineno)
        if key == "matrix_row":
            row = _split_list(value)
            if not row:
                raise SpecFileError("matrix_row needs at least one entry", lineno)
            matrix_rows.append((row, lineno))
            continue
        if key in seen:
            raise SpecFileError(f"duplicate key {key!r}", lineno)
        seen[key] = (value, lineno)

    got = seen.get("p")
    if got is None:
        raise SpecFileError("missing required key 'p'")
    p_text, p_line = got
    try:
        p = int(p_text)
    except ValueError:
        raise SpecFileError(f"p must be an integer, got {p_text!r}", p_line) from None
    try:
        check_modulus(p)
    except ValueError as exc:
        raise SpecFileError(str(exc), p_line) from None

    got = seen.get("vars")
    if got is None:
        raise SpecFileError("missing required key 'vars'")
    names, vars_line = _split_list(got[0]), got[1]
    if not names:
        raise SpecFileError("vars must list at least one name", vars_line)
    for name in names:
        if not _IDENT.match(name):
            raise SpecFileError(f"bad variable name {name!r}", vars_line)
    if len(set(names)) != len(names):
        raise SpecFileError("vars contains a repeated name", vars_line)

    if matrix_rows and "relations" in seen:
        raise SpecFileError(
            "relations and matrix_row are mutually exclusive", matrix_rows[0][1]
        )
    if matrix_rows and len(matrix_rows) != 2:
        raise BadMatrixShape(f"need exactly 2 matrix rows, got {len(matrix_rows)}")
    if len(matrix_rows) == 2 and len(matrix_rows[0][0]) != len(matrix_rows[1][0]):
        raise BadMatrixShape(
            f"matrix rows have lengths {len(matrix_rows[0][0])} and {len(matrix_rows[1][0])}"
        )

    relations = _split_list(seen["relations"][0]) if "relations" in seen else ()
    canonical = _split_list(seen["canonical_ideal"][0]) if "canonical_ideal" in seen else None
    if canonical is not None and not canonical:
        raise SpecFileError("canonical_ideal must list at least one element", seen["canonical_ideal"][1])
    sop = _split_list(seen["sop"][0]) if "sop" in seen else None
    if sop is not None and not sop:
        raise SpecFileError("sop must list at least one element", seen["sop"][1])
    f_entry = seen.get("f")
    f_text = f_entry[0] if f_entry else None
    if f_entry and not f_text:
        raise SpecFileError("f must be a polynomial", f_entry[1])

    e_max = None
    got = seen.get("e_max")
    if got is not None:
        try:
            e_max = int(got[0])
        except ValueError:
            raise SpecFileError(f"e_max must be an integer, got {got[0]!r}", got[1]) from None
        if e_max < 0:
            raise SpecFileError("e_max must be nonnegative", got[1])

    spec = RingSpec(
        p=p,
        variables=tuple(names),
        relations=relations,
        matrix=tuple(row for row, _ in matrix_rows),
        canonical_ideal=canonical,
        sop=sop,
        f=f_text,
        e_max=e_max,
    )
    _check_polynomials(spec, seen, matrix_rows)
    return spec


def _check_polynomials(spec, seen, matrix_rows) -> None:
    """Parse every polynomial of the file, and keep them on spec with their
    ring."""
    ring = spec.ring()
    parsed = {}

    def check(texts, where):
        for s in texts:
            try:
                parsed[s] = ring.parse(s)
            except (ParseError, UnknownVariable) as exc:
                raise SpecFileError(f"bad polynomial {s!r}: {exc}", where) from None

    for key in ("relations", "canonical_ideal", "sop", "f"):
        entry = seen.get(key)
        if entry is None:
            continue
        value, lineno = entry
        check(_split_list(value) if key != "f" else (value,), lineno)
    for row, lineno in matrix_rows:
        check(row, lineno)
    object.__setattr__(spec, "_parsed", (ring, parsed))


def load_ring_spec(path: str) -> RingSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ring_spec(handle.read())


def emit_ring_spec(spec: RingSpec) -> str:
    """Canonical text form; parsing it back yields an equal RingSpec."""
    lines = [f"# {FORMAT_NAME}", f"p = {spec.p}", "vars = " + ", ".join(spec.variables)]
    for row in spec.matrix:
        lines.append("matrix_row = " + ", ".join(row))
    if spec.relations:
        lines.append("relations = " + ", ".join(spec.relations))
    if spec.canonical_ideal is not None:
        lines.append("canonical_ideal = " + ", ".join(spec.canonical_ideal))
    if spec.sop is not None:
        lines.append("sop = " + ", ".join(spec.sop))
    if spec.f is not None:
        lines.append(f"f = {spec.f}")
    if spec.e_max is not None:
        lines.append(f"e_max = {spec.e_max}")
    return "\n".join(lines) + "\n"
