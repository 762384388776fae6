"""Tests for quotient presentations: nonzerodivisor and regular-sequence
checks, socle bases, the Frobenius-closure probe, and the independent
Artinian membership oracle."""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from froblab import ideals, quotients
from froblab.errors import (
    BudgetExceeded,
    ExponentOverflow,
    FroblabError,
    InputAssumptionViolation,
    NotArtinian,
    ZeroElement,
)
from froblab.groebner import GroebnerBasis
from froblab.ideals import Ideal
from froblab.linalg import Echelon, nullspace, rref
from froblab.polyring import LEX, PolyRing, Polynomial
from froblab.quotients import (
    QuotientPresentation,
    artinian_membership_oracle,
    suggest_parameter_sequence,
)
from froblab.reports import CLOSED_UP_TO, NOT_FROBENIUS_CLOSED

import support
from support import bracket_kernel_by_target, closure_sweep_report, colon_regular_sum, random_poly


def _ideal(ring, *texts):
    return Ideal(ring, tuple(ring.parse(t) for t in texts))


def test_echelon_rank_and_containment():
    ech = Echelon(5)
    assert ech.add([1, 2, 0])
    assert ech.add([0, 1, 1])
    assert not ech.add([1, 3, 1])  # dependent on the first two
    assert ech.rank == 2
    assert ech.contains([2, 4, 0])
    assert not ech.contains([0, 0, 1])


def test_nullspace_known_kernel():
    # x + 2y = 0 over F_3 has kernel spanned by (1, 1)
    basis = nullspace([[1, 2]], 2, 3)
    assert basis == [[1, 1]]
    assert nullspace([[1, 0], [0, 1]], 2, 3) == []


def test_presentation_rejects_units_in_defining():
    R = PolyRing(3, ("x", "y"))
    with pytest.raises(FroblabError):
        QuotientPresentation(R, _ideal(R, "x + 1"))
    # the defining ideal must be an Ideal, not a generator list
    with pytest.raises(TypeError):
        QuotientPresentation(R, (R.parse("x*y"),))


def test_normal_form_and_dimension():
    R = PolyRing(3, ("x", "y"))
    Q = QuotientPresentation(R, _ideal(R, "x*y"))
    assert Q.normal_form(R.parse("x*y + x")) == R.parse("x")
    assert Q.dimension == 1
    assert Q.is_zero_in_quotient(R.parse("x*y"))
    assert QuotientPresentation(R, Ideal(R, ())).dimension == 2


def test_nzd_detects_zerodivisors():
    R = PolyRing(3, ("x", "y"))
    Q = QuotientPresentation(R, _ideal(R, "x*y"))
    assert not Q.is_nzd(R.parse("x"))  # x*y = 0 in the quotient
    assert Q.is_nzd(R.parse("x + y"))
    with pytest.raises(ZeroElement):
        Q.is_nzd(R.parse("x*y"))


def test_regular_sequences():
    R = PolyRing(3, ("x", "y"))
    free = QuotientPresentation(R, Ideal(R, ()))
    assert free.is_regular_sequence([R.parse("x"), R.parse("y")])
    assert not free.is_regular_sequence([R.parse("x"), R.parse("x")])
    # a third element makes the accumulated ideal improper
    assert not free.is_regular_sequence([R.parse("x"), R.parse("y"), R.parse("x + y + 1")])
    hyper = QuotientPresentation(R, _ideal(R, "x*y"))
    assert hyper.is_regular_sequence([R.parse("x + y")])
    assert not hyper.is_regular_sequence([R.parse("x")])
    assert free.is_regular_sequence([])


def test_units_keep_their_regular_sequence_answers():
    """A unit is a nonzerodivisor, but it makes the quotient improper.  On
    the Hilbert route both sides vanish: the unit ideal has numerator 0 and
    1 - t^0 = 0."""
    R = PolyRing(5, ("x", "y", "z"))
    Q = QuotientPresentation(R, _ideal(R, "x*y"))
    assert Q.is_nzd(R.one())
    assert Q.is_nzd(R.constant(3))
    assert not Q.is_regular_sequence([R.one()])
    assert not Q.is_regular_sequence([R.parse("z"), R.one()])


def test_regular_sum_builds_a_colon_only_off_homogeneous_inputs(monkeypatch):
    """The cusp y^2 - x^3 is not homogeneous, so its parameter x takes the
    colon route; x + y on (x*y) does not.  Once an element is not
    homogeneous, every later step takes the colon route too."""
    colons = [0]
    colon = Ideal.colon

    def counted(self, other):
        colons[0] += 1
        return colon(self, other)

    monkeypatch.setattr(Ideal, "colon", counted)
    R = PolyRing(5, ("x", "y"))
    assert QuotientPresentation(R, _ideal(R, "y^2 - x^3"))._regular_sum([R.parse("x")]) is not None
    assert colons[0] == 1

    colons[0] = 0
    assert QuotientPresentation(R, _ideal(R, "x*y")).is_nzd(R.parse("x + y"))
    assert colons[0] == 0

    S = PolyRing(5, ("x", "y", "z"))
    free = QuotientPresentation(S, Ideal(S, ()))
    assert free.is_regular_sequence([S.parse("x"), S.parse("y + x^2"), S.parse("z")])
    assert colons[0] == 2


@st.composite
def homogeneous_sequences(draw):
    """A homogeneous defining ideal in three variables over F_p, at most
    one l*K for a linear form l, so that zerodivisors occur, and at most one
    other form, and one or two forms of degree 0, 1 or 2, with l among them
    when drawn.  Few defining generators and few units leave room for
    walks that reach a proper sum."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ring = PolyRing(p, ("x", "y", "z"))
    coefficient = st.integers(1, p - 1)

    def form(degree):
        monomials = [m for m in itertools.product(range(degree + 1), repeat=3) if sum(m) == degree]
        g = ring.zero()
        for m in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True)):
            g = g + ring.monomial(m, draw(coefficient))
        return g

    line = form(1)
    defining = [line * form(draw(st.integers(1, 2))) for _ in range(draw(st.integers(0, 1)))]
    defining += [form(draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 1)))]
    # a unit ends the walk, so draw few: last, as the first choice is drawn most
    degree = st.sampled_from((1, 2, 1, 2, 0))
    elements = [form(draw(degree)) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        elements.insert(draw(st.integers(0, len(elements))), line)
    return QuotientPresentation(ring, Ideal(ring, tuple(defining))), elements


@settings(max_examples=80, deadline=None, derandomize=True)
@given(homogeneous_sequences())
def test_regular_sum_matches_the_colon_route_on_homogeneous_inputs(case):
    """On homogeneous inputs _regular_sum decides each step by Hilbert
    numerators, where the reference builds the colon."""
    # Of the 80 walks, 39 stop at a zerodivisor, 14 at an element already
    # in the ideal, 4 reach the unit ideal and 23 a proper sum.
    Q, elements = case
    got = Q._regular_sum(elements)
    expected = colon_regular_sum(Q, elements)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.generators == expected.generators
        assert got.is_unit() == expected.is_unit()


@st.composite
def inhomogeneous_sequences(draw):
    """A defining ideal in three variables over F_p, at most one l*K for a
    polynomial l, so that zerodivisors occur, and at most one other
    polynomial, and one or two polynomials, with l among them when drawn;
    every term has degree at most 2, few elements have a constant term,
    and the defining ideal and the elements are not all homogeneous."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ring = PolyRing(p, ("x", "y", "z"))
    monomials = [m for m in itertools.product(range(3), repeat=3) if sum(m) <= 2]

    def poly(lowest):
        g = ring.zero()
        chosen = [m for m in monomials if sum(m) >= lowest]
        for m in draw(st.lists(st.sampled_from(chosen), min_size=1, max_size=3, unique=True)):
            g = g + ring.monomial(m, draw(st.integers(1, p - 1)))
        return g

    line = poly(1)
    defining = [line * poly(1) for _ in range(draw(st.integers(0, 1)))]
    defining += [poly(1) for _ in range(draw(st.integers(0, 1)))]
    elements = [poly(draw(st.sampled_from((0, 1, 1, 1, 1)))) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        elements.insert(draw(st.integers(0, len(elements))), line)
    assume(not all(g.is_homogeneous() for g in defining + elements))
    return QuotientPresentation(ring, Ideal(ring, tuple(defining))), elements


@settings(max_examples=80, deadline=None, derandomize=True)
@given(inhomogeneous_sequences())
def test_regular_sum_matches_the_colon_route_on_inhomogeneous_inputs(case):
    """Off homogeneous inputs _regular_sum decides each step by whether the
    colon adds a cofactor, where the reference tests every generator of the
    colon for membership."""
    # Of the 80 walks, 72 build a colon; 28 stop at a zerodivisor, 10 at
    # an element already in the ideal, 5 reach the unit ideal and 37 a
    # proper sum.
    Q, elements = case
    got = Q._regular_sum(elements)
    expected = colon_regular_sum(Q, elements)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.generators == expected.generators
        assert got.is_unit() == expected.is_unit()


def test_socle_of_fat_point():
    R = PolyRing(3, ("x",))
    Q = QuotientPresentation(R, Ideal(R, ()))
    soc = Q.socle(_ideal(R, "x^3"))
    assert soc.dimension == 1
    assert [str(b) for b in soc.basis] == ["x^2"]


def test_socle_of_square_of_maximal_ideal():
    R = PolyRing(3, ("x", "y"))
    Q = QuotientPresentation(R, _ideal(R, "x^2", "x*y", "y^2"))
    soc = Q.socle(Ideal(R, ()))
    assert soc.dimension == 2
    assert [str(b) for b in soc.basis] == ["x", "y"]


def test_socle_representative_up_to_the_ideal():
    """In F_3[x2,x3]/(x2*x3) modulo (x2 - x3) the socle is the class of x2."""
    R = PolyRing(3, ("x2", "x3"))
    Q = QuotientPresentation(R, _ideal(R, "x2*x3"))
    soc = Q.socle(_ideal(R, "x2 - x3"))
    assert soc.dimension == 1
    full = Q.defining + soc.parameter
    assert full.contains(soc.basis[0] - R.parse("x2"))


def test_socle_on_a_lex_ring():
    """The standard monomials and the normal forms both come from the grevlex
    basis: in lex, F_5[x, y]/(x - y^2, y^3) has socle y^2, whose grevlex
    normal form is x."""
    R = PolyRing(5, ("x", "y"), LEX)
    Q = QuotientPresentation(R, _ideal(R, "x - y^2"))
    soc = Q.socle(_ideal(R, "y^3"))
    assert soc.dimension == 1
    assert [str(b) for b in soc.basis] == ["x"]
    assert (Q.defining + soc.parameter).contains(soc.basis[0] - R.parse("y^2"))


def test_socle_matches_colon_computation():
    """The kernel construction agrees with ((J + defining) : m) in dimension
    and membership."""
    cases = [
        (PolyRing(3, ("x", "y")), ("x*y",), ("x - y",)),
        (PolyRing(5, ("x", "y")), (), ("x^2", "y^3")),
        (PolyRing(3, ("x", "y", "z")), ("z^2 - x*y",), ("x", "y")),
    ]
    for ring, defining, parameter in cases:
        Q = QuotientPresentation(ring, _ideal(ring, *defining))
        J = _ideal(ring, *parameter)
        soc = Q.socle(J)
        full = Q.defining + J
        colon = full.colon(Q.maximal_ideal)
        for b in soc.basis:
            assert colon.contains(b)
            assert not full.contains(b)
        # dimension agreement: span of the colon generators modulo full
        ech = Echelon(ring.p)
        mons = full.standard_monomials()
        where = {m: i for i, m in enumerate(mons)}
        count = 0
        for g in colon.generators:
            nf = full.normal_form(g)
            vec = [0] * len(mons)
            for m, c in nf.terms():
                vec[where[m]] = c
            if ech.add(vec):
                count += 1
        assert count == soc.dimension


def test_closure_of_regular_parameters():
    R = PolyRing(3, ("x", "y"))
    Q = QuotientPresentation(R, Ideal(R, ()))
    report = Q.frobenius_closure_test(_ideal(R, "x", "y"), e_max=2)
    assert report.verdict == CLOSED_UP_TO
    assert report.witness is None
    assert report.socle_dimension == 1
    assert report.to_dict()["partial"] is False
    assert report.regular_sequence_verified


def test_closure_on_the_quadric_cone():
    R = PolyRing(3, ("x", "y", "z"))
    Q = QuotientPresentation(R, _ideal(R, "z^2 - x*y"))
    report = Q.frobenius_closure_test(_ideal(R, "x", "y"), e_max=2)
    assert report.verdict == CLOSED_UP_TO
    assert report.combinations_tested > 0


def test_closure_witness_on_the_cusp():
    """y^2 = x^3 over F_5: y certifies that (x) is not Frobenius closed."""
    R = PolyRing(5, ("x", "y"))
    Q = QuotientPresentation(R, _ideal(R, "y^2 - x^3"))
    report = Q.frobenius_closure_test(_ideal(R, "x"), e_max=2)
    assert report.verdict == NOT_FROBENIUS_CLOSED
    assert report.witness.e == 1
    assert str(report.witness.element) == "y"
    assert report.monotonicity_verified is True
    # direct check of the witness membership: y^5 = x^6*y is in (x^5)
    assert (Q.defining + _ideal(R, "x").bracket_power(1)).contains(R.parse("y").frobenius_pow(1))


def test_closure_reports_monotonicity_where_the_next_depth_overflows():
    """The cusp y^2 = x^3 over F_257 with the parameter x, e_max = 1: the
    witness is y at e = 1.  Depth 2 would form x^66049, past the exponent
    field, but it needs no asking: T_1^[p] lies in T_2, so
    monotonicity_verified is true."""
    R = PolyRing(257, ("x", "y"))
    Q = QuotientPresentation(R, _ideal(R, "y^2 - x^3"))
    report = Q.frobenius_closure_test(_ideal(R, "x"), e_max=1)
    assert (report.verdict, report.witness.element, report.witness.e) == (NOT_FROBENIUS_CLOSED, "y", 1)
    assert report.monotonicity_verified is True


def test_closure_witness_with_socle_dimension_six():
    """3^6 - 1 socle combinations, all decided: x6 is the first of them in
    itertools.product order, and x6^3 is zero in the quotient."""
    R = PolyRing(3, tuple(f"x{i}" for i in range(1, 7)))
    quadrics = [
        R.variable(a) * R.variable(b)
        for a in R.variables
        for b in R.variables
        if a <= b
    ]
    Q = QuotientPresentation(R, Ideal(R, tuple(quadrics)))
    report = Q.frobenius_closure_test(Ideal(R, ()), e_max=1)
    assert report.socle_dimension == 6
    assert report.verdict == NOT_FROBENIUS_CLOSED
    assert report.to_dict()["partial"] is False
    assert report.witness.element == "x6"
    assert report.witness.e == 1
    assert report.witness.combination_index == 0
    assert report.witness.coefficients == (0, 0, 0, 0, 0, 1)
    assert report.combinations_tested == 1
    assert report.monotonicity_verified is True


def test_closure_depth_zero_is_vacuous():
    R = PolyRing(3, ("x",))
    Q = QuotientPresentation(R, Ideal(R, ()))
    report = Q.frobenius_closure_test(_ideal(R, "x^2"), e_max=0)
    assert report.verdict == CLOSED_UP_TO
    assert report.combinations_tested == 0
    with pytest.raises(InputAssumptionViolation):
        Q.frobenius_closure_test(_ideal(R, "x^2"), e_max=-1)


def _outcome(run):
    """A report as its dict, or the name of the froblab error it raised."""
    try:
        return run().to_dict()
    except FroblabError as exc:
        return type(exc).__name__


def _assert_closure_matches_the_sweep(ring, defining, parameter, e_max):
    """frobenius_closure_test against the exhaustive sweep, each on a fresh
    presentation so that no cached basis is shared; returns the report."""
    def fresh():
        return QuotientPresentation(ring, Ideal(ring, tuple(defining)))

    got = _outcome(lambda: fresh().frobenius_closure_test(Ideal(ring, tuple(parameter)), e_max))
    want = _outcome(lambda: closure_sweep_report(fresh(), Ideal(ring, tuple(parameter)), e_max))
    assert got == want, (ring, defining, parameter, e_max)
    return got


def _random_artinian_case(rng):
    """2-3 variables over p in {2, 3, 5, 7}: one to three monomials or short
    polynomials without constant term as relations, and a pure power of
    every variable (sometimes perturbed) as the parameter."""
    p = rng.choice((2, 3, 5, 7))
    n = rng.randrange(2, 4)
    ring = PolyRing(p, ("x", "y", "z")[:n])
    one = ring.monomial((0,) * n)
    defining = []
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.6:
            m = [0] * n
            for _ in range(rng.randrange(2, 4)):
                m[rng.randrange(n)] += 1
            g = ring.monomial(tuple(m))
        else:
            g = random_poly(rng, ring, 2, 3)
            g = g - one * g.constant_coefficient()
        if not g.is_zero:
            defining.append(g)
    parameter = []
    for i in range(n):
        g = ring.monomial(tuple(rng.randrange(1, 4) if j == i else 0 for j in range(n)))
        if rng.random() < 0.2:
            h = random_poly(rng, ring, 2, 2)
            g = g + h - one * h.constant_coefficient()
        parameter.append(g)
    # keeps every Frobenius power small: q = p**e_max is at most 49
    e_max = rng.randrange(0, {2: 4, 3: 4, 5: 3, 7: 3}[p])
    return ring, defining, parameter, e_max


def test_closure_matches_the_sweep_on_random_quotients():
    rng = random.Random(2031)
    outcomes = []
    for _ in range(250):
        outcomes.append(_assert_closure_matches_the_sweep(*_random_artinian_case(rng)))
    reports = [o for o in outcomes if isinstance(o, dict)]
    witnesses = [o["witness"] for o in reports if o["witness"]]
    assert len(reports) > 200
    assert any(o["verdict"] == CLOSED_UP_TO and o["socle_dimension"] > 1 for o in reports)
    assert any(w["combination_index"] > 0 for w in witnesses)
    assert any(w["e"] > 1 for w in witnesses)


def test_closure_matches_the_sweep_on_cusps():
    verdicts = set()
    for p in (2, 3, 5, 7):
        ring = PolyRing(p, ("x", "y"))
        for a in (2, 3, 4):
            for b in (1, 2, 3, 5, 7):
                report = _assert_closure_matches_the_sweep(
                    ring, [ring.parse(f"y^{a} - x^{b}")], [ring.parse("x")], 3 if p < 5 else 2
                )
                verdicts.add(report["verdict"])
    assert verdicts == {CLOSED_UP_TO, NOT_FROBENIUS_CLOSED}


def _coordinate_lines(p, n):
    ring = PolyRing(p, tuple(f"x{i}" for i in range(1, n + 1)))
    v = [ring.variable(a) for a in ring.variables]
    return ring, v, [v[i] * v[j] for i in range(n) for j in range(i + 1, n)]


def test_closure_matches_the_sweep_at_socle_dimension_six():
    """Socle dimension 6 at p = 3 and p = 2, where a sweep must decide 728
    and 63 combinations."""
    for p, e_max in ((3, 1), (2, 2)):
        ring, v, lines = _coordinate_lines(p, 7)
        report = _assert_closure_matches_the_sweep(ring, lines, [sum(v[1:], v[0])], e_max)
        assert report["verdict"] == CLOSED_UP_TO
        assert report["combinations_tested"] == p ** 6 - 1
    # only x1 is nilpotent: the witness is the last basis vector alone
    ring, v, lines = _coordinate_lines(3, 6)
    report = _assert_closure_matches_the_sweep(ring, lines + [v[0] ** 2], [x ** 2 for x in v[1:]], 1)
    assert report["witness"]["coefficients"] == [1, 0, 0, 0, 0, 0]
    assert report["combinations_tested"] == 3 ** 5


def test_closure_witness_takes_the_smallest_index_over_all_depths():
    """x^2 = 0 gives (1, 0) at e = 1, but y^4 in (y^3) gives (0, 1), which
    comes first in the sweep, at e = 2."""
    R = PolyRing(2, ("x", "y"))
    report = _assert_closure_matches_the_sweep(
        R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^3")], [R.parse("y^2")], 2
    )
    assert report["witness"] == {"element": "y", "e": 2, "combination_index": 0, "coefficients": [0, 1]}
    assert report["combinations_tested"] == 1


def _pfaffians(p):
    """The five 4x4 Pfaffians of a 5x5 skew-symmetric matrix of linear
    forms over F_p[x1..x6], its entries above the diagonal drawn with
    random.Random(0)."""
    ring = PolyRing(p, tuple(f"x{i}" for i in range(1, 7)))
    v = [ring.variable(a) for a in ring.variables]
    rng = random.Random(0)
    M = [[ring.zero()] * 5 for _ in range(5)]
    for i, j in itertools.combinations(range(5), 2):
        M[i][j] = sum((x * rng.randrange(p) for x in v), ring.zero())
        M[j][i] = -M[i][j]
    pfaffians = []
    for k in range(5):
        a, b, c, d = (i for i in range(5) if i != k)
        pfaffians.append(M[a][b] * M[c][d] - M[a][c] * M[b][d] + M[a][d] * M[b][c])
    return ring, pfaffians


def test_closure_matches_the_sweep_on_pfaffians():
    """A Gorenstein ring that is not a complete intersection: five quadrics
    of height 3, h-vector (1, 3, 1) modulo the parameters that
    suggest_parameter_sequence draws.  Its socle has degree 2, above the
    degree of the linear parameters, so the depth-1 kernel is decided by
    the complete basis of the target."""
    ring, defining = _pfaffians(3)
    parameter = suggest_parameter_sequence(QuotientPresentation(ring, Ideal(ring, tuple(defining))), 3, seed=0)
    full = Ideal(ring, tuple(defining + parameter))
    degrees = sorted(sum(m) for m in full.standard_monomials())
    assert degrees == [0, 1, 1, 1, 2]
    report = _assert_closure_matches_the_sweep(ring, defining, parameter, 1)
    assert (report["verdict"], report["socle_dimension"]) == (CLOSED_UP_TO, 1)


@st.composite
def spanning_sets(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    r = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=r, max_size=r), min_size=1, max_size=4))
    return p, r, vectors


@given(spanning_sets())
def test_witness_rule_picks_the_first_nonzero_vector_of_the_span(case):
    """The closure test's witness rule: the first nonzero vector of a span
    in itertools.product order is its reduced-echelon row with the largest
    pivot, which rref leaves scaled to pivot 1."""
    p, r, vectors = case
    span = Echelon(p)
    for vec in vectors:
        span.add(vec)
    assume(span.rank)
    first = next(
        vec for vec in itertools.product(range(p), repeat=r) if any(vec) and span.contains(list(vec))
    )
    assert tuple(rref(vectors, p)[0][-1]) == first


@st.composite
def graded_closure_inputs(draw):
    """Graded Artinian closure inputs over p in {2, 3, 5}, moved by a random
    change of coordinates x_i -> x_i + sum_{j > i} c_ij*x_j: n = 3 or 4
    coordinate lines x_i*x_j with the parameter sum w_i*x_i^d, or a cone
    w*x3^k + (further terms of degree k), k = 2 or 3, with the parameters
    x1^d1 and x2^d2.  With d, d1, d2 in {1, 2} the socle's degree is at
    most the parameters' on some draws and above it on others; e_max is 1
    or 2."""
    p = draw(st.sampled_from((2, 3, 5)))
    lines = draw(st.booleans())
    n = draw(st.integers(3, 4)) if lines else 3
    ring = PolyRing(p, tuple(f"x{i}" for i in range(1, n + 1)))
    v = [ring.variable(a) for a in ring.variables]
    coefficient = st.integers(1, p - 1)
    degree = st.integers(1, 2)
    if lines:
        defining = [a * b for a, b in itertools.combinations(v, 2)]
        d = draw(degree)
        parameter = [sum((x ** d * draw(coefficient) for x in v), ring.zero())]
    else:
        k = draw(st.integers(2, 3))
        monomials = [m for m in itertools.product(range(k + 1), repeat=3) if sum(m) == k]
        f = v[2] ** k * draw(coefficient)
        for m in draw(st.lists(st.sampled_from(monomials[1:]), max_size=3, unique=True)):
            f = f + ring.monomial(m, draw(coefficient))
        defining = [f]
        parameter = [v[0] ** draw(degree), v[1] ** draw(degree)]
    images = [x + sum((y * draw(st.integers(0, p - 1)) for y in v[i + 1:]), ring.zero()) for i, x in enumerate(v)]

    def moved(g):
        out = ring.zero()
        for m, c in g.terms():
            out = out + math.prod((y ** e for y, e in zip(images, m)), start=ring.constant(c))
        return out

    return ring, [moved(g) for g in defining], [moved(g) for g in parameter], draw(st.integers(1, 2))


_F2 = PolyRing(2, ("x1", "x2", "x3"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graded_closure_inputs())
@example((_F2, [_F2.parse("x3^2 + x1^2")], [_F2.parse("x1"), _F2.parse("x2")], 2))
def test_bracket_kernels_match_the_target_basis_route(case):
    """Every kernel the closure test asks of _bracket_kernel, at each depth,
    equals the kernel modulo the target's own basis (tests/support.py),
    taken on a fresh target defining + parameter^[q].  In the example over
    F_2, x3^2 + x1^2 is a square, so x3^q is x1^q modulo it: the witness x3
    lies in the target only through the parameter's power."""
    # Of the 100 draws and the example, 56 end CLOSED_UP_TO and 45 with a
    # witness.  The depth kernels take the graded route 67 times (13 with a
    # member) and fall back 52 times (32 with a member).
    ring, defining, parameter, e_max = case
    kernel = quotients._bracket_kernel

    def checked(base, power, columns):
        got = kernel(base, power, columns)
        assert got[0] == bracket_kernel_by_target(Ideal(ring, base.generators + power.generators), columns)
        return got

    Q = QuotientPresentation(ring, Ideal(ring, tuple(defining)))
    with mock.patch.object(quotients, "_bracket_kernel", checked):
        try:
            Q.frobenius_closure_test(Ideal(ring, tuple(parameter)), e_max)
        except NotArtinian:
            pass


@st.composite
def closure_inputs(draw, depths=st.integers(1, 3), moves=st.booleans()):
    """Closure inputs of every shape the socle and the depth loop meet:
    those of ``graded_closure_inputs``; random graded rings in three
    variables, one or two forms of degree 2 or 3 with parameters of degree
    1 and 2 to make up three; or the cusp y^a = x^b with the parameter x.
    A graded draw is moved, when ``moves`` draws True, by
    x_i -> x_i + c*x_j*x_k with i < j <= k, which keeps the quotient
    Artinian but makes the defining ideal and the parameters inhomogeneous.
    e_max is drawn from ``depths``, and is at most 2 for p >= 5, where
    some targets at q = p**3 take seconds to build."""
    shape = draw(st.sampled_from(("lines or cone", "random", "cusp")))
    if shape == "cusp":
        p = draw(st.sampled_from((3, 5, 7)))
        ring = PolyRing(p, ("x", "y"))
        a = draw(st.integers(2, 4))
        b = draw(st.integers(a + 1, a + 3))
        return ring, [ring.parse(f"y^{a} - x^{b}")], [ring.parse("x")], min(draw(depths), 3 if p < 5 else 2)
    if shape == "random":
        p = draw(st.sampled_from((2, 3, 5)))
        ring = PolyRing(p, ("x1", "x2", "x3"))

        def form(degree):
            monomials = [m for m in itertools.product(range(degree + 1), repeat=3) if sum(m) == degree]
            chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
            return sum((ring.monomial(m, draw(st.integers(1, p - 1))) for m in chosen), ring.zero())

        defining = [form(draw(st.integers(2, 3))) for _ in range(draw(st.integers(1, 2)))]
        parameter = [form(draw(st.integers(1, 2))) for _ in range(3 - len(defining))]
    else:
        ring, defining, parameter, _ = draw(graded_closure_inputs())
    if draw(moves):
        v = [ring.variable(a) for a in ring.variables]
        n = len(v)
        images = list(v)
        for i in range(n - 1):
            j = draw(st.integers(i + 1, n - 1))
            images[i] = v[i] + v[j] * v[draw(st.integers(j, n - 1))] * draw(st.integers(1, ring.p - 1))

        def moved(g):
            out = ring.zero()
            for m, c in g.terms():
                out = out + math.prod((y ** e for y, e in zip(images, m)), start=ring.constant(c))
            return out

        defining, parameter = [moved(g) for g in defining], [moved(g) for g in parameter]
    return ring, defining, parameter, min(draw(depths), 3 if ring.p < 5 else 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(closure_inputs())
@example((_F2, [_F2.parse("x1*x2"), _F2.parse("x1*x3"), _F2.parse("x2*x3")], [_F2.parse("x1 + x2 + x3")], 1))
@example((_F2, [_F2.parse("x1*x2 + x3^3"), _F2.parse("x2^2 + x1")], [_F2.parse("x3")], 1))
def test_socle_matches_one_normal_form_per_product(case):
    """The socle skips the normal forms of the products x_v*m that are
    standard monomials, and on homogeneous inputs of those above the top
    standard degree; its basis equals the reference's, which reduces every
    product (tests/support.py), on graded and inhomogeneous inputs alike.
    The second example's defining ideal is inhomogeneous."""
    # Of the 100 draws and the two examples, 85 are Artinian, 33 of them
    # graded and 52 inhomogeneous (moved draws, cusps and the example), with
    # socle dimensions 1 (69 times), 2 (14) and 3 (2); 17 are not Artinian.
    ring, defining, parameter, _ = case
    Q = QuotientPresentation(ring, Ideal(ring, tuple(defining)))
    try:
        got = Q.socle(Ideal(ring, tuple(parameter)))
    except NotArtinian:
        return
    assert got.basis == support.socle_by_normal_forms(Ideal(ring, tuple(defining + parameter)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(closure_inputs(st.integers(1, 2)))
@example((_F2, [_F2.parse("x1*x2 + x3^3"), _F2.parse("x2^2 + x1")], [_F2.parse("x3")], 1))
def test_packed_socles_and_kernels_match_the_tuple_routes(case):
    """The socle built from packed normal forms is the one built from
    exponent tuples (tests/support.py): the same basis polys, in the same
    order, each with its terms in the same order; and every kernel the
    closure test asks of _bracket_kernel, with the normal forms that decided
    it, is the one whose rows and reached degrees come from ``terms()``."""
    # Of the 100 draws and the example, 88 are Artinian, with socle
    # dimensions 1 (72 times), 2 (14) and 3 (2).  The kernels take the
    # graded route 13 times and fall back 83 times, 67 of all 96 with a
    # member.  The reference builds each target a second time, so e_max
    # stays 1 for p >= 5, where one moved draw's depth-2 target takes
    # seconds.
    ring, defining, parameter, e_max = case
    if ring.p >= 5:
        e_max = 1
    kernel = quotients._bracket_kernel

    def checked(base, power, columns):
        got = kernel(base, power, columns)
        assert got == support.bracket_kernel_from_tuples(base, power, columns)
        return got

    Q = QuotientPresentation(ring, Ideal(ring, tuple(defining)))
    try:
        got = Q.socle(Ideal(ring, tuple(parameter)))
    except NotArtinian:
        return
    expected = support.socle_from_tuples(Ideal(ring, tuple(defining + parameter)))
    assert [list(b._terms.items()) for b in got.basis] == [list(b._terms.items()) for b in expected]
    with mock.patch.object(quotients, "_bracket_kernel", checked):
        Q.frobenius_closure_test(Ideal(ring, tuple(parameter)), e_max)


_LINES_N4 = PolyRing(3, ("z1", "z2", "z3", "z4"))
_LINES_N3 = PolyRing(7, ("z1", "z2", "z3"))


def _arrangement(ring, forms, parameter, e_max):
    forms = [ring.parse(f) for f in forms]
    return ring, [a * b for a, b in itertools.combinations(forms, 2)], [ring.parse(parameter)], e_max


@settings(max_examples=200, deadline=None, derandomize=True)
@given(closure_inputs(st.integers(2, 3), st.just(False)))
@example(_arrangement(_LINES_N4, ("2*z1 + 2*z2", "2*z1 + 2*z2 + 2*z3 + z4", "2*z3 + 2*z4", "z2 + 2*z4"),
                      "z1 + 2*z2 + z4", 3))
@example(_arrangement(_LINES_N3, ("6*z2 + z3", "4*z1 + 2*z2 + 3*z3", "z2 + 5*z3"), "5*z1 + 6*z2 + 4*z3", 2))
@example((_F2, [_F2.parse("x3^2 + x1^2")], [_F2.parse("x1"), _F2.parse("x2")], 3))
def test_iterated_depth_columns_match_the_full_frobenius_powers(case):
    """Depth e's columns are the p-th powers of the normal forms that depth
    e - 1 handed back, not the b**(p**e) of the socle basis.  Each must be
    b**(p**e) modulo the depth-e target, and each depth's kernel must equal
    the reference kernel of the b**(p**e) modulo the target's own basis
    (tests/support.py).  The examples are the benchmark's four lines at
    p = 3 with e_max = 3, its first three lines at p = 7, and the F_2 cone
    of the target-route test, which reaches depth 3."""
    # Of the 200 draws and the three examples, 150 are Artinian, 42 of them
    # cusps, and 53 are not.  The test checks 150 depths 1, 81 depths 2
    # and 14 depths 3; 81 tests end CLOSED_UP_TO and 69 with a witness.
    ring, defining, parameter, e_max = case
    Q = QuotientPresentation(ring, Ideal(ring, tuple(defining)))
    P = Ideal(ring, tuple(parameter))
    kernel, calls = quotients._bracket_kernel, []

    def recorded(base, power, columns):
        got = kernel(base, power, columns)
        calls.append((Ideal(ring, base.generators + power.generators), columns, got[0]))
        return got

    with mock.patch.object(quotients, "_bracket_kernel", recorded):
        try:
            Q.frobenius_closure_test(P, e_max)
        except NotArtinian:
            return
    basis = Q.socle(P).basis
    for e, (target, columns, got) in enumerate(calls, 1):
        powers = [b.frobenius_pow(e) for b in basis]
        assert all(target.contains(c - b) for c, b in zip(columns, powers))
        assert got == bracket_kernel_by_target(target, powers)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(closure_inputs(st.integers(2, 3), st.just(False)))
def test_a_witness_is_a_member_one_depth_further(case):
    """monotonicity_verified is true by construction whenever there is a
    witness: for a witness s at a depth e below e_max, s**(p**(e + 1)) lies
    in defining + parameter^[p**(e + 1)], by the kernel of that target's
    own basis (tests/support.py)."""
    # Of the 100 draws, 67 are Artinian, 25 of them cusps, and 33 are not;
    # 27 end CLOSED_UP_TO and 40 with a witness, each at e = 1 and checked
    # at e = 2.
    ring, defining, parameter, e_max = case
    Q = QuotientPresentation(ring, Ideal(ring, tuple(defining)))
    P = Ideal(ring, tuple(parameter))
    try:
        report = Q.frobenius_closure_test(P, e_max)
    except NotArtinian:
        return
    if report.witness is None:
        return
    assert report.monotonicity_verified is True
    e = report.witness.e + 1
    if e > e_max:
        return
    target = Ideal(ring, tuple(defining) + P.bracket_power(e).generators)
    span = Echelon(ring.p)
    for row in bracket_kernel_by_target(target, [b.frobenius_pow(e) for b in Q.socle(P).basis]):
        span.add(row)
    assert span.contains(list(report.witness.coefficients))


def test_closure_raises_the_overflow_of_the_full_power_past_the_exponent_field():
    """The cubic cone x^3 + y^3 + z^3 at p = 199 with parameters (x, y):
    the socle z^2 at depth 2 has degree 2 * 39601 = 79202 > 65535, while
    the parameters' powers x^39601 and y^39601 fit.  Past the exponent
    field the depth forms z^2 ** 39601 from the socle basis, not from the
    depth before, and raises the overflow of that power."""
    R = PolyRing(199, ("x", "y", "z"))
    Q = QuotientPresentation(R, _ideal(R, "x^3 + y^3 + z^3"))
    with pytest.raises(ExponentOverflow, match=r"^an exponent times 39601 exceeds 65535$"):
        Q.frobenius_closure_test(_ideal(R, "x", "y"), e_max=2)


def test_closure_makes_one_normal_form_per_socle_element_and_depth(monkeypatch):
    """Five coordinate lines at p = 3, e_max = 2: socle dimension 4, so
    4 * 2 = 8 normal forms of Frobenius powers (the sweep made 80 * 2), on
    top of 1 for the socle and 1 for the regular-sequence test, the
    membership of the parameter itself.  Of the socle's 25 products x_v*m,
    the 20 of degree 2, above the top standard degree 1, are zero, and 4
    more are standard monomials, so only x_v*1 of the one x_v that is not
    standard takes a normal form (each of the 25 took one before).  The
    socle and the parameter have degree 1, so each depth decides its kernel
    modulo the basis of defining with one more normal form, that of the
    parameter's power, and builds no target: 2 runs and 12 normal forms,
    where the targets' own bases made 4 runs and 34.  Depth 2 raises the
    normal forms of depth 1 to the p-th power, which counts as a
    frobenius_pow each, as b**9 did.  The lines are homogeneous, so the
    test compares Hilbert numerators read off the bases of defining and of
    defining + parameter, and builds no colon.  The sum gets one Groebner
    basis, shared by the regular-sequence test and the socle.  On the cusp
    y^2 = x^3 at p = 5 the regular-sequence test keeps its colon, and the
    witness y at e = 1 ends the search: no later depth is solved, and no
    membership at e = 2 is asked, since a witness at e is one at every
    depth above (the probe of that membership made one normal form, one
    Frobenius power and one Groebner run more).  The
    colon is one tracked run seeded with the basis of defining, which is
    no groebner_basis_of call (the elimination route made one), and it
    adds no cofactor, so no normal form tests its generators.  Its socle
    takes 3 normal forms (was 4): y*1 is the standard monomial y."""
    counts = {"normal_form": 0, "frobenius_pow": 0, "groebner_basis_of": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GroebnerBasis, "normal_form", counted("normal_form", GroebnerBasis.normal_form))
    monkeypatch.setattr(Polynomial, "frobenius_pow", counted("frobenius_pow", Polynomial.frobenius_pow))
    monkeypatch.setattr(ideals, "groebner_basis_of", counted("groebner_basis_of", ideals.groebner_basis_of))
    ring, v, lines = _coordinate_lines(3, 5)
    Q = QuotientPresentation(ring, Ideal(ring, tuple(lines)))
    report = Q.frobenius_closure_test(Ideal(ring, (sum(v[1:], v[0]),)), e_max=2)
    assert (report.verdict, report.socle_dimension, report.combinations_tested) == (CLOSED_UP_TO, 4, 80)
    # frobenius_pow: the 8 socle powers and the parameter's 2 bracket powers;
    # Groebner bases: defining and defining + parameter
    assert counts == {"normal_form": 8 + 2 + 1 + 1, "frobenius_pow": 8 + 2, "groebner_basis_of": 2}

    counts.update(dict.fromkeys(counts, 0))
    R = PolyRing(5, ("x", "y"))
    Q = QuotientPresentation(R, _ideal(R, "y^2 - x^3"))
    report = Q.frobenius_closure_test(_ideal(R, "x"), e_max=3)
    assert report.witness.e == 1
    # e = 2 and e = 3 would add two normal forms, two powers and two bases
    assert counts == {"normal_form": 5, "frobenius_pow": 4, "groebner_basis_of": 3}


def test_closure_reads_no_exponent_tuples(monkeypatch):
    """The input of test_closure_makes_one_normal_form_per_socle_element_and_depth,
    five coordinate lines at p = 3 with e_max = 2, unpacks no monomial into
    an exponent tuple, where it made 19 ``terms()`` calls and 36
    ``leading_term`` calls.  terms() is called 0
    times: the socle matrix and the kernel rows read the packed normal forms
    inside ``GroebnerBasis``, and the reached degrees are the terms' degree
    fields (``term_degrees``).  leading_term is called 0 times: the Hilbert
    numerators and the standard monomials read the basis's packed leads, and
    the socle elements sort by their last nonzero coefficient, as the
    standard monomials ascend."""
    counts = {"terms": 0, "leading_term": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Polynomial, "terms", counted("terms", Polynomial.terms))
    monkeypatch.setattr(Polynomial, "leading_term", counted("leading_term", Polynomial.leading_term))
    ring, v, lines = _coordinate_lines(3, 5)
    Q = QuotientPresentation(ring, Ideal(ring, tuple(lines)))
    report = Q.frobenius_closure_test(Ideal(ring, (sum(v[1:], v[0]),)), e_max=2)
    assert (report.verdict, report.socle_dimension) == (CLOSED_UP_TO, 4)
    assert counts == {"terms": 0, "leading_term": 0}


def test_closure_reaches_depth_three_on_a_five_line_arrangement():
    """Five lines through the origin of F_5^5 in general coordinates (the
    forms of ``bench/gens.line_arrangement`` with rng seed 3), e_max = 3:
    the depth-3 target defining + l^[125] is built from the cached basis of
    the defining ideal.  The closure test takes under a second on a 2-core
    host, where it took about 45 s with every target built from scratch."""
    ring = PolyRing(5, ("z1", "z2", "z3", "z4", "z5"))
    forms = [ring.parse(t) for t in (
        "z1 + 4*z2 + 4*z3 + z4 + 2*z5",
        "4*z1 + 3*z2 + 4*z3 + 4*z5",
        "3*z2 + 2*z3 + 4*z4 + z5",
        "z1 + 3*z2 + 4*z3 + 4*z4 + 3*z5",
        "3*z1 + z2 + z3 + z4 + 4*z5",
    )]
    lines = [a * b for a, b in itertools.combinations(forms, 2)]
    Q = QuotientPresentation(ring, Ideal(ring, tuple(lines)))
    report = Q.frobenius_closure_test(_ideal(ring, "3*z1 + 4*z2 + z3 + 2*z4 + 3*z5"), e_max=3)
    assert (report.verdict, report.socle_dimension, report.combinations_tested) == (CLOSED_UP_TO, 4, 624)


def test_closure_builds_each_depth_target_once(monkeypatch):
    """A witness below e_max on an input whose socle degree exceeds its
    parameters' degree, so each depth builds its target: the cubic cone
    x^3 + y^3 + z^3 at p = 5 with parameters (x, y), where z^2 is the
    witness at e = 1.  The 4 runs are distinct: defining, defining + x for
    the regular-sequence walk, defining + parameter for the socle and the
    depth-1 target.  No membership at e + 1 is asked, since the witness is
    one at every depth above, so the depth-2 target the probe tested (a
    fifth run) is no longer built.  On six coordinate lines with x1^2 and
    the squares of the other variables as parameters, the socle has degree
    1 and the parameters degree 2, so no depth builds a target: the 3 runs
    are defining, defining + x2^2, where the regular-sequence walk stops,
    and defining + parameter for the socle."""
    runs = []
    run = ideals.groebner_basis_of

    def recorded(ring, gens, order, *args, **kwargs):
        runs.append((ring, order, tuple(gens)))
        return run(ring, gens, order, *args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis_of", recorded)
    R = PolyRing(5, ("x", "y", "z"))
    Q = QuotientPresentation(R, _ideal(R, "x^3 + y^3 + z^3"))
    report = Q.frobenius_closure_test(_ideal(R, "x", "y"), e_max=2)
    assert (report.witness.element, report.witness.e, report.monotonicity_verified) == ("z^2", 1, True)
    assert (len(runs), len(set(runs))) == (4, 4)

    runs.clear()
    ring, v, lines = _coordinate_lines(3, 6)
    Q = QuotientPresentation(ring, Ideal(ring, tuple(lines + [v[0] ** 2])))
    report = Q.frobenius_closure_test(Ideal(ring, tuple(x ** 2 for x in v[1:])), e_max=2)
    assert (report.witness.e, report.monotonicity_verified) == (1, True)
    assert (len(runs), len(set(runs))) == (3, 3)


def test_oracle_examples():
    R = PolyRing(3, ("x", "y"))
    A = _ideal(R, "x^3", "y^3")
    assert artinian_membership_oracle(A, R.parse("x^3*y"))
    assert not artinian_membership_oracle(A, R.parse("x^2*y^2"))
    assert artinian_membership_oracle(_ideal(R, "2"), R.parse("x"))
    assert artinian_membership_oracle(A, R.zero())
    with pytest.raises(NotArtinian):
        artinian_membership_oracle(_ideal(R, "x^2"), R.parse("x"))
    with pytest.raises(BudgetExceeded):
        artinian_membership_oracle(_ideal(R, "x^600", "y^600"), R.parse("x"))


def test_oracle_handles_mixed_generators():
    R = PolyRing(5, ("x", "y"))
    A = _ideal(R, "x^2", "y^2", "x*y - x")
    for text in ("x*y - x", "x*y", "x^2*y", "x + y", "y"):
        g = R.parse(text)
        assert artinian_membership_oracle(A, g) == A.contains(g)


def test_oracle_agrees_with_groebner_membership():
    """Random Artinian ideals: the truncation oracle and normal-form
    membership must agree everywhere."""
    rng = random.Random(77)
    for trial in range(25):
        p = rng.choice((2, 3, 5))
        nvars = rng.randrange(1, 3)
        ring = PolyRing(p, ("x", "y", "z")[:nvars])
        gens = [ring.parse(t) for t in ("x^3", "y^3", "z^3")[:nvars]]
        for _ in range(2):
            g = ring.zero()
            for _ in range(2):
                m = tuple(rng.randrange(3) for _ in range(nvars))
                g = g + ring.monomial(m, rng.randrange(1, p))
            if not g.is_zero:
                gens.append(g)
        ideal = Ideal(ring, tuple(gens))
        for _ in range(6):
            probe = ring.zero()
            for _ in range(3):
                m = tuple(rng.randrange(4) for _ in range(nvars))
                probe = probe + ring.monomial(m, rng.randrange(p))
            assert artinian_membership_oracle(ideal, probe) == ideal.contains(probe)


def test_parameter_search_is_deterministic():
    R = PolyRing(3, ("x", "y"))
    Q = QuotientPresentation(R, Ideal(R, ()))
    first = suggest_parameter_sequence(Q, 2, seed=4)
    second = suggest_parameter_sequence(Q, 2, seed=4)
    assert [str(g) for g in first] == [str(g) for g in second]
    assert Q.is_regular_sequence(first)
    assert len(first) == 2


def test_parameter_search_respects_first_inside():
    R = PolyRing(3, ("x", "y"))
    Q = QuotientPresentation(R, Ideal(R, ()))
    I = _ideal(R, "x")
    found = suggest_parameter_sequence(Q, 2, seed=0, first_inside=I)
    assert I.contains(found[0])
    assert Q.is_regular_sequence(found)
