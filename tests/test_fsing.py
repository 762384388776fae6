"""Tests for the cover algebra R + I*t, the socle transfer, Fedder's
criterion, the bounded F-injectivity criterion, and the full pipeline."""

import itertools
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import froblab
from froblab import fsing, groebner
from froblab.errors import (
    BudgetExceeded,
    ContextMismatch,
    EvenCharacteristic,
    ExponentOverflow,
    FroblabError,
    InputAssumptionViolation,
    NotNZD,
    NotRegularSequence,
    OddCharacteristic,
    TypeNotOne,
    ZeroElement,
)
from froblab.fsing import (
    CoverContext,
    cover_f_injectivity_criterion,
    even_char_degeneracy_check,
    fedder_f_pure,
    run_cover_pipeline,
    socle_lift,
)
from froblab.ideals import Ideal
from froblab.polyring import GREVLEX, LEX, PolyRing, Polynomial
from froblab.quotients import QuotientPresentation
from froblab.reports import (
    CLOSED_UP_TO,
    DECISIVE_NOT_F_INJECTIVE,
    NO_FAILURE_UP_TO,
    NOT_FROBENIUS_CLOSED,
    P2_DEGENERATE,
)
from froblab.specfile import load_ring_spec, matrix_minors, parse_ring_spec

import support

DETERMINANTAL = Path(froblab.__file__).parent / "fixtures" / "determinantal_f3.ring"


def _ideal(ring, *texts):
    return Ideal(ring, tuple(ring.parse(t) for t in texts))


def _regular_context(p=3, twist_text="1"):
    ring = PolyRing(p, ("x", "y"))
    pres = QuotientPresentation(ring, Ideal(ring, ()))
    return CoverContext(pres, _ideal(ring, "x"), ring.parse(twist_text))


def _random_element(rng, ctx, max_degree=2):
    ring = ctx.ring
    a = ring.zero()
    b = ring.zero()
    for _ in range(2):
        m = tuple(rng.randrange(max_degree + 1) for _ in ring.variables)
        a = a + ring.monomial(m, rng.randrange(ctx.p))
    for g in ctx.coefficient.generators:
        m = tuple(rng.randrange(max_degree + 1) for _ in ring.variables)
        b = b + g * ring.monomial(m, rng.randrange(ctx.p))
    return ctx.element(a, b)


def test_context_validation():
    ring = PolyRing(3, ("x", "y"))
    pres = QuotientPresentation(ring, Ideal(ring, ()))
    with pytest.raises(InputAssumptionViolation):
        CoverContext(pres, _ideal(ring, "x", "x + 1"), ring.one())  # unit ideal
    with pytest.raises(InputAssumptionViolation):
        CoverContext(pres, _ideal(ring, "x + 1"), ring.one())  # unit generator
    hyper = QuotientPresentation(ring, _ideal(ring, "x*y"))
    with pytest.raises(InputAssumptionViolation):
        CoverContext(hyper, _ideal(ring, "x*y"), ring.one())  # zero in the quotient


def test_a_coefficient_generator_is_a_unit_iff_its_constant_term_is_nonzero():
    """CoverContext reads a coefficient generator's own constant term: as
    the defining ideal lies in the maximal ideal, the generator's normal
    form keeps that term, in either order (``support.unit_in_quotient``)."""
    rng = random.Random(5)
    for order in (GREVLEX, LEX):
        ring = PolyRing(5, ("x", "y", "z"), order)
        for _ in range(30):
            defining = [_random_generator(rng, ring, 1, 3) for _ in range(rng.randrange(3))]
            g = support.random_poly(rng, ring)
            g = sum((h * support.random_poly(rng, ring) for h in defining), g)
            Q = QuotientPresentation(ring, Ideal(ring, tuple(defining)))
            assert support.unit_in_quotient(Q, g) == bool(g.constant_coefficient())


def test_element_constrains_the_t_part():
    ctx = _regular_context()
    ring = ctx.ring
    u = ctx.element(ring.parse("y"), ring.parse("x*y"))
    assert str(u) == "(y) + (x*y)*t"
    with pytest.raises(InputAssumptionViolation):
        ctx.element(ring.parse("x"), ring.parse("y"))


def test_cover_ring_axioms_on_random_elements():
    """Commutativity, associativity, distributivity, identities."""
    rng = random.Random(19)
    for twist_text in ("1", "x", "x + y"):
        ctx = _regular_context(3, twist_text)
        for _ in range(30):
            u = _random_element(rng, ctx)
            v = _random_element(rng, ctx)
            w = _random_element(rng, ctx)
            assert ctx.mul(u, v) == ctx.mul(v, u)
            assert ctx.mul(ctx.mul(u, v), w) == ctx.mul(u, ctx.mul(v, w))
            assert ctx.mul(u, ctx.add(v, w)) == ctx.add(ctx.mul(u, v), ctx.mul(u, w))
            assert ctx.mul(u, ctx.one()) == u
            assert ctx.add(u, ctx.neg(u)) == ctx.zero()
            assert ctx.mul(u, ctx.zero()) == ctx.zero()


def test_t_squares_to_the_twist():
    ring = PolyRing(3, ("x", "y"))
    pres = QuotientPresentation(ring, Ideal(ring, ()))
    ctx = CoverContext(pres, _ideal(ring, "x"), ring.parse("x + 1"))
    bt = ctx.element(ring.zero(), ring.parse("x"))
    sq = ctx.mul(bt, bt)
    # (b*t)^2 = b^2 * twist with no t component
    assert sq.ring_part == ring.parse("x^2 * (x + 1)")
    assert sq.t_part.is_zero


def test_square_twist_produces_zero_divisors():
    """With twist = 1, (b + b*t)*(b - b*t) = 0."""
    ctx = _regular_context()
    ring = ctx.ring
    b = ring.parse("x")
    u = ctx.element(b, b)
    v = ctx.element(b, -b)
    assert ctx.mul(u, v) == ctx.zero()


def test_unit_detection():
    ctx = _regular_context()
    ring = ctx.ring
    assert ctx.is_unit(ctx.element(ring.parse("1"), ring.parse("x")))
    assert ctx.is_unit(ctx.element(ring.parse("2"), ring.parse("x")))
    assert not ctx.is_unit(ctx.element(ring.parse("x"), ring.parse("x")))
    assert not ctx.is_unit(ctx.zero())


def test_frobenius_closed_form_matches_iterated_multiplication():
    rng = random.Random(29)
    for p in (3, 5):
        ctx = _regular_context(p, "x + 1")
        for _ in range(10):
            u = _random_element(rng, ctx)
            power = ctx.one()
            for _ in range(p):
                power = ctx.mul(power, u)
            assert ctx.frobenius(u, 1) == power
        v = _random_element(rng, ctx)
        assert ctx.frobenius(v, 0) == v


def test_frobenius_pure_t_part_example():
    # (0 + b*t)^3 = 0 + b^3*twist*t at p = 3
    ctx = _regular_context(3, "x + 1")
    ring = ctx.ring
    u = ctx.element(ring.zero(), ring.parse("x"))
    cube = ctx.frobenius(u, 1)
    assert cube.ring_part.is_zero
    assert cube.t_part == ring.parse("x^3 * (x + 1)")


def test_even_characteristic_refuses_the_closed_form():
    ring = PolyRing(2, ("x", "y"))
    pres = QuotientPresentation(ring, Ideal(ring, ()))
    ctx = CoverContext(pres, _ideal(ring, "x"), ring.one())
    with pytest.raises(EvenCharacteristic):
        ctx.frobenius(ctx.one(), 1)


def test_context_mismatch_rejected():
    a = _regular_context()
    b = _regular_context()
    with pytest.raises(ContextMismatch):
        a.mul(a.one(), b.one())


def test_socle_lift_on_the_regular_ring():
    ctx = _regular_context()
    ring = ctx.ring
    lifted = socle_lift(ctx, ring.parse("x"), [ring.parse("y")])
    assert str(lifted.socle_rep) == "1"
    assert str(lifted.lift) == "x"


def test_socle_lift_postconditions():
    """m*u falls into J*I while u itself stays out."""
    ctx = _regular_context()
    ring = ctx.ring
    lifted = socle_lift(ctx, ring.parse("x"), [ring.parse("y")])
    JI = _ideal(ring, "x", "y").product(_ideal(ring, "x"))
    assert not JI.contains(lifted.lift)
    for v in ring.variables:
        assert JI.contains(ring.variable(v) * lifted.lift)


def test_socle_lift_rejects_bad_inputs():
    ctx = _regular_context()
    ring = ctx.ring
    with pytest.raises(InputAssumptionViolation):
        socle_lift(ctx, ring.parse("y"), [ring.parse("x")])  # first not in I
    with pytest.raises(NotRegularSequence):
        socle_lift(ctx, ring.parse("x"), [ring.parse("x")])  # tail dies in R/I

    hyper_ring = PolyRing(3, ("x", "y"))
    hyper = QuotientPresentation(hyper_ring, _ideal(hyper_ring, "x*y"))
    hctx = CoverContext(hyper, _ideal(hyper_ring, "x"), hyper_ring.one())
    with pytest.raises(NotNZD):
        socle_lift(hctx, hyper_ring.parse("x"), [])
    with pytest.raises(NotRegularSequence):
        socle_lift(ctx, ring.parse("x"), [ring.parse("1")])  # R/(I, 1) is zero
    with pytest.raises(NotRegularSequence):
        socle_lift(ctx, ring.parse("x"), [ring.parse("y"), ring.parse("y")])  # tail too long
    square = QuotientPresentation(ring, _ideal(ring, "x^2"))
    with pytest.raises(ZeroElement):
        socle_lift(CoverContext(square, _ideal(ring, "x"), ring.one()), ring.parse("x^2"), [])


def test_socle_lift_requires_type_one():
    # semigroup ring of <3,4,5>: Cohen-Macaulay of type 2
    ring = PolyRing(3, ("x", "y", "z"))
    pres = QuotientPresentation(
        ring, _ideal(ring, "x*z - y^2", "x^3 - y*z", "x^2*y - z^2")
    )
    ctx = CoverContext(pres, _ideal(ring, "x"), ring.one())
    with pytest.raises(TypeNotOne):
        socle_lift(ctx, ring.parse("x"), [])


@st.composite
def graded_cover_inputs(draw, primes=(3, 5, 7)):
    """(context, first, tail) over F_p, p in ``primes``, in three or four
    variables: either R = S/A with A zero to two random forms of degree 2
    or 3 and I = (first) for a random linear form, or R = S/(a*b - c*d)
    for random linear forms, I = (a, c) and first = a + k*c; the tail is
    dim R - 1 random linear forms.  Inputs that CoverContext rejects are
    not drawn."""
    p = draw(st.sampled_from(primes))
    ring = PolyRing(p, ("x", "y", "z", "w")[: draw(st.integers(3, 4))])
    n = ring.nvars

    def form(degree):
        g = ring.zero()
        for m in itertools.product(range(degree + 1), repeat=n):
            if sum(m) == degree:
                g = g + ring.monomial(m, draw(st.integers(0, p - 1)))
        return g

    if draw(st.booleans()):
        defining = tuple(form(draw(st.sampled_from((2, 3)))) for _ in range(draw(st.integers(0, 2))))
        first = form(1)
        coefficient = (first,)
    else:
        a, b, c, d = (form(1) for _ in range(4))
        defining = (a * b - c * d,)
        first = a + c * draw(st.integers(0, p - 1))
        coefficient = (a, c)
    R = QuotientPresentation(ring, Ideal(ring, defining))
    tail = [form(1) for _ in range(R.dimension - 1)]
    assume(fsing._graded(R.defining, (first, *tail)))
    try:
        return CoverContext(R, Ideal(ring, coefficient), ring.one()), first, tail
    except InputAssumptionViolation:
        assume(False)


def _substituted(g, images):
    """g with the i-th variable replaced by images[i]."""
    out = g.ring.zero()
    for m, c in g.terms():
        out = out + math.prod((x ** e for x, e in zip(images, m)), start=g.ring.constant(c))
    return out


@st.composite
def inhomogeneous_cover_inputs(draw, primes=(3, 5, 7)):
    """A case of ``graded_cover_inputs`` moved by the automorphism that
    sends each variable x_i to x_i plus a random quadratic form in the
    variables after it.  The automorphism fixes the origin, so socle_lift
    accepts the moved case iff it accepts the graded one; cases that stay
    homogeneous are not drawn."""
    context, first, tail = draw(graded_cover_inputs(primes))
    ring = context.ring
    n, p = ring.nvars, ring.p
    images = [ring.variable(v) for v in ring.variables]
    for i in range(n):
        for m in itertools.product(range(3), repeat=n - i - 1):
            if sum(m) == 2:
                images[i] = images[i] + ring.monomial((0,) * (i + 1) + m, draw(st.integers(0, p - 1)))

    def move(polys):
        return [_substituted(g, images) for g in polys]

    R = QuotientPresentation(ring, Ideal(ring, move(context.quotient.defining.generators)))
    first, *tail = move([first, *tail])
    assume(not fsing._graded(R.defining, (first, *tail)))
    coefficient = Ideal(ring, move(context.coefficient.generators))
    return CoverContext(R, coefficient, ring.one()), first, tail


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graded_cover_inputs())
def test_socle_lift_postconditions_hold_on_graded_inputs(case):
    """socle_lift checks m*u inside defining + J*I and u outside it only on
    inhomogeneous inputs: on every graded input it accepts, both hold."""
    context, first, tail = case
    try:
        lifted = socle_lift(context, first, tail)
    except FroblabError as exc:
        event(f"rejected: {exc.code}")
        return
    event(f"accepted, I with {len(context.coefficient.generators)} generators")
    assert support.socle_lift_postconditions(context, [first, *tail], lifted.lift) == (True, True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(inhomogeneous_cover_inputs())
def test_socle_lift_postconditions_hold_on_inhomogeneous_inputs(case):
    """socle_lift checks u outside defining + J*I on inhomogeneous inputs,
    and m*u inside it holds by construction: on every inhomogeneous input
    it accepts, both hold."""
    context, first, tail = case
    try:
        lifted = socle_lift(context, first, tail)
    except FroblabError as exc:
        event(f"rejected: {exc.code}")
        return
    event(f"accepted, I with {len(context.coefficient.generators)} generators")
    assert support.socle_lift_postconditions(context, [first, *tail], lifted.lift) == (True, True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(graded_cover_inputs((2,)), inhomogeneous_cover_inputs((2,))))
def test_degeneracy_memberships_hold_on_every_accepted_input(case):
    """The p = 2 check reports u*I inside defining + J*I, u inside
    defining + J and u^2 inside defining + J^[2] without testing them: on
    every input socle_lift accepts, graded or not, the three memberships
    hold."""
    context, first, tail = case
    try:
        lifted = socle_lift(context, first, tail)
    except FroblabError as exc:
        event(f"rejected: {exc.code}")
        return
    event("accepted, " + ("graded" if fsing._graded(context.quotient.defining, (first, *tail)) else "inhomogeneous"))
    assert support.degeneracy_memberships(context, [first, *tail], lifted.lift) == (True, True, True)
    report = even_char_degeneracy_check(context, [first, *tail])
    assert report.sub_results["lift"] == str(lifted.lift)


def test_criterion_no_failure_on_the_regular_instance():
    ctx = _regular_context()
    ring = ctx.ring
    report = cover_f_injectivity_criterion(ctx, [ring.parse("x"), ring.parse("y")], 3)
    assert report.verdict == NO_FAILURE_UP_TO
    assert report.e_max == 3
    assert report.witness_e is None
    assert report.level == "evidence"
    memberships = report.sub_results["memberships"]
    assert [m["member"] for m in memberships] == [False, False, False]


def test_criterion_zero_twist_is_decisively_degenerate():
    ctx = _regular_context(3, "0")
    ring = ctx.ring
    report = cover_f_injectivity_criterion(ctx, [ring.parse("x"), ring.parse("y")], 2)
    assert report.verdict == DECISIVE_NOT_F_INJECTIVE
    assert report.witness_e == 1
    assert report.level == "decisive"
    assert report.sub_results["monotonicity_verified"] is True


def test_criterion_reports_monotonicity_where_the_next_depth_overflows():
    """On F_257[x, y] with I = (x), the twist 0 and sop (x, y), e_max = 1,
    the witness is at e = 1.  The membership at e = 2 would form y^66049,
    past the exponent field, but it needs no asking: the membership at e
    raised to the p-th power is the one at e + 1, so monotonicity_verified
    is true."""
    ctx = _regular_context(257, "0")
    ring = ctx.ring
    report = cover_f_injectivity_criterion(ctx, [ring.parse("x"), ring.parse("y")], 1)
    assert (report.verdict, report.witness_e) == (DECISIVE_NOT_F_INJECTIVE, 1)
    assert report.sub_results["monotonicity_verified"] is True


def test_criterion_rejects_bad_parameters():
    ctx = _regular_context()
    ring = ctx.ring
    with pytest.raises(InputAssumptionViolation):
        cover_f_injectivity_criterion(ctx, [], 2)
    with pytest.raises(InputAssumptionViolation):
        cover_f_injectivity_criterion(ctx, [ring.parse("x"), ring.parse("y")], -1)
    with pytest.raises(NotRegularSequence):
        cover_f_injectivity_criterion(ctx, [ring.parse("x"), ring.parse("x")], 2)
    p2ring = PolyRing(2, ("x", "y"))
    p2 = CoverContext(
        QuotientPresentation(p2ring, Ideal(p2ring, ())), _ideal(p2ring, "x"), p2ring.one()
    )
    with pytest.raises(EvenCharacteristic):
        cover_f_injectivity_criterion(p2, [p2ring.parse("x"), p2ring.parse("y")], 2)


def _crossing_lines_context(p=3):
    """R = k[x,y]/(xy), two crossing lines, with I = (x): x is a zerodivisor
    on R."""
    ring = PolyRing(p, ("x", "y"))
    pres = QuotientPresentation(ring, _ideal(ring, "x*y"))
    return CoverContext(pres, _ideal(ring, "x"), ring.one())


def test_criterion_raises_the_errors_of_socle_lift():
    """The criterion checks its parameters only through socle_lift, so an
    invalid sop gets socle_lift's error code: which hypothesis failed, not
    a blanket NotRegularSequence.  A tail that dies modulo I still raises
    NotRegularSequence (test_criterion_rejects_bad_parameters)."""
    ctx = _crossing_lines_context()
    ring = ctx.ring
    with pytest.raises(NotNZD):
        cover_f_injectivity_criterion(ctx, [ring.parse("x"), ring.parse("y")], 2)

    nilpotent = QuotientPresentation(ring, _ideal(ring, "x^2"))
    ctx = CoverContext(nilpotent, _ideal(ring, "x"), ring.one())
    with pytest.raises(ZeroElement):
        cover_f_injectivity_criterion(ctx, [ring.parse("x^2"), ring.parse("y")], 2)

    ctx = _regular_context()
    y = ctx.ring.parse("y")
    with pytest.raises(InputAssumptionViolation):
        cover_f_injectivity_criterion(ctx, [y, y], 2)  # y is outside I


def _fixture_spec(p, names, e_max):
    """The determinantal fixture over F_p, its variables listed as
    ``names``, with the given e_max."""
    lines = [
        f"p = {p}" if line.startswith("p = ") else
        "vars = " + ", ".join(names) if line.startswith("vars = ") else
        f"e_max = {e_max}" if line.startswith("e_max = ") else line
        for line in DETERMINANTAL.read_text().splitlines()
    ]
    return parse_ring_spec("\n".join(lines) + "\n")


def _permuted_fixtures():
    """The fixture in the variable orders of the benchmark's criterion jobs
    (drawn from the same fixed seed), at p = 3, 3, 5, 5, 7, 7."""
    fixed = random.Random("reference-criterion-orders")
    specs = []
    for p in (3, 3, 5, 5, 7, 7):
        names = ["x1", "x2", "x3", "x4", "x5"]
        fixed.shuffle(names)
        specs.append(_fixture_spec(p, names, 2))
    return specs


def _spec_case(spec):
    ring = spec.ring()
    ctx = CoverContext(spec.presentation(ring), spec.coefficient_ideal(ring), spec.twist_poly(ring))
    return ctx, spec.sop_polys(ring)


def _cover_case(p, variables, defining, coefficient, twist, sop):
    ring = PolyRing(p, tuple(variables))
    pres = QuotientPresentation(ring, _ideal(ring, *([defining] if defining else [])))
    ctx = CoverContext(pres, _ideal(ring, *coefficient), ring.parse(twist))
    return ctx, [ring.parse(t) for t in sop]


# (p, a, b) for the cusps y^a - x^b with I = (x) and sop = (x)
_CUSPS = [(p, a, b) for p in (3, 5, 7) for a, b in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (3, 7))]

# the three cases of test_pipeline_keeps_the_ambient_presentation_unless_distinct_variables_generate
_CONE_CASES = [(("x + y",), ("x + y", "z")), (("x^2",), ("x^2", "y")), (("x", "x"), ("x", "y"))]

_REFERENCE_CASES = {
    **{f"det-p{spec.p}-{i}": (lambda spec=spec: _spec_case(spec)) for i, spec in enumerate(_permuted_fixtures())},
    **{f"cusp-{a}-{b}-p{p}": (lambda p=p, a=a, b=b: _cover_case(p, "xy", f"y^{a} - x^{b}", ("x",), "1", ("x",)))
       for p, a, b in _CUSPS},
    **{f"plane-twist-{t}": (lambda t=t: _cover_case(5, "xy", "", ("x",), t, ("x", "y")))
       for t in ("0", "1", "x", "y^2", "y^3", "1 + y", "x + x*y", "x + y^3")},
    **{f"cone-{i}": (lambda c=c, s=s: _cover_case(3, "xyz", "z^2 - x*y", c, "1", s))
       for i, (c, s) in enumerate(_CONE_CASES)},
    **{f"cone-twist-{t}": (lambda t=t: _cover_case(3, "xyz", "z^2 - x*y", ("x + y",), t, ("x + y", "z")))
       for t in ("x", "z^2", "1 + x", "x*y + z")},
    **{f"inhomogeneous-twist-{t}": (lambda t=t: _cover_case(3, "xy", "", ("x",), t, ("x", "y^2 + x")))
       for t in ("1", "y^3")},
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_criterion_matches_the_product_membership(monkeypatch, case):
    """The criterion decides each membership u^q * f^((q-1)/2) in
    defining + J^[q]*I as in defining + I + tail^[q] when defining and the
    parameters are graded, and by the product ideal otherwise: its
    memberships, witness and monotonicity probe match the product route
    (tests/support.py) on inputs with both outcomes, and only inhomogeneous
    inputs take the Frobenius power of J.  On the plane, with socle
    generator 1, the twists 1, x, y^2, 1 + y and x + x*y give columns of
    degree below q, decided modulo the basis of defining + I, and y^3 and
    x + y^3 columns above it; on the cone, with socle generator of degree
    1, every twist of positive degree takes the target's own basis, through
    the column's degree when the twist is homogeneous."""
    ctx, sop = _REFERENCE_CASES[case]()
    e_max = 2
    powered = []
    bracket_power = Ideal.bracket_power

    def recorded(self, e):
        powered.append(self.generators)
        return bracket_power(self, e)

    monkeypatch.setattr(Ideal, "bracket_power", recorded)
    report = cover_f_injectivity_criterion(ctx, sop, e_max)
    monkeypatch.undo()
    graded = all(g.is_homogeneous() for g in ctx.quotient.defining.generators + tuple(sop))
    assert (tuple(sop) in powered) == (not graded)

    expected, witness = [], None
    for e in range(1, e_max + 1):
        hit = support.criterion_membership_by_product(ctx, sop, e)
        expected.append({"e": e, "member": hit})
        if hit:
            witness = e
            break
    assert report.sub_results["memberships"] == expected
    assert report.witness_e == witness
    if witness is None:
        assert "monotonicity_verified" not in report.sub_results
    else:
        monotone = support.criterion_membership_by_product(ctx, sop, witness + 1)
        assert report.sub_results["monotonicity_verified"] == monotone


def test_criterion_outcomes_on_the_plane_twists():
    """On F_5[x, y] with I = (x) and sop = (x, y), the membership at e asks
    whether f^((q-1)/2) lies in (x, y^q): true for f = 0, x and y^3, false
    for 1 and y^2."""
    for twist, witness in (("0", 1), ("1", None), ("x", 1), ("y^2", None), ("y^3", 1)):
        ctx, sop = _cover_case(5, "xy", "", ("x",), twist, ("x", "y"))
        assert cover_f_injectivity_criterion(ctx, sop, 2).witness_e == witness


def test_criterion_stays_inside_a_small_pair_budget_on_a_permuted_fixture(monkeypatch):
    """At p = 7 with the variables listed as x3, x4, x5, x1, x2, the product
    ideal defining + J^[q]*I at e = 3 exhausts a budget of 20 000 pairs;
    defining + I + tail^[q] needs far fewer than 2 000 per run."""
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 2_000)
    ctx, sop = _spec_case(_fixture_spec(7, ["x3", "x4", "x5", "x1", "x2"], 3))
    report = cover_f_injectivity_criterion(ctx, sop, 3)
    assert report.verdict == NO_FAILURE_UP_TO
    assert [m["member"] for m in report.sub_results["memberships"]] == [False, False, False]


def test_degeneracy_check_raises_the_errors_of_socle_lift():
    ctx = _crossing_lines_context(2)
    ring = ctx.ring
    with pytest.raises(NotNZD):
        even_char_degeneracy_check(ctx, [ring.parse("x"), ring.parse("y")])


def test_even_char_degeneracy():
    ring = PolyRing(2, ("x", "y"))
    pres = QuotientPresentation(ring, Ideal(ring, ()))
    ctx = CoverContext(pres, _ideal(ring, "x"), ring.one())
    report = even_char_degeneracy_check(ctx, [ring.parse("x"), ring.parse("y")])
    assert report.verdict == P2_DEGENERATE
    assert report.sub_results["lift_multiplies_coefficient_ideal_into_JI"]
    assert report.sub_results["lift_in_parameter_ideal"]
    assert report.sub_results["lift_square_in_bracket_power"]
    odd = _regular_context()
    with pytest.raises(OddCharacteristic):
        even_char_degeneracy_check(odd, [odd.ring.parse("x"), odd.ring.parse("y")])


def test_fedder_on_reference_rings():
    cusp_ring = PolyRing(5, ("x", "y"))
    cusp = QuotientPresentation(cusp_ring, _ideal(cusp_ring, "y^2 - x^3"))
    assert not fedder_f_pure(cusp)

    node_ring = PolyRing(3, ("x2", "x3"))
    node = QuotientPresentation(node_ring, _ideal(node_ring, "x2*x3"))
    assert fedder_f_pure(node)

    cone_ring = PolyRing(3, ("x", "y", "z"))
    cone = QuotientPresentation(cone_ring, _ideal(cone_ring, "z^2 - x*y"))
    assert fedder_f_pure(cone)

    regular = QuotientPresentation(cusp_ring, Ideal(cusp_ring, ()))
    assert fedder_f_pure(regular)


def _random_generator(rng, ring, min_degree=1, max_degree=2, terms=3):
    """A nonzero polynomial without constant term: up to ``terms`` monomials
    of degree min_degree..max_degree."""
    while True:
        g = ring.zero()
        for _ in range(rng.randrange(1, terms + 1)):
            m = [0] * ring.nvars
            for _ in range(rng.randrange(min_degree, max_degree + 1)):
                m[rng.randrange(ring.nvars)] += 1
            g = g + ring.monomial(tuple(m), rng.randrange(1, ring.p))
        if not g.is_zero:
            return g


def _assert_fedder_matches_the_full_colon(A):
    ring = A.ring
    verdict = fedder_f_pure(QuotientPresentation(ring, Ideal(ring, A.generators)))
    assert verdict == support.full_colon_f_pure(Ideal(ring, A.generators)), A
    return verdict


def test_fedder_matches_the_full_colon_on_random_ideals():
    rng = random.Random(41)
    verdicts = set()
    for p in (2, 3, 5, 7):
        ring = PolyRing(p, ("x", "y", "z"))
        for k in (1, 2, 3, 4):
            for _ in range(3):
                A = Ideal(ring, tuple(_random_generator(rng, ring) for _ in range(k)))
                verdicts.add((k > 1, _assert_fedder_matches_the_full_colon(A)))
    assert verdicts == {(False, True), (True, True), (True, False)}


def test_fedder_principal_path_matches_the_full_colon():
    rng = random.Random(43)
    verdicts = set()
    for p in (2, 3, 5, 7):
        ring = PolyRing(p, ("x", "y", "z"))
        for _ in range(6):
            f = _random_generator(rng, ring, min_degree=2, max_degree=3)
            verdicts.add(_assert_fedder_matches_the_full_colon(Ideal(ring, (f, ring.zero()))))
    assert verdicts == {True, False}


def test_fedder_false_off_the_hypersurface_case():
    ring = PolyRing(3, ("x", "y"))
    for texts in (("x^2", "x*y"), ("x^2", "y^2")):
        A = _ideal(ring, *texts)
        assert _assert_fedder_matches_the_full_colon(A) is False


def _edge_ideal(p, n):
    """The products x_i*x_j, i < j, of n variables over F_p: a squarefree
    monomial ideal, so F-pure, of height n - 1."""
    ring = PolyRing(p, tuple(f"x{i}" for i in range(1, n + 1)))
    v = [ring.variable(a) for a in ring.variables]
    return Ideal(ring, tuple(v[i] * v[j] for i in range(n) for j in range(i + 1, n)))


@st.composite
def fedder_ideals(draw):
    """c = 2 or 3 generators of degree at most 2 in three variables, or in
    four below p = 5, then up to two redundant generators g_i*r + g_j with
    r linear.  Either the c generators are random, or the i-th is x_i^2
    plus quadratic terms in the later variables: their leads x_i^2 are
    pairwise coprime, so they are a Groebner basis and a complete
    intersection of height c."""
    p = draw(st.sampled_from((2, 3, 5)))
    # the reference colon of A^[5] in four variables can take seconds
    ring = PolyRing(p, ("x", "y", "z", "w")[: draw(st.integers(3, 3 if p == 5 else 4))])
    n = ring.nvars
    coefficient = st.integers(1, p - 1)

    def poly(factors):
        g = ring.zero()
        for c, variables in draw(st.lists(st.tuples(coefficient, factors), min_size=1, max_size=3)):
            m = [0] * n
            for i in variables:
                m[i] += 1
            g = g + ring.monomial(m, c)
        return g

    c = draw(st.integers(2, 3))
    if draw(st.booleans()):
        gens = [poly(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)) for _ in range(c)]
    else:
        gens = []
        for i in range(c):
            lead = ring.monomial([2 if j == i else 0 for j in range(n)], draw(coefficient))
            if i + 1 < n and draw(st.booleans()):
                lead = lead + poly(st.tuples(st.integers(i, n - 1), st.integers(i + 1, n - 1)))
            gens.append(lead)
    index = st.integers(0, c - 1)
    for _ in range(draw(st.integers(0, 2))):
        gens.append(gens[draw(index)] * poly(st.tuples(st.integers(0, n - 1))) + gens[draw(index)])
    assume(any(not g.is_zero for g in gens))
    return Ideal(ring, tuple(gens))


@settings(max_examples=70, deadline=None, derandomize=True)
@given(fedder_ideals())
@example(_edge_ideal(3, 5))  # C(10, 4) = 210 subsets, beyond the candidate limit
# inhomogeneous at p = 5 with two redundant cubics; an elimination-order
# colon of it takes about 30 s
@example(_ideal(
    PolyRing(5, ("x", "y", "z", "w")), "4*y*z + 4*x + y", "2*x*w", "x*w + 3*x + z",
    "(4*y*z + 4*x + y)*(x*y + 2) + 2*x*w", "(x*w + 3*x + z)*(y*z + w) + 4*y*z + 4*x + y",
))
def test_fedder_matches_the_full_colon_on_generated_ideals(A):
    _assert_fedder_matches_the_full_colon(A)


@st.composite
def graded_complete_intersections(draw):
    """(R = S/A, J) with J = (x, y) a homogeneous system of parameters of R:
    a cone over a plane cubic in x, y, z with z^3 in it, over F_p for p in
    {3, 5, 7, 11}, or two quadrics in x, y, z, w led by z^2 and w^2 whose
    restrictions to x = y = 0 meet only at the origin, for p in {3, 5} (at
    p = 7 one verdict takes up to a second)."""
    nvars = draw(st.sampled_from((3, 4)))
    p = draw(st.sampled_from((3, 5, 7, 11) if nvars == 3 else (3, 5)))
    ring = PolyRing(p, ("x", "y", "z", "w")[:nvars])
    coefficient = st.integers(0, p - 1)

    def form(degree, lead):
        monomials = [m for m in itertools.product(range(degree + 1), repeat=nvars) if sum(m) == degree]
        g = ring.monomial(lead, draw(st.integers(1, p - 1)))
        for m in monomials:
            if m != lead:
                g = g + ring.monomial(m, draw(coefficient))
        return g

    if nvars == 3:
        A = Ideal(ring, (form(3, (0, 0, 3)),))
    else:
        A = Ideal(ring, (form(2, (0, 0, 2, 0)), form(2, (0, 0, 0, 2))))
    J = _ideal(ring, "x", "y")
    assume(QuotientPresentation(ring, A + J).dimension == 0)
    return QuotientPresentation(ring, A), J


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graded_complete_intersections())
def test_fedder_matches_the_closure_test_at_depth_one_on_complete_intersections(case):
    """R is a homogeneous complete intersection, so Cohen-Macaulay and
    Gorenstein, and J is a full homogeneous system of parameters, so
    regular.  F-pure implies F-injective, and on a Gorenstein ring the two
    agree (Fedder 1983, Lemma 3.3).  R is F-injective iff no nonzero socle
    element s of R/J has s^p in J^[p]: the kernel of Frobenius on H^d_m(R)
    meets the socle, which is the image of R/J's, through R/J^[p] ->
    H^d_m(R), which is injective.  So Fedder's verdict is the closure
    test's at e = 1."""
    Q, J = case
    verdict = fedder_f_pure(Q)
    event(f"F-pure: {verdict}")
    assert verdict == (Q.frobenius_closure_test(J, e_max=1).verdict == CLOSED_UP_TO)


# 2 x 3 matrices over F_3[x1..x5], each with one entry repeated, and a
# regular linear system of parameters of their minors' ring
_MINORS_2X3 = (
    (("x5", "x2", "x4"), ("x3", "x1", "x4"), ("2*x3 + x4 + 2*x5", "2*x1 + 2*x2 + 2*x4 + x5", "x1 + 2*x3 + x4 + 2*x5")),
    (("x2", "x1", "x5"), ("x4", "x4", "x3"), ("x1 + x2 + x4 + 2*x5", "x1 + x2 + x3 + x4 + x5", "2*x1 + 2*x3 + x5")),
    (("x1", "x3", "x5"), ("x2", "x3", "x4"), ("2*x1 + x2 + x3 + x4", "2*x2 + x3 + 2*x5", "2*x2 + x3 + x5")),
    (("x3", "x5", "x4"), ("x1", "x3", "x2"), ("2*x1 + 2*x2 + x3 + 2*x4 + x5", "x1 + x2 + 2*x3 + 2*x4 + 2*x5",
                                              "x1 + x3 + 2*x4")),
)


@pytest.mark.parametrize("case", ["fixture", *range(len(_MINORS_2X3))])
def test_fedder_pure_rings_have_frobenius_closed_parameters_beyond_gorenstein(case):
    """F-pure implies that every ideal is Frobenius closed (Hochster &
    Roberts 1976), whatever the type, so a True Fedder verdict means
    CLOSED_UP_TO for a regular system of parameters at e_max = 2, on the
    determinantal fixture with its sop (socle dimension 3) and on the
    minors of 2 x 3 matrices in five variables (socle dimension 2): rings
    that are not Gorenstein, where Fedder's verdict and the e = 1 closure
    verdict need not agree."""
    if case == "fixture":
        spec = load_ring_spec(str(DETERMINANTAL))
        ring = spec.ring()
        Q, sop, socle = spec.presentation(ring), spec.sop_polys(ring), 3
    else:
        top, bottom, sop = _MINORS_2X3[case]
        ring = PolyRing(3, tuple(f"x{i}" for i in range(1, 6)))
        rows = tuple(tuple(ring.variable(v) for v in row) for row in (top, bottom))
        Q = QuotientPresentation(ring, Ideal(ring, tuple(matrix_minors(rows))))
        sop, socle = [ring.parse(t) for t in sop], 2
    assert fedder_f_pure(Q)
    report = Q.frobenius_closure_test(Ideal(ring, tuple(sop)), e_max=2)
    assert (report.verdict, report.socle_dimension, report.regular_sequence_verified) == (CLOSED_UP_TO, socle, True)


def _count_candidates(monkeypatch):
    """Count the c-subsets Fedder draws and its calls of _power_below_p."""
    calls = {"subsets": 0, "power_below_p": 0}
    below = fsing._power_below_p

    def counted_subsets(generators, c):
        for subset in itertools.combinations(generators, c):
            calls["subsets"] += 1
            yield subset

    def counted_power(f, n):
        calls["power_below_p"] += 1
        return below(f, n)

    monkeypatch.setattr(fsing, "itertools", SimpleNamespace(combinations=counted_subsets, islice=itertools.islice))
    monkeypatch.setattr(fsing, "_power_below_p", counted_power)
    return calls


def test_fedder_tries_a_bounded_number_of_candidates(monkeypatch):
    """The edge ideal of five vertices has height 4 and C(10, 4) = 210
    candidates, none a certificate; after the first _CANDIDATE_LIMIT of
    them the colon decides, and the verdict is still True.  Each product of
    four edges has degree 8 > 5, so its cube lies in m^[3] and is never
    formed."""
    A = _edge_ideal(3, 5)
    assert math.comb(len(A.generators), 4) > fsing._CANDIDATE_LIMIT
    calls = _count_candidates(monkeypatch)
    h = fsing._fedder_certificate(A)
    assert h == A.ring.parse("x1^2*x2^2*x3^2*x4^2*x5^2")
    assert calls == {"subsets": fsing._CANDIDATE_LIMIT, "power_below_p": 0}


def test_fedder_skips_candidates_of_degree_above_n_on_the_fixture(monkeypatch):
    """The determinantal fixture has height 3 and six quadric minors in five
    variables: all C(6, 3) = 20 products have degree 6 > 5, so their
    squares lie in m^[3] and none reaches _power_below_p.  Fedder and the
    pipeline keep their verdicts."""
    spec = load_ring_spec(str(DETERMINANTAL))
    ring = spec.ring()
    calls = _count_candidates(monkeypatch)
    assert fedder_f_pure(spec.presentation(ring))
    assert calls == {"subsets": 20, "power_below_p": 0}
    report = run_cover_pipeline(
        spec.presentation(ring), spec.coefficient_ideal(ring), spec.twist_poly(ring),
        spec.sop_polys(ring), spec.e_max,
    )
    assert report.ambient_f_pure and report.quotient_f_pure
    assert report.conclusion_status == "supported-by-evidence"


@pytest.mark.parametrize("run", ["colon", "intersect", "eliminate", "pipeline"])
def test_the_pair_budget_reaches_every_run_on_the_fixture(monkeypatch, run):
    """With the inputs' grevlex bases cached under the default budget, a
    budget of one S-pair stops a colon, an intersection, an elimination and
    the whole pipeline: each Buchberger run, tracked or lex, charges the
    pairs it forms to groebner.DEFAULT_PAIR_BUDGET, whichever loop it
    takes."""
    spec = load_ring_spec(str(DETERMINANTAL))
    ring = spec.ring()
    presentation = spec.presentation(ring)
    defining = presentation.defining
    coefficient = spec.coefficient_ideal(ring)
    total = defining + coefficient
    for ideal in (defining, coefficient, total):
        ideal.groebner_basis(GREVLEX)
    calls = {
        "colon": lambda: defining.colon(coefficient),
        "intersect": lambda: defining.intersect(coefficient),
        "eliminate": lambda: total.eliminate(["x1", "x4", "x5"]),
        "pipeline": lambda: run_cover_pipeline(
            presentation, coefficient, spec.twist_poly(ring), spec.sop_polys(ring), spec.e_max
        ),
    }
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        calls[run]()


@st.composite
def powers(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ring = PolyRing(p, ("x", "y", "z")[: draw(st.integers(1, 3))])
    exponents = st.tuples(*[st.integers(0, p + 1)] * ring.nvars)
    f = ring.zero()
    for m, c in draw(st.lists(st.tuples(exponents, st.integers(1, p - 1)), max_size=5)):
        f = f + ring.monomial(m, c)
    return f, draw(st.integers(0, 2 * p))


@given(powers())
def test_power_below_p_keeps_the_terms_of_the_full_power_below_p(case):
    f, n = case
    p = f.ring.p
    full = f ** n
    expected = {m: c for m, c in full.terms() if all(e < p for e in m)}
    assert dict(groebner._power_below_p(f, n).terms()) == expected


def test_power_below_p_raises_where_an_exponent_does_not_fit():
    """Above p = 2^16 an exponent below p can exceed the 16-bit field; the
    truncated power raises there, as the full one does."""
    ring = PolyRing(65537, ("x", "y"))
    f = ring.parse("x^40000 + y")
    assert groebner._power_below_p(f, 1) == f
    assert groebner._power_below_p(ring.parse("x^3 + y"), 3) == ring.parse("x^3 + y") ** 3
    for power in (lambda: f ** 2, lambda: groebner._power_below_p(f, 2)):
        with pytest.raises(ExponentOverflow):
            power()


def test_fedder_on_a_hypersurface_never_expands_the_full_power(monkeypatch):
    """f^(p-1) has 152-174 terms on the cubic cones at p = 7; the verdict
    needs only its terms below p, which the truncated power keeps."""
    ring = PolyRing(7, ("x", "y", "z"))
    pure = QuotientPresentation(ring, _ideal(ring, "x^3 + y^3 + z^3 + x*y*z"))
    cusp = QuotientPresentation(ring, _ideal(ring, "y^2 - x^3"))

    def refuse(self, n):
        raise AssertionError("the full power was expanded")

    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    assert fedder_f_pure(pure)
    assert not fedder_f_pure(cusp)


def test_fedder_on_determinantal_rings():
    rings = [support.generic_minors(3, 3), support.generic_minors(3, 5)]
    spec = load_ring_spec(str(DETERMINANTAL))
    rings.append(Ideal(spec.ring(), tuple(spec.relation_polys(spec.ring()))))
    for A in rings:
        assert _assert_fedder_matches_the_full_colon(A) is True


def _count_work(monkeypatch):
    """Count Ideal.intersect calls and Groebner runs from here on."""
    counts = {"intersect": 0, "groebner": 0}
    intersect, run = Ideal.intersect, groebner._buchberger

    def counted_intersect(self, other):
        counts["intersect"] += 1
        return intersect(self, other)

    def counted_run(*args, **kwargs):
        counts["groebner"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(Ideal, "intersect", counted_intersect)
    monkeypatch.setattr(groebner, "_buchberger", counted_run)
    return counts


def test_fedder_stops_at_the_first_certificate(monkeypatch):
    """On the generic 2 x 3 matrix at p = 5 (height 2) the first candidate,
    the product of two minors raised to p - 1, is a certificate: the only
    Groebner run is the basis of A, whose Frobenius image serves A^[p], and
    no colon is built.  The colon loop took three intersections and four
    runs to find one; the whole colon takes five intersections."""
    A = support.generic_minors(3, 5)
    counts = _count_work(monkeypatch)
    assert fedder_f_pure(QuotientPresentation(A.ring, A))
    assert counts == {"intersect": 0, "groebner": 1}


def test_fedder_certificate_of_the_unit_ideal_skips_the_candidates():
    """The unit ideal has no height, so no candidate is formed; the colon
    is the whole ring and 1 is its certificate."""
    ring = PolyRing(3, ("x", "y"))
    assert fsing._fedder_certificate(_ideal(ring, "x*y + 1", "x")) == ring.one()


def test_fedder_falls_back_to_the_colon_when_every_candidate_misses(monkeypatch):
    """A 2 x 4 matrix in five variables at p = 3: none of the C(6, 2) = 15
    products of two minors, squared, is a certificate, so the colon is
    built one minor at a time.  A certificate appears after the third
    minor.  Each step is one tracked grevlex run seeded with the basis of
    A^[p], the Frobenius image of A's, and no step intersects: three runs
    plus the basis of A.  (The elimination route took three per-minor
    intersections and two pairwise, six runs in all.)"""
    A = support.candidate_miss()
    counts = _count_work(monkeypatch)
    assert fedder_f_pure(QuotientPresentation(A.ring, A))
    assert counts == {"intersect": 0, "groebner": 4}


def test_fedder_on_a_hypersurface_runs_no_groebner_basis(monkeypatch):
    ring = PolyRing(7, ("x", "y", "z"))
    counts = _count_work(monkeypatch)
    assert fedder_f_pure(QuotientPresentation(ring, _ideal(ring, "x^3 + y^3 + z^3")))
    assert not fedder_f_pure(QuotientPresentation(ring, _ideal(ring, "y^2 - x^3")))
    assert counts == {"intersect": 0, "groebner": 0}


def _count_runs_and_colons(monkeypatch):
    """Record every Groebner run by (ring, order, generators) and count
    colon computations from here on."""
    runs, colons = [], [0]
    run, steps = groebner._buchberger, Ideal.colon_steps

    def recorded_run(ring, gens, order, *args, **kwargs):
        runs.append((ring, order, tuple(gens)))
        return run(ring, gens, order, *args, **kwargs)

    def counted_steps(self, other):
        colons[0] += 1
        return steps(self, other)

    monkeypatch.setattr(groebner, "_buchberger", recorded_run)
    monkeypatch.setattr(Ideal, "colon_steps", counted_steps)
    return runs, colons


def test_cover_hypotheses_are_checked_once_on_the_determinantal_fixture(monkeypatch):
    """socle_lift is the only hypothesis check: the criterion (with its
    context) builds no basis twice and runs no colon.  The fixture is
    homogeneous, so every nonzerodivisor test compares Hilbert numerators
    read off the basis of the next sum, and the sum defining + (first) that
    the test of the first parameter returns is the start of the walk modulo
    first.  The pipeline shares the basis of defining + I with the
    criterion; its one colon is Fedder's fallback on the fixture.  The
    fixture and its parameters are graded, so socle_lift builds no
    defining + J*I for its postconditions.  The socle generator, the tail
    and the twist 1 have degrees 1, 1 and 0, so each membership in
    defining + I + tail^[q] is decided modulo the cached basis of
    defining + I: the criterion makes 5 runs, where the targets' own bases
    made 7, and the pipeline, whose closure probe decides its two depths
    the same way, makes 10 where it made 14.

    The pipeline made 14 runs, all in grevlex, where the elimination
    routes made 22, ten of them in an elimination order.  Fedder's colon on
    the fixture now takes three tracked runs, one per minor until the
    certificate, in place of nine intersections (five per minor and four
    pairwise).  The small presentation is the image of defining under
    x1, x4, x5 -> 0: one grevlex run of that image replaces the elimination,
    and the presentation keeps the reduced basis it is given, so it makes
    no second run: 22 - 9 + 3 - 1 + 1 - 1 - 1."""
    spec = load_ring_spec(str(DETERMINANTAL))
    ring = spec.ring()
    runs, colons = _count_runs_and_colons(monkeypatch)
    ctx = CoverContext(spec.presentation(ring), spec.coefficient_ideal(ring), spec.twist_poly(ring))
    cover_f_injectivity_criterion(ctx, spec.sop_polys(ring), spec.e_max)
    assert (len(runs), len(set(runs)), colons[0]) == (5, 5, 0)

    runs.clear()
    colons[0] = 0
    run_cover_pipeline(
        spec.presentation(ring), spec.coefficient_ideal(ring), spec.twist_poly(ring),
        spec.sop_polys(ring), spec.e_max,
    )
    assert (len(runs), colons[0]) == (10, 1)
    assert [order for _, order, _ in runs if order.kind != "grevlex"] == []


def test_small_presentation_matches_the_elimination_on_permuted_fixtures():
    """The pipeline's small presentation, the reduced grevlex basis of the
    image of defining under x1, x4, x5 -> 0, prints exactly as the reduced
    grevlex basis of the elimination of x1, x4, x5 from defining + I: on
    the fixture with its variables listed in the orders of the benchmark's
    pipeline jobs (drawn from the same fixed seed), and in further orders at
    p = 3, 5 and 7."""
    text = DETERMINANTAL.read_text()
    names = ["x1", "x2", "x3", "x4", "x5"]
    fixed = random.Random("reference-pipeline-orders")
    orders = []
    for _ in range(6):
        fixed.shuffle(names)
        orders.append(list(names))
    for k, order in enumerate(orders):
        for p in (3,) if k < 2 else (3, 5, 7):
            lines = [
                f"p = {p}" if line.startswith("p = ") else
                "vars = " + ", ".join(order) if line.startswith("vars = ") else line
                for line in text.splitlines()
            ]
            spec = parse_ring_spec("\n".join(lines) + "\n")
            ring = spec.ring()
            coefficient = spec.coefficient_ideal(ring)
            report = run_cover_pipeline(
                spec.presentation(ring), coefficient, spec.twist_poly(ring), spec.sop_polys(ring), 1
            )
            dropped = ["x1", "x4", "x5"]
            small = PolyRing(p, tuple(v for v in ring.variables if v not in dropped))
            eliminated = (spec.presentation(ring).defining + coefficient).eliminate(dropped)
            mapped = tuple(g.mapped_to(small) for g in eliminated.generators)
            expected = Ideal(small, mapped).groebner_basis(GREVLEX).polys
            assert report.quotient_route == "eliminated-presentation"
            assert report.quotient_presentation == tuple(str(g) for g in expected)


def test_pipeline_on_the_regular_instance():
    ring = PolyRing(3, ("x", "y"))
    pres = QuotientPresentation(ring, Ideal(ring, ()))
    report = run_cover_pipeline(
        pres, _ideal(ring, "x"), ring.one(), [ring.parse("x"), ring.parse("y")], 2
    )
    assert report.ambient_f_pure and report.quotient_f_pure
    assert report.quotient_route == "eliminated-presentation"
    assert report.quotient_presentation == ()
    assert report.criterion.verdict == NO_FAILURE_UP_TO
    assert report.closure.verdict == CLOSED_UP_TO
    assert report.conclusion_status == "supported-by-evidence"


def test_pipeline_flags_the_cusp_decisively():
    ring = PolyRing(5, ("x", "y"))
    pres = QuotientPresentation(ring, _ideal(ring, "y^2 - x^3"))
    report = run_cover_pipeline(pres, _ideal(ring, "x"), ring.one(), [ring.parse("x")], 2)
    assert not report.ambient_f_pure
    assert not report.quotient_f_pure
    assert report.quotient_presentation == ("y^2",)
    assert report.criterion.verdict == DECISIVE_NOT_F_INJECTIVE
    assert report.criterion.witness_e == 1
    assert report.closure.verdict == NOT_FROBENIUS_CLOSED
    assert report.conclusion_status == "decisive-counterexample"


def test_pipeline_requires_odd_characteristic():
    ring = PolyRing(2, ("x", "y"))
    pres = QuotientPresentation(ring, Ideal(ring, ()))
    with pytest.raises(EvenCharacteristic):
        run_cover_pipeline(pres, _ideal(ring, "x"), ring.one(), [ring.parse("x")], 1)


def test_pipeline_withholds_the_conclusion_when_fedder_fails_without_a_witness():
    """F_3[x,y,z]/(z^2 - x^3 - y^3) and its quotient by x are not F-pure,
    yet with e_max = 0 neither the criterion nor the closure probe has an
    exponent to find a witness at, so no check is decisive and none
    supports the conclusion."""
    ring = PolyRing(3, ("x", "y", "z"))
    pres = QuotientPresentation(ring, _ideal(ring, "z^2 - x^3 - y^3"))
    report = run_cover_pipeline(pres, _ideal(ring, "x"), ring.one(), [ring.parse("x"), ring.parse("y")], 0)
    assert not report.ambient_f_pure and not report.quotient_f_pure
    assert report.criterion.verdict == NO_FAILURE_UP_TO
    assert report.closure.verdict == CLOSED_UP_TO
    assert report.conclusion_status == "hypotheses-not-met"


@pytest.mark.parametrize(
    "coefficient, sop, status",
    [
        (("x + y",), ("x + y", "z"), "supported-by-evidence"),
        (("x^2",), ("x^2", "y"), "decisive-counterexample"),
        (("x", "x"), ("x", "y"), "decisive-counterexample"),
    ],
    ids=["not-a-monomial", "not-linear", "repeated-variable"],
)
def test_pipeline_keeps_the_ambient_presentation_unless_distinct_variables_generate(coefficient, sop, status):
    """On F_3[x,y,z]/(z^2 - x*y), a coefficient ideal generated by a
    binomial, by the square of a variable or by one variable twice is not
    generated by distinct variables, so the closure probe runs modulo
    defining + I in the ambient ring."""
    ring = PolyRing(3, ("x", "y", "z"))
    pres = QuotientPresentation(ring, _ideal(ring, "z^2 - x*y"))
    report = run_cover_pipeline(
        pres, _ideal(ring, *coefficient), ring.one(), [ring.parse(t) for t in sop], 1
    )
    assert report.quotient_route == "ambient-presentation"
    assert report.conclusion_status == status


_PIPELINE_CASES = {
    **{f"cusp-{a}-{b}-p{p}": (p, "xy", f"y^{a} - x^{b}", ("x",), ("x",)) for p, a, b in _CUSPS},
    **{f"cone-{i}": (3, "xyz", "z^2 - x*y", c, s) for i, (c, s) in enumerate(_CONE_CASES)},
}


@pytest.mark.parametrize("case", [*_PIPELINE_CASES, "det-0", "det-2", "det-4"])
def test_pipeline_criterion_and_closure_probe_find_the_same_witness(case):
    """With twist 1 and a socle of dimension 1, the criterion's membership
    at e is the closure probe's question for the tail in R/I: whether z^q
    lies in I + tail^[q] modulo defining.  So both find a witness at the
    same e, or neither does."""
    if case.startswith("det-"):
        spec = _permuted_fixtures()[int(case[-1])]  # at p = 3, 5 and 7
        ring = spec.ring()
        args = (spec.presentation(ring), spec.coefficient_ideal(ring), spec.twist_poly(ring), spec.sop_polys(ring))
    else:
        p, variables, defining, coefficient, sop = _PIPELINE_CASES[case]
        ctx, sop = _cover_case(p, variables, defining, coefficient, "1", sop)
        args = (ctx.quotient, ctx.coefficient, ctx.twist, sop)
    report = run_cover_pipeline(*args, 2)
    closure_e = report.closure.witness.e if report.closure.witness else None
    assert report.criterion.witness_e == closure_e
