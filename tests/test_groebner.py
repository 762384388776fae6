"""Tests for the Buchberger engine: reduced bases, normal forms, selection
determinism, the work budget, the packed divisors a basis carries, the
reducer memo, and runs seeded with a summand's basis."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from froblab import groebner
from froblab.errors import BudgetExceeded, RingMismatch
from froblab.fsing import fedder_f_pure
from froblab.groebner import (
    GroebnerBasis,
    Packing,
    _PairQueue,
    _reduce,
    buchberger,
    groebner_basis_of,
    syzygy_images,
)
from froblab.ideals import Ideal
from froblab.polyring import GREVLEX, LEX, PolyRing
from froblab.quotients import QuotientPresentation


def _random_poly(rng, ring, max_degree=3, terms=3):
    g = ring.zero()
    for _ in range(terms):
        m = tuple(rng.randrange(max_degree + 1) for _ in ring.variables)
        g = g + ring.monomial(m, rng.randrange(1, ring.p))
    return g


def test_monomial_generators_are_their_own_basis():
    R = PolyRing(3, ("x", "y"), LEX)
    gb = buchberger([R.parse("x^2"), R.parse("x*y")])
    assert [str(g) for g in gb.polys] == ["x^2", "x*y"]


def test_linear_chain_reduces():
    R = PolyRing(3, ("x", "y", "z"), LEX)
    gb = buchberger([R.parse("x - y"), R.parse("y - z")])
    assert [str(g) for g in gb.polys] == ["x + 2*z", "y + 2*z"]


def test_textbook_grevlex_example():
    # {x^2 - y, x^3 - z}: grevlex basis contains the syzygy-derived relations
    R = PolyRing(7, ("x", "y", "z"))
    gb = buchberger([R.parse("x^2 - y"), R.parse("x^3 - z")])
    assert gb.contains(R.parse("x*y - z"))
    assert gb.contains(R.parse("y^3 - z^2"))
    for g in gb.polys:
        assert g.leading_term(gb.order)[1] == 1


def test_zero_ideal():
    R = PolyRing(3, ("x",))
    gb = groebner_basis_of(R, [])
    assert gb.polys == ()
    assert gb.normal_form(R.parse("x + 1")) == R.parse("x + 1")
    assert not gb.is_unit_ideal()
    with pytest.raises(ValueError):
        buchberger([R.zero()])


def test_unit_ideal():
    R = PolyRing(5, ("x", "y"))
    gb = buchberger([R.parse("x"), R.parse("x + 1")])
    assert [str(g) for g in gb.polys] == ["1"]
    assert gb.is_unit_ideal()


def test_normal_form_properties():
    """Idempotence, linearity, and vanishing on the ideal, on random input."""
    rng = random.Random(3)
    R = PolyRing(5, ("x", "y"))
    gens = [R.parse("x^2 + y"), R.parse("x*y^2 + 1")]
    gb = buchberger(gens)
    for _ in range(50):
        f = _random_poly(rng, R)
        g = _random_poly(rng, R)
        nf = gb.normal_form(f)
        assert gb.normal_form(nf) == nf
        assert gb.normal_form(f + g) == gb.normal_form(nf + gb.normal_form(g))
        # anything assembled from the generators reduces to zero
        assert gb.normal_form(f * gens[0] + g * gens[1]).is_zero


def _assert_certified(gb, gens):
    """Every S-polynomial of ``gb`` and every generator reduce to zero.
    ``s_polynomial`` and ``normal_form`` do not go through pair selection,
    so this checks the pruning criteria from outside."""
    for i in range(len(gb.polys)):
        for j in range(i + 1, len(gb.polys)):
            s = support.s_polynomial(gb.polys[i], gb.polys[j], gb.order)
            assert gb.normal_form(s).is_zero
    for g in gens:
        assert gb.normal_form(g).is_zero


def test_basis_certifies_itself():
    """Every S-polynomial of the returned basis reduces to zero, in both
    orders on random inputs, and in grevlex on tagged inputs shaped like
    those of ``tests/support.elimination_intersect``: w*a for a in A,
    (1 - w)*b for b in B.  Tagged inputs skip lex, where some of these take
    minutes."""
    rng = random.Random(17)
    for order in (GREVLEX, LEX):
        for p in (2, 3, 5):
            R = PolyRing(p, ("x", "y", "z"), order)
            for _ in range(3):
                gens = [g for g in (_random_poly(rng, R, max_degree=2) for _ in range(3)) if not g.is_zero]
                if gens:
                    _assert_certified(buchberger(gens), gens)
            if order == LEX:
                continue
            T = PolyRing(p, ("w", "x", "y", "z"), order)
            w, one = T.variable("w"), T.one()
            for _ in range(2):
                gens = [w * _random_poly(rng, R, max_degree=2).mapped_to(T) for _ in range(2)]
                gens += [(one - w) * _random_poly(rng, R, max_degree=2).mapped_to(T) for _ in range(2)]
                gens = [g for g in gens if not g.is_zero]
                if gens:
                    _assert_certified(buchberger(gens), gens)


def test_reduced_basis_is_canonical():
    """No term of a basis element is divisible by another leading monomial."""
    R = PolyRing(3, ("x", "y", "z"))
    gb = buchberger([R.parse("x^2 + y*z"), R.parse("y^2 + x*z"), R.parse("z^2 + x*y")])
    leads = [g.leading_monomial(gb.order) for g in gb.polys]
    for g in gb.polys:
        for m, _ in g.terms():
            divisors = [
                lm for other, lm in zip(gb.polys, leads)
                if other is not g and all(a >= b for a, b in zip(m, lm))
            ]
            assert not divisors


def test_generator_permutation_independence():
    rng = random.Random(41)
    R = PolyRing(3, ("x", "y", "z"))
    gens = [R.parse("x*y - z"), R.parse("y*z - x"), R.parse("x*z - y")]
    reference = [str(g) for g in buchberger(gens).polys]
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert [str(g) for g in buchberger(shuffled).polys] == reference


def test_determinism_across_runs():
    R = PolyRing(5, ("x", "y", "z"))
    gens = [R.parse("x^2 + y^2 + z^2 - 1"), R.parse("x*y + z"), R.parse("y*z - x")]
    first = [str(g) for g in buchberger(gens).polys]
    for _ in range(3):
        assert [str(g) for g in buchberger(gens).polys] == first


def test_budget_exhaustion_raises(monkeypatch):
    R = PolyRing(7, ("x", "y", "z"))
    gens = [R.parse("x^3 + y^2 + z"), R.parse("y^3 + z^2 + x"), R.parse("z^3 + x^2 + y")]
    with monkeypatch.context() as m:
        m.setattr(groebner, "DEFAULT_PAIR_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            buchberger(gens)
    # the same system finishes under the default budget
    assert buchberger(gens).polys


def test_tracked_runs_keep_the_pair_budget(monkeypatch):
    """A tracked run forms its pairs through the same queue, so the budget
    stops it; under the default budget the same colon (P : g) finishes, with
    images h such that h*g lies in P, some of them outside P."""
    R = PolyRing(7, ("x", "y", "z"))
    seed = buchberger([R.parse("x^3*y + y^2*z"), R.parse("x*y^3 + x*z^2")])
    g = R.parse("x*y + z^2")
    with monkeypatch.context() as m:
        m.setattr(groebner, "DEFAULT_PAIR_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            syzygy_images(seed, [R.one()], g)
    images = syzygy_images(seed, [R.one()], g)
    assert all(seed.contains(h * g) for h in images)
    assert not all(seed.contains(h) for h in images)


def test_mixed_rings_rejected():
    A = PolyRing(3, ("x",))
    B = PolyRing(3, ("y",))
    with pytest.raises(RingMismatch):
        buchberger([A.parse("x"), B.parse("y")])
    with pytest.raises(RingMismatch):
        support.s_polynomial(A.parse("x"), B.parse("y"))


def test_contains_and_leading_monomials():
    R = PolyRing(3, ("x", "y"))
    gb = buchberger([R.parse("x^2 - y")])
    assert gb.contains(R.parse("x^4 - y^2"))
    assert not gb.contains(R.parse("x"))
    assert gb.leading_monomials == ((2, 0),)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_leading_monomials_are_the_unpacked_leads(seed, drop):
    """``leading_monomials`` unpacks the basis's packed leads; they are the
    largest terms of its polys, for the lex run ``Ideal.eliminate`` makes,
    with the dropped variables first, for a grevlex run, and for a basis
    built from polys alone, which packs its own divisors."""
    rng = random.Random(seed)
    ring = PolyRing(5, ("x", "y", "z", "w"), LEX)
    gens = [support.random_poly(rng, ring, 3, 3) for _ in range(3)]
    for order in (LEX, GREVLEX):
        gb = groebner_basis_of(ring, gens, order)
        expected = tuple(support.leads_by_terms(gb))
        assert gb.leading_monomials == expected
        assert GroebnerBasis(ring, order, gb.polys).leading_monomials == expected
    kept = Ideal(ring, tuple(gens)).eliminate(ring.variables[:drop]).generators
    lex = groebner_basis_of(ring, gens, LEX)
    assert list(kept) == [g for g in lex.polys if not any(g.leading_monomial(LEX)[:drop])]


def _queue(*leads_and_sugars):
    """A pair queue over x, y, z in grevlex, fed packed leads in turn."""
    pk = Packing(GREVLEX, 3)
    pairs = _PairQueue(pk)
    for lead, sugar in leads_and_sugars:
        pairs.add(pk.pack(lead), sugar)
    return pairs


def _queued(pairs):
    return sorted((i, j) for _, _, i, j in pairs.heap)


def test_pair_update_criterion_m(monkeypatch):
    # lcm(xy, y^2) = xy^2 properly divides lcm(x^2, y^2) = x^2y^2
    leads = (((2, 0, 0), 2), ((1, 1, 0), 2), ((0, 2, 0), 2))
    pairs = _queue(*leads)
    assert _queued(pairs) == [(0, 1), (1, 2)]
    assert pairs.formed == 3
    # the budget counts formed pairs, pruned ones too, and may be reached
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 3)
    assert _queue(*leads).formed == 3
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        _queue(*leads)


def test_pair_update_criterion_f_and_the_b_k_exceptions():
    # y and xy, then x: lcm(y, x) = lcm(xy, x) = xy, and y, x are coprime,
    # so neither new pair is queued
    pairs = _queue(((0, 1, 0), 1), ((1, 1, 0), 2), ((1, 0, 0), 1))
    # x divides lcm(y, xy) = xy, but that lcm equals lcm(y, x): (0, 1) stays
    assert _queued(pairs) == [(0, 1)]
    # x divides xy, so xy forms no further pairs
    assert pairs.active == [0, 2]
    # equal non-coprime lcms keep one pair: lcm(xy, xyz) = lcm(xz, xyz)
    pairs = _queue(((1, 1, 0), 2), ((1, 0, 1), 2), ((1, 1, 1), 3))
    assert _queued(pairs) == [(0, 1), (0, 2)]


def test_pair_update_criterion_b_k():
    # xy divides lcm(x^2y, xy^2) = x^2y^2 and differs from x^2y and xy^2
    pairs = _queue(((2, 1, 0), 3), ((1, 2, 0), 3), ((1, 1, 0), 2))
    assert _queued(pairs) == [(0, 2), (1, 2)]
    assert pairs.active == [2]


def test_pairs_pop_by_sugar_then_lcm_then_index():
    # (0, 1) has lcm x^2y and (0, 2) has lcm xyz, both of degree 3; lcm(x^2, yz)
    # is properly divided by xyz, so (1, 2) is never queued
    pack = Packing(GREVLEX, 3).pack
    pairs = _queue(((1, 1, 0), 2), ((2, 0, 0), 2), ((0, 1, 1), 2))
    # equal sugar: xyz comes before x^2y in grevlex, against the index order
    assert [pairs.pop() for _ in range(2)] == [(3, pack((1, 1, 1)), 0, 2), (3, pack((2, 1, 0)), 0, 1)]
    # a higher sugar on yz puts its pair last
    pairs = _queue(((1, 1, 0), 2), ((2, 0, 0), 2), ((0, 1, 1), 4))
    assert [pairs.pop()[2:] for _ in range(2)] == [(0, 1), (0, 2)]


STANDARD_SYSTEMS = {"cyclic-5": support.cyclic(5), "katsura-4": support.katsura(4), "katsura-5": support.katsura(5)}


@pytest.mark.parametrize("name, pops", [("cyclic-5", 108), ("katsura-4", 30), ("katsura-5", 68)], ids=STANDARD_SYSTEMS)
def test_standard_systems_pop_a_fixed_number_of_pairs(monkeypatch, name, pops):
    """The pairs the pair loop pops in grevlex at p = 32003, as counted when
    the pair update still unpacked every lead: the update on packed ints
    selects the same pairs.  A plain run of these systems takes the
    signature loop, so the pair loop is called directly.  cyclic-5 pops 108
    (112 while plain runs took their generators unreduced): a generator
    whose lead an earlier one's divides now enters reduced against them,
    which changes the elements, and so the pairs, that the run starts
    from.  The systems are inhomogeneous, so they enter without the echelon
    step and the counts stay."""
    popped = []

    class Counted(_PairQueue):
        def pop(self):
            popped.append(None)
            return super().pop()

    monkeypatch.setattr(groebner, "_PairQueue", Counted)
    names, texts = STANDARD_SYSTEMS[name]
    R = PolyRing(32003, names)
    groebner._pair_loop(R, [R.parse(t) for t in texts], R.order)
    assert len(popped) == pops


@pytest.mark.parametrize(
    "name, zeros, pair_zeros", [("cyclic-5", 5, 75), ("katsura-4", 4, 20), ("katsura-5", 7, 50)], ids=STANDARD_SYSTEMS
)
def test_plain_standard_runs_reduce_few_pairs_to_zero(monkeypatch, name, zeros, pair_zeros):
    """A plain run in grevlex at p = 32003 takes the signature loop, whose
    J-pairs reduce to zero 5, 4 and 7 times, where the pair loop's S-pairs
    do 75, 20 and 50 times; both loops return one basis."""
    zero = {"signature": 0, "pair": 0}
    reduce = groebner._reduce

    def counted(terms, divisors, p, pk, memo, steps=None, signature=None):
        # the final interreduction of either loop also calls _reduce, but
        # no element of these bases is a monomial, so no tail reduces to zero
        remainder = reduce(terms, divisors, p, pk, memo, steps, signature)
        zero["pair" if signature is None else "signature"] += not remainder
        return remainder

    monkeypatch.setattr(groebner, "_reduce", counted)
    names, texts = STANDARD_SYSTEMS[name]
    R = PolyRing(32003, names)
    gens = [R.parse(t) for t in texts]
    assert buchberger(gens) == groebner._pair_loop(R, gens, R.order)
    assert zero == {"signature": zeros, "pair": pair_zeros}


@pytest.mark.parametrize(
    "name, reduced, kept", [("cyclic-5", 4, 20), ("katsura-4", 7, 13), ("katsura-5", 13, 22)], ids=STANDARD_SYSTEMS
)
def test_the_final_interreduction_reduces_only_unsettled_tails(monkeypatch, name, reduced, kept):
    """A plain run in grevlex at p = 32003 takes the signature loop, whose
    reductions leave most tails reduced already: the final interreduction
    sends 4 of cyclic-5's 20 tails, 7 of katsura-4's 13 and 13 of
    katsura-5's 22 to ``_reduce``.  Before it read the run's memo it sent
    every kept element's tail, 20, 13 and 22."""
    calls = []
    reduce, reduced_basis = groebner._reduce, groebner._reduced_basis

    def counted(*args, **kwargs):
        calls.append(None)
        return reduce(*args, **kwargs)

    def interreduced(*args):
        calls.clear()
        monkeypatch.setattr(groebner, "_reduce", counted)
        try:
            return reduced_basis(*args)
        finally:
            monkeypatch.setattr(groebner, "_reduce", reduce)

    monkeypatch.setattr(groebner, "_reduced_basis", interreduced)
    names, texts = STANDARD_SYSTEMS[name]
    R = PolyRing(32003, names)
    gb = buchberger([R.parse(t) for t in texts])
    assert (len(calls), len(gb.polys)) == (reduced, kept)


def _cyclic(n):
    names, texts = support.cyclic(n)
    R = PolyRing(32003, names)
    return R, [R.parse(t) for t in texts]


@st.composite
def plain_systems(draw):
    """At most n generators over F_p[x1..xn], n <= 4, in lex or grevlex:
    random polynomials of degree at most 3, and then one of: nothing, a
    repeated generator, a scalar multiple, a combination of the others, or a
    constant."""
    order = draw(st.sampled_from((LEX, GREVLEX)))
    p = draw(st.sampled_from((2, 3, 5, 7, 32003)))
    nvars = draw(st.integers(1, 4))
    R = PolyRing(p, ("x", "y", "z", "w")[:nvars], order)
    rng = random.Random(draw(st.integers(0, 2**32)))
    count = draw(st.integers(1, nvars))
    gens = [support.random_poly(rng, R, draw(st.integers(1, 3)), draw(st.integers(1, 4))) for _ in range(count)]
    gens = [g for g in gens if not g.is_zero] or [R.variable("x")]
    extra = draw(st.sampled_from(("none", "repeated", "multiple", "combination", "constant")))
    if len(gens) < nvars and extra != "none":
        g = rng.choice(gens)
        if extra == "multiple":
            g = g * rng.randrange(1, p)
        elif extra == "combination":
            g = sum((h * support.random_poly(rng, R, 1, 2) for h in gens), R.zero())
        elif extra == "constant":
            g = R.one() * rng.randrange(1, p)
        if not g.is_zero:
            gens.insert(rng.randrange(len(gens) + 1), g)
    return R, gens


@example(_cyclic(4))
@example(_cyclic(5))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(plain_systems())
def test_the_signature_loop_returns_the_pair_loops_basis(case):
    """Its packed divisors and recorded generators too, so the basis is the
    one a plain run returned before it took the signature loop.  Plain runs
    of binomials and plain lex runs take the pair loop, so here alone the
    signature loop runs on them."""
    R, gens = case
    signature = groebner._signature_loop(R, gens, R.order)
    pair = groebner._pair_loop(R, gens, R.order)
    assert signature.polys == pair.polys
    assert signature.divisors == pair.divisors
    assert signature.generators == pair.generators


def _dense_system(seed, p, nvars, npolys, degree):
    """``npolys`` polynomials over F_p[x1..xn] with a random coefficient on
    every monomial of degree at most ``degree``, their terms listed from
    degree 0 up, so that a generator the pair loop enters as it is has a
    tail that does not descend."""
    rng = random.Random(seed)
    R = PolyRing(p, tuple(f"x{i}" for i in range(1, nvars + 1)))
    monomials = [e for d in range(degree + 1) for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) == d]
    gens = []
    for _ in range(npolys):
        coefficients = [rng.randrange(p) for _ in monomials]
        gens.append(R._poly({R.packing.pack(e): c for e, c in zip(monomials, coefficients) if c}))
    return R, gens


DENSE_SYSTEMS = {
    "3-cubics-p7": _dense_system("dense:0", 7, 3, 3, 3),
    "4-quadrics-p11": _dense_system("dense:1", 11, 4, 4, 2),
    "3-quadrics-p5": _dense_system("dense:2", 5, 4, 3, 2),
}


def _interreductions_match_every_tail(R, gens) -> tuple[int, int]:
    """Run the signature loop and the pair loop, plain and seeded with the
    basis of the first generator, with every final interreduction checked
    against one that reduces every tail without the run's memo: equal polys,
    equal divisors and the same item order in every tail and poly.  Returns
    (tails sent to ``_reduce``, kept elements) over the runs."""
    fast, reduce = groebner._reduced_basis, groebner._reduce
    counts = [0, 0]

    def counted(*args, **kwargs):
        counts[0] += 1
        return reduce(*args, **kwargs)

    def checked(ring, order, elements, gens, basis, memo):
        slow = support.reduced_basis_from_every_tail(ring, order, elements, gens)
        groebner._reduce = counted
        try:
            gb = fast(ring, order, elements, gens, basis, memo)
        finally:
            groebner._reduce = reduce
        assert gb.polys == slow.polys
        assert gb.divisors == slow.divisors
        assert [list(tail) for _, _, tail in gb.divisors] == [list(tail) for _, _, tail in slow.divisors]
        assert [list(g._terms) for g in gb.polys] == [list(g._terms) for g in slow.polys]
        counts[1] += len(gb.polys)
        return gb

    groebner._reduced_basis = checked
    try:
        groebner._signature_loop(R, gens, R.order)
        groebner._pair_loop(R, gens, R.order)
        groebner._pair_loop(R, gens, R.order, groebner._pair_loop(R, gens[:1], R.order))
    finally:
        groebner._reduced_basis = fast
    return counts[0], counts[1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(plain_systems())
def test_the_final_interreduction_matches_reducing_every_tail(case):
    """Settled tails and reduced ones, in lex and grevlex, over every loop."""
    R, gens = case
    _interreductions_match_every_tail(R, gens)


@pytest.mark.parametrize("name", DENSE_SYSTEMS)
def test_the_final_interreduction_of_dense_systems_matches_reducing_every_tail(name):
    """Both kinds of tail occur: some settled, some sent to ``_reduce``."""
    reduced, kept = _interreductions_match_every_tail(*DENSE_SYSTEMS[name])
    assert 0 < reduced < kept


def test_a_tail_that_does_not_descend_is_reduced():
    """The pair loop enters z + y + x^2 as it is, and no lead divides z or
    y; its tail is still reduced, so that it comes out descending, as it
    would from ``_reduce``."""
    R = PolyRing(7, ("x", "y", "z"))
    gb = groebner._pair_loop(R, [R.parse("z + y + x^2")], R.order)
    pk = gb.packing
    assert list(gb.divisors[0][2]) == [pk.pack((0, 1, 0)), pk.pack((0, 0, 1))]


@pytest.mark.parametrize(
    "order, texts, loop",
    [
        (GREVLEX, ("x^2 + y + z", "y^2 + x*z", "x*y*z - 1"), "_signature_loop"),
        (LEX, ("x^2 + y + z", "y^2 + x*z", "x*y*z - 1"), "_pair_loop"),
        (GREVLEX, ("x^2 - y*z", "x*y - z^2", "y^2 - x*z"), "_pair_loop"),
        (GREVLEX, ("x + y + z", "x*y + z", "x*z + y", "y*z + x"), "_pair_loop"),
    ],
    ids=["grevlex", "lex", "binomials", "more-generators-than-variables"],
)
def test_a_plain_run_takes_the_signature_loop_only_where_it_pays(monkeypatch, order, texts, loop):
    """Plain grevlex runs of at most as many generators as variables, not
    all binomials, take the signature loop; the others take the pair loop,
    and both return one basis."""
    taken = []
    for name in ("_signature_loop", "_pair_loop"):
        def counted(*args, name=name, run=getattr(groebner, name), **kwargs):
            taken.append(name)
            return run(*args, **kwargs)

        monkeypatch.setattr(groebner, name, counted)
    R = PolyRing(32003, ("x", "y", "z"), order)
    gens = [R.parse(t) for t in texts]
    gb = buchberger(gens)
    assert taken == [loop]
    assert gb == groebner._pair_loop(R, gens, order)


def test_a_long_lex_chain_keeps_the_pair_loop():
    """In lex, (x^1500 - y^1500, x*y - 1) passes through a chain of about
    1500 elements, each lead dividing the one before.  The pair loop stops
    pairing an element once its lead is divided; the signature loop would
    pair every element with every earlier one and exhaust the pair budget.
    Since x = 1/y in the quotient, the basis is (x - y^2999, y^3000 - 1)."""
    R = PolyRing(7, ("x", "y"), LEX)
    gb = buchberger([R.parse("x^1500 - y^1500"), R.parse("x*y - 1")])
    assert [str(g) for g in gb.polys] == ["x + 6*y^2999", "y^3000 + 6"]


# -- dense homogeneous generators in reduced echelon form -----------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(support.homogeneous_systems())
def test_dense_homogeneous_generators_enter_in_reduced_echelon_form(case):
    """The pair loop returns the polys and packed divisors of the entry that
    takes each generator as it is, on mixed degrees, repeated and
    rank-deficient generators, in lex and grevlex.  Only a list with a
    generator of more than two terms takes the step, so binomial lists skip
    it, and the basis records the caller's polys, which a run seeded with it
    skips by identity."""
    R, gens = case
    calls = []
    echelon = groebner._echelon_by_degree
    groebner._echelon_by_degree = support.recorded_echelons(calls)
    try:
        gb = groebner._pair_loop(R, gens, R.order)
    finally:
        groebner._echelon_by_degree = echelon
    reference = support.pair_loop_entering_generators_as_given(R, gens, R.order)
    assert gb.polys == reference.polys
    assert gb.divisors == reference.divisors
    assert len(gb.generators) == len(gens) and all(a is b for a, b in zip(gb.generators, gens))
    assert len(calls) == any(len(g._terms) > 2 for g in gens)


FIVE_LINES = ("2*z1 + z4 + z5", "z1 + z2 + 2*z3 + z4 + 2*z5", "2*z1 + 2*z3 + 2*z5", "2*z2 + z3 + 2*z5", "z2 + z3 + z4 + 2*z5")


def _line_quadrics(forms):
    """The products of two of the linear forms, over F_3[z1..z5]."""
    R = PolyRing(3, ("z1", "z2", "z3", "z4", "z5"))
    forms = [R.parse(t) for t in forms]
    return R, [a * b for a, b in itertools.combinations(forms, 2)]


def test_five_lines_make_fewer_reductions_from_echelon_form(monkeypatch):
    """The ten quadrics of the first five-line arrangement of the
    frobenius-reads benchmark, products of dense linear forms with up to 14
    terms, make 29 ``_reduce`` calls, 26 of them zero reductions, where
    entering them as they are made 44: in echelon form their tails hold
    only the five standard quadratic monomials, so no tail is reduced in the
    final interreduction and each S-polynomial is shorter."""
    R, gens = _line_quadrics(FIVE_LINES)
    remainders = []
    reduce = groebner._reduce

    def counted(*args, **kwargs):
        remainders.append(reduce(*args, **kwargs))
        return remainders[-1]

    monkeypatch.setattr(groebner, "_reduce", counted)
    gb = buchberger(gens)
    assert (len(remainders), sum(not r for r in remainders)) == (29, 26)
    remainders.clear()
    assert support.pair_loop_entering_generators_as_given(R, gens, R.order) == gb
    assert (len(remainders), sum(not r for r in remainders)) == (44, 26)


def test_binomial_and_inhomogeneous_runs_skip_the_echelon_step(monkeypatch):
    """The determinantal minors are binomials, and Fedder's colons on them
    are seeded or tracked runs, so none reaches the step: row reducing the
    binomial lists made fedder-colon slower.  Dense inhomogeneous systems
    skip it too, since eliminating across their degrees made cyclic-5
    slower."""
    calls = []
    monkeypatch.setattr(groebner, "_echelon_by_degree", support.recorded_echelons(calls))
    for A in (support.generic_minors(3, 3), support.candidate_miss()):
        A.groebner_basis()
        fedder_f_pure(QuotientPresentation(A.ring, A))
    for name in STANDARD_SYSTEMS:
        names, texts = STANDARD_SYSTEMS[name]
        R = PolyRing(32003, names)
        groebner._pair_loop(R, [R.parse(t) for t in texts], R.order)
    assert calls == []

# -- packed divisors and the reducer memo --------------------------------------


def _repacked(gb):
    pk = Packing(gb.order, gb.ring.nvars)
    return tuple(pk.divisor({pk.pack(m): c for m, c in g.terms()}, gb.ring.p) for g in gb.polys)


@pytest.mark.parametrize("trial", range(4))
def test_a_basis_carries_the_packed_divisors_of_its_polys(trial):
    """Plain, seeded and lex runs and the bases that ``bracket_power``
    carries over hand on packed divisors equal to those their polys pack
    to."""
    rng = random.Random(f"divisors:{trial}")
    for order in (GREVLEX, LEX):
        R = PolyRing(rng.choice((3, 5, 7)), ("x", "y", "z"), order)
        A = Ideal(R, tuple(_random_poly(rng, R, max_degree=2) for _ in range(3)))
        B = Ideal(R, tuple(_random_poly(rng, R, max_degree=2) for _ in range(2)))
        bases = [A.groebner_basis(order), (A + B).groebner_basis(order)]
        bases += [A.bracket_power(e)._gb[order] for e in (1, 2)]
        for gb in bases:
            assert gb.divisors == _repacked(gb)


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_reduce_with_a_shared_memo_matches_reduce_without(order):
    """One memo kept over a divisor list that grows at its end, as a run
    keeps it, gives the remainders and step logs of reductions that each
    start from a fresh memo, as a normal form does."""
    rng = random.Random(f"memo:{order.kind}")
    R = PolyRing(7, ("x", "y", "z"), order)
    pk = Packing(order, R.nvars)
    divisors: list = []
    memo: dict = {}
    for _ in range(40):
        g = _random_poly(rng, R, max_degree=4, terms=6)
        if g.is_zero:
            continue
        terms = {pk.pack(m): c for m, c in g.terms()}
        plain_steps, memo_steps = [], []
        plain = _reduce(terms, divisors, R.p, pk, {}, plain_steps)
        remembered = _reduce(terms, divisors, R.p, pk, memo, memo_steps)
        assert list(remembered.items()) == list(plain.items())
        assert memo_steps == plain_steps
        divisors.append(pk.divisor(terms, R.p))
    # the memo has answered with a divisor and with a count of non-divisors
    assert min(memo.values()) < 0 <= max(memo.values())


def test_reduce_with_a_signature_bound_skips_divisors_of_larger_signature():
    """Bounded by a signature, a term is reduced by the first divisor whose
    multiple has a smaller signature, and stays in the remainder when none
    has; the memo still records the term's first divisor.  Only a divisor
    whose ratio is at or above bar = sig - widen(key of the largest term) is
    tested, and at a smaller term it may still pass."""
    R = PolyRing(7, ("x", "y"))
    pk = groebner._packing(R.order, R.nvars)
    wide = groebner._signature_packing(R.order, R.nvars)
    widened = []

    def widen(key, run=groebner._widener(pk, wide, 1)):
        widened.append(key)
        return run(key)

    divisors = [pk.divisor({pk.pack(m): c for m, c in R.parse(t).terms()}, R.p) for t in ("x + y", "x*y + 1")]
    m = pk.pack((1, 1))
    sig = widen(m ^ pk.mask) + 5  # x*y times a divisor of ratio r has signature sig - 5 + r
    assert _reduce({m: 1}, divisors, R.p, pk, {}) == {pk.pack((0, 2)): R.p - 1}

    # y*(x + y) has the signature sig itself, and x*y + 1 a smaller one
    memo: dict = {}
    assert _reduce({m: 1}, divisors, R.p, pk, memo, signature=(sig, [5, 4], widen)) == {0: R.p - 1}
    assert memo[m] == 0
    # neither multiple is smaller in signature than sig
    memo = {}
    assert _reduce({m: 1}, divisors, R.p, pk, memo, signature=(sig, [6, 5], widen)) == {m: 1}
    assert memo[m] == 0

    # x^2 + y against y + 1: bar is 5, and y's own test passes ratios below
    # 5 + gap.  Below bar no term is widened but x^2 for the bar; at or above
    # it y is widened, and its multiple passes (4 + gap) or not (5 + gap).
    divisors = [pk.divisor({pk.pack(m): c for m, c in R.parse("y + 1").terms()}, R.p)]
    x2, y = pk.pack((2, 0)), pk.pack((0, 1))
    sig = widen(x2 ^ pk.mask) + 5
    gap = widen(x2 ^ pk.mask) - widen(y ^ pk.mask)
    for ratio, remainder in [(4, {x2: 1, 0: R.p - 1}), (4 + gap, {x2: 1, 0: R.p - 1}), (5 + gap, {x2: 1, y: 1})]:
        widened.clear()
        assert _reduce({x2: 1, y: 1}, divisors, R.p, pk, {}, signature=(sig, [ratio], widen)) == remainder
        assert widened == [x2 ^ pk.mask] + ([y ^ pk.mask] if ratio >= 5 else [])


@st.composite
def reductions(draw):
    """(terms, divisors, p, packing, memo, signature) for ``_reduce`` over
    F_p[x, y, z] in grevlex or lex, p in {2, 3, 7, 32003}: up to five monic
    divisors, a memo filled by a reduction against a prefix of them, and in
    half the draws a signature bound whose ratios sit at, just above and
    just below sig - widen(key) of the terms and of other monomials."""
    order = draw(st.sampled_from((GREVLEX, LEX)))
    p = draw(st.sampled_from((2, 3, 7, 32003)))
    nvars = draw(st.integers(1, 3))
    R = PolyRing(p, ("x", "y", "z")[:nvars], order)
    pk = groebner._packing(order, nvars)
    rng = random.Random(draw(st.integers(0, 2**32)))

    def packed(degree, terms):
        return {pk.pack(m): c for m, c in support.random_poly(rng, R, degree, terms).terms()}

    divisors = [pk.divisor(t, p) for t in (packed(2, 3) for _ in range(draw(st.integers(0, 5)))) if t]
    terms = packed(4, draw(st.integers(1, 8)))
    memo: dict = {}
    support.reduce_testing_every_signature(packed(4, 6), divisors[: draw(st.integers(0, len(divisors)))], p, pk, memo)
    signature = None
    if draw(st.booleans()):
        shift = draw(st.integers(1, 3))
        widen = groebner._widener(pk, groebner._signature_packing(order, nvars), shift)
        others = [pk.pack([rng.randrange(4) for _ in range(nvars)]) for _ in range(3)]
        keys = [m ^ pk.mask for m in [*terms, *others]]
        sig = rng.randrange(1 << 60)
        ratios = [sig - widen(rng.choice(keys)) + rng.choice((-1, 0, 1)) for _ in divisors]
        signature = (sig, ratios, widen)
    return terms, divisors, p, pk, memo, signature


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reductions())
def test_reduce_matches_the_kernel_that_tests_every_signature(case):
    """Remainders (as ordered item lists), step logs and the memo written
    equal those of ``support.reduce_testing_every_signature``, with and
    without a signature bound."""
    terms, divisors, p, pk, memo, signature = case
    steps, reference_steps, reference_memo = [], [], dict(memo)
    remainder = _reduce(terms, divisors, p, pk, memo, steps, signature)
    reference = support.reduce_testing_every_signature(
        terms, divisors, p, pk, reference_memo, reference_steps, signature
    )
    assert list(remainder.items()) == list(reference.items())
    assert steps == reference_steps
    assert memo == reference_memo


# -- seeded runs ---------------------------------------------------------------

SEED_ORDERS = (GREVLEX, LEX)


@st.composite
def summand_pairs(draw):
    """Two generator lists over F_p[x, y, z] in one of the seed orders, each
    of up to three random polynomials of degree at most 2 (possibly none)."""
    order = draw(st.sampled_from(SEED_ORDERS))
    p = draw(st.sampled_from((2, 3, 5)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    R = PolyRing(p, ("x", "y", "z"), order)
    sides = [
        [_random_poly(rng, R, max_degree=2) for _ in range(draw(st.integers(0, 3)))]
        for _ in range(2)
    ]
    return R, sides[0], sides[1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(summand_pairs())
def test_seeded_and_unseeded_bases_agree(case):
    """Seeding with either summand's basis, through ``groebner_basis_of`` and
    through ``Ideal.__add__``, gives the unseeded reduced basis, and the
    seeded result certifies itself."""
    R, A, B = case
    order = R.order
    expected = groebner_basis_of(R, A + B, order)
    for seeded_side in (A, B):
        seed = groebner_basis_of(R, seeded_side, order)
        got = groebner_basis_of(R, A + B, order, seed=seed)
        assert got.polys == expected.polys
        _assert_certified(got, A + B)
    X, Y = Ideal(R, tuple(A)), Ideal(R, tuple(B))
    X.groebner_basis(order)
    assert (X + Y).groebner_basis(order).polys == expected.polys
    Y.groebner_basis(order)
    assert (X + Y).groebner_basis(order).polys == expected.polys


def test_a_generator_whose_lead_divides_a_seed_lead_retires_that_element():
    """x enters after the seed {x^2 + y, y^2}: lead x divides x^2, so that
    seed element forms no further pairs, and the result is (x, y)."""
    for order in SEED_ORDERS:
        R = PolyRing(5, ("x", "y"), order)
        seed = buchberger([R.parse("x^2 + y"), R.parse("y^2")], order)
        gens = [R.parse("x^2 + y"), R.parse("y^2"), R.parse("x")]
        got = groebner_basis_of(R, gens, order, seed=seed)
        assert [str(g) for g in got.polys] == ["x", "y"]
        assert got.polys == groebner_basis_of(R, gens, order).polys
        _assert_certified(got, gens)
    pk = Packing(GREVLEX, 2)
    pairs = _PairQueue(pk)
    pairs.add_processed(pk.pack((2, 0)), 2)
    pairs.add_processed(pk.pack((0, 2)), 2)
    assert (pairs.active, pairs.formed, pairs.heap) == ([0, 1], 0, [])
    pairs.add(pk.pack((1, 0)), 1)
    # x^2 leaves the active set but keeps its pair with x; (y^2, x) is coprime
    assert (pairs.active, pairs.formed, _queued(pairs)) == ([1, 2], 2, [(0, 2)])


def test_generators_inside_the_seed_return_the_seed_itself():
    R = PolyRing(7, ("x", "y", "z"))
    gens = [R.parse("x^2 + y*z"), R.parse("y^2 + x*z"), R.parse("z^2 + x*y")]
    seed = buchberger(gens)
    inside = gens + [gens[0] * R.parse("x + z"), gens[1] - gens[2]]
    assert groebner_basis_of(R, inside, GREVLEX, seed=seed) is seed


def test_a_unit_seed_gives_the_unit_ideal():
    for order in SEED_ORDERS:
        R = PolyRing(3, ("x", "y"), order)
        seed = buchberger([R.parse("x"), R.parse("x + 1")], order)
        got = groebner_basis_of(R, [R.parse("x"), R.parse("x + 1"), R.parse("y^2 + x")], order, seed=seed)
        assert [str(g) for g in got.polys] == ["1"]


def test_a_zero_summand_seeds_nothing_and_is_seeded_by_nothing():
    R = PolyRing(5, ("x", "y"))
    zero = Ideal(R, ())
    A = Ideal(R, (R.parse("x^2 - y"), R.parse("x*y - 1")))
    expected = groebner_basis_of(R, A.generators, GREVLEX).polys
    assert zero.groebner_basis().polys == ()
    assert (zero + A).groebner_basis().polys == expected
    A.groebner_basis()
    assert (A + zero).groebner_basis().polys == expected
    assert (zero + zero).groebner_basis().polys == ()


def test_seed_in_another_order_is_rejected():
    R = PolyRing(5, ("x", "y"))
    seed = buchberger([R.parse("x - y")], LEX)
    with pytest.raises(ValueError):
        groebner_basis_of(R, [R.parse("x - y")], GREVLEX, seed=seed)


def test_seeded_build_exhausts_the_budget(monkeypatch):
    R = PolyRing(7, ("x", "y", "z"))
    X = Ideal(R, (R.parse("x^3 + y^2 + z"),))
    Y = Ideal(R, (R.parse("y^3 + z^2 + x"), R.parse("z^3 + x^2 + y")))
    X.groebner_basis()
    with monkeypatch.context() as m:
        m.setattr(groebner, "DEFAULT_PAIR_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            (X + Y).groebner_basis()
        with pytest.raises(BudgetExceeded):
            groebner_basis_of(R, X.generators + Y.generators, GREVLEX, seed=X.groebner_basis())
    assert (X + Y).groebner_basis().polys == buchberger(X.generators + Y.generators).polys


def test_seeded_sum_forms_fewer_pairs(monkeypatch):
    """defining + parameter on the five coordinate lines at p = 3 (the
    closure test's first sum): seeded with the basis of the ten line
    relations, the run forms none of their pairs."""
    queues = []

    class Recorded(_PairQueue):
        def __init__(self, *args):
            super().__init__(*args)
            queues.append(self)

    monkeypatch.setattr(groebner, "_PairQueue", Recorded)
    R = PolyRing(3, ("x1", "x2", "x3", "x4", "x5"))
    v = [R.variable(a) for a in R.variables]
    defining = Ideal(R, tuple(v[i] * v[j] for i in range(5) for j in range(i + 1, 5)))
    parameter = Ideal(R, (sum(v[1:], v[0]),))
    unseeded = groebner_basis_of(R, defining.generators + parameter.generators, GREVLEX)
    alone = queues[-1].formed
    defining.groebner_basis()
    assert (defining + parameter).groebner_basis().polys == unseeded.polys
    seeded = queues[-1].formed
    assert seeded < alone


def test_a_sum_seeded_from_an_echelon_entered_basis_skips_its_generators(monkeypatch):
    """defining + parameter on FIVE_LINES, dense quadrics whose own basis
    the run took from their reduced echelon form: that basis records the
    caller's polys, so the seeded sum still skips them by identity, reduces
    none of them and takes no echelon step itself.  It forms 56 pairs.  The
    unseeded sum enters in echelon form too, its linear parameter first, and
    the quadrics whose lead the parameter's divides enter reduced and
    inactive, so it forms 55 (95 when it entered its generators as they
    were): here the seed saves the ten quadrics' reductions, not pairs."""
    queues = []

    class Recorded(_PairQueue):
        def __init__(self, *args):
            super().__init__(*args)
            queues.append(self)

    monkeypatch.setattr(groebner, "_PairQueue", Recorded)
    R, quadrics = _line_quadrics(FIVE_LINES)
    defining = Ideal(R, tuple(quadrics))
    parameter = Ideal(R, (R.parse("2*z2 + 2*z4 + 2*z5"),))
    unseeded = groebner_basis_of(R, defining.generators + parameter.generators, GREVLEX)
    alone = queues[-1].formed
    echelons = []
    monkeypatch.setattr(groebner, "_echelon_by_degree", support.recorded_echelons(echelons))
    defining.groebner_basis()
    seen = _reduced_terms(monkeypatch)
    assert (defining + parameter).groebner_basis().polys == unseeded.polys
    assert seen and not [g for g in defining.generators if g._terms in seen]
    assert echelons == [list(defining.generators)]
    assert (queues[-1].formed, alone) == (56, 55)


def _reduced_terms(monkeypatch):
    """Record the packed term dict of every ``_reduce`` call."""
    seen = []
    reduce = groebner._reduce

    def recorded(terms, *args, **kwargs):
        seen.append(dict(terms))
        return reduce(terms, *args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce", recorded)
    return seen


@pytest.mark.parametrize("trial", range(6))
def test_a_seeded_sum_reduces_none_of_the_seed_summands_generators(monkeypatch, trial):
    """X + Y seeded with X's cached basis, (X^[p] + Y) seeded with the image
    basis that the bracket power carries, and (X + Y) + Z seeded with the
    basis of X + Y: no generator of the seeding summand reaches ``_reduce``
    (none of its generators' packed terms is ever reduced), and each sum
    gets the unseeded basis."""
    rng = random.Random(f"skip:{trial}")
    R = PolyRing(rng.choice((3, 5, 7)), ("x", "y", "z"))
    pk = Packing(GREVLEX, R.nvars)

    def ideal(count):
        return Ideal(R, tuple(_random_poly(rng, R, max_degree=2) for _ in range(count)))

    X, Y, Z = ideal(3), ideal(2), ideal(2)
    X.groebner_basis()
    cases = [(X, X + Y), (X.bracket_power(1), X.bracket_power(1) + Y)]
    XY = X + Y
    XY.groebner_basis()
    cases.append((XY, XY + Z))
    seen = _reduced_terms(monkeypatch)
    for summand, total in cases:
        seen.clear()
        gb = total.groebner_basis()
        skipped = [{pk.pack(m): c for m, c in g.terms()} for g in summand.generators if not g.is_zero]
        assert seen and not [terms for terms in skipped if terms in seen]
        assert gb.polys == groebner_basis_of(R, total.generators, GREVLEX).polys


def test_a_tracked_run_still_reduces_the_seeds_generators():
    """A generator that reduces to zero yields an image, so a tracked run
    skips none: P ∩ P is P, from P's own generators as tags."""
    R = PolyRing(5, ("x", "y"))
    P = Ideal(R, (R.parse("x^2 - y"), R.parse("x*y")))
    gb = P.groebner_basis()
    images = syzygy_images(gb, P.generators)
    assert Ideal(R, tuple(images)) == P
