"""Tests for ideal operations: sums, products, bracket powers, intersection,
colon (against the elimination routes of tests/support.py and against
Hilbert series), elimination, dimension, Hilbert numerators and standard
monomials."""

import itertools
import math
import random
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from froblab.errors import ExponentOverflow, NotArtinian, RingMismatch, UnitIdeal, ZeroColonDivisor
from froblab.groebner import groebner_basis_of
from froblab.ideals import Ideal
from froblab.polyring import GREVLEX, LEX, PolyRing

import support


def _ideal(ring, *texts):
    return Ideal(ring, tuple(ring.parse(t) for t in texts))


def _random_poly(rng, ring, max_degree=2, terms=2):
    g = ring.zero()
    for _ in range(terms):
        m = tuple(rng.randrange(max_degree + 1) for _ in ring.variables)
        g = g + ring.monomial(m, rng.randrange(1, ring.p))
    return g


def test_membership_and_normal_form():
    R = PolyRing(3, ("x", "y"))
    A = _ideal(R, "x^2 - y")
    assert A.contains(R.parse("x^4 - y^2"))
    assert A.normal_form(R.parse("x^2")) == R.parse("y")
    assert not A.contains(R.parse("x"))
    assert A.normal_form(R.parse("y")) == R.parse("y")


def test_zero_and_unit_predicates():
    R = PolyRing(3, ("x",))
    assert Ideal(R, ()).is_zero()
    assert not Ideal(R, ()).is_unit()
    assert _ideal(R, "x", "x + 1").is_unit()


def test_sum_and_product():
    R = PolyRing(3, ("x", "y"))
    A = _ideal(R, "x")
    B = _ideal(R, "y")
    assert (A + B).contains(R.parse("x + y"))
    prod = A * B
    assert prod.contains(R.parse("x*y"))
    assert not prod.contains(R.parse("x"))


def test_bracket_power_generators():
    R = PolyRing(3, ("x", "y"))
    A = _ideal(R, "x + y", "x*y")
    B = A.bracket_power(1)
    assert [str(g) for g in B.generators] == ["x^3 + y^3", "x^3*y^3"]
    with pytest.raises(ValueError):
        A.bracket_power(-1)


def test_bracket_power_contains_frobenius_images():
    """h in I implies h^(p^e) in I^[p^e], on random combinations."""
    rng = random.Random(9)
    R = PolyRing(3, ("x", "y"))
    A = _ideal(R, "x^2 + y", "x*y^2")
    for _ in range(20):
        h = sum((g * _random_poly(rng, R) for g in A.generators), R.zero())
        assert A.bracket_power(1).contains(h.frobenius_pow(1))
        assert A.bracket_power(2).contains(h.frobenius_pow(2))


def test_bracket_power_carries_every_cached_basis_over():
    """The Frobenius image of a cached basis equals a fresh Buchberger basis
    of the bracket-power generators, in each order and for e = 1, 2."""
    rng = random.Random(17)
    for p in (2, 3, 5):
        R = PolyRing(p, ("x", "y", "z"))
        orders = (GREVLEX, LEX)
        for _ in range(4):
            A = Ideal(R, tuple(_random_poly(rng, R, terms=3) for _ in range(3)))
            for order in orders:
                A.groebner_basis(order)
            for e in (1, 2):
                B = A.bracket_power(e)
                for order in orders:
                    assert B._gb[order].polys == groebner_basis_of(R, B.generators, order).polys


def test_bracket_power_overflow():
    R = PolyRing(2, ("x", "y"))
    with pytest.raises(ExponentOverflow):
        _ideal(R, "x^2 + y").bracket_power(15)  # x^65536
    # the generators fit the exponent field at e = 14, but the lex basis
    # (x - y^2, y^4) does not; it is left to a Buchberger run, which raises
    A = _ideal(R, "x - y^2", "x^2")
    A.groebner_basis(LEX)
    B = A.bracket_power(14)
    assert LEX not in B._gb
    with pytest.raises(ExponentOverflow):
        B.groebner_basis(LEX)


def test_intersection_examples():
    R = PolyRing(3, ("x", "y"))
    assert _ideal(R, "x").intersect(_ideal(R, "y")) == _ideal(R, "x*y")
    assert _ideal(R, "x^2", "y").intersect(_ideal(R, "x")) == _ideal(R, "x^2", "x*y")


def test_intersection_agrees_with_membership():
    """f in A cap B exactly when f is in both, on random elements."""
    rng = random.Random(31)
    R = PolyRing(5, ("x", "y"))
    A = _ideal(R, "x^2", "x*y")
    B = _ideal(R, "y^2 - x")
    C = A.intersect(B)
    for _ in range(40):
        f = _random_poly(rng, R, max_degree=3)
        assert C.contains(f) == (A.contains(f) and B.contains(f))


def test_colon_examples():
    R = PolyRing(3, ("x", "y"))
    assert _ideal(R, "x^3*y^3").colon(_ideal(R, "x*y")) == _ideal(R, "x^2*y^2")
    # (x^2, x*y, y^3) : (x, y) = (x, y^2), worked out by hand
    assert _ideal(R, "x^2", "x*y", "y^3").colon(_ideal(R, "x", "y")) == _ideal(R, "x", "y^2")


def test_colon_properties():
    rng = random.Random(13)
    R = PolyRing(3, ("x", "y"))
    A = _ideal(R, "x^2", "y^2")
    B = _ideal(R, "x", "y")
    Q = A.colon(B)
    # A is always inside (A : B), and (A : B)*B lands back in A
    for g in A.generators:
        assert Q.contains(g)
    for q in Q.generators:
        for b in B.generators:
            assert A.contains(q * b)
    # random elements of (A : B) multiply B into A
    for _ in range(20):
        h = sum((g * _random_poly(rng, R) for g in Q.generators), R.zero())
        for b in B.generators:
            assert A.contains(h * b)


def test_colon_iterates_like_a_product():
    R = PolyRing(5, ("x", "y"))
    A = _ideal(R, "x^3*y^2")
    B = _ideal(R, "x")
    C = _ideal(R, "y")
    assert A.colon(B).colon(C) == A.colon(B * C)


def test_colon_steps_end_at_the_colon():
    R = PolyRing(3, ("x", "y"))
    A = _ideal(R, "x^2", "x*y", "y^3")
    steps = list(A.colon_steps(_ideal(R, "x", "0", "y")))
    assert [rest for _, rest in steps] == [(R.parse("y"),), ()]
    assert steps[0][0] == A.colon(_ideal(R, "x"))
    assert steps[1][0] == A.colon(_ideal(R, "x", "y"))


def test_colon_by_zero_rejected():
    R = PolyRing(3, ("x",))
    with pytest.raises(ZeroColonDivisor):
        _ideal(R, "x").colon(Ideal(R, (R.zero(),)))


def test_eliminate_substitution_chain():
    R = PolyRing(3, ("x", "y", "z"))
    A = _ideal(R, "x - y^2", "y - z")
    assert A.eliminate(["y"]) == _ideal(R, "x - z^2")


def test_eliminate_output_avoids_dropped_variables():
    R = PolyRing(5, ("x", "y", "z"))
    A = _ideal(R, "x^2 + y*z", "y^2 - z")
    B = A.eliminate(["y"])
    for g in B.generators:
        assert "y" not in g.support_variables()
        assert A.contains(g)
    with pytest.raises(ValueError):
        A.eliminate(["nope"])
    with pytest.raises(ValueError):
        A.eliminate(["x", "y", "z"])


@st.composite
def ideal_pairs(draw, homogeneous=None):
    """Two ideals of F_p[x, y, z] or fewer variables, p in {2, 3, 5, 7},
    with up to three generators of up to three terms of degree at most 2.
    Each generator is homogeneous when ``homogeneous`` says so (drawn when
    it is None); an empty draw is a zero generator, an empty list the zero
    ideal, and a nonzero constant makes the unit ideal."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ring = PolyRing(p, ("x", "y", "z")[: draw(st.integers(1, 3))])
    if homogeneous is None:
        homogeneous = draw(st.booleans())
    monomials = [m for m in itertools.product(range(3), repeat=ring.nvars) if sum(m) <= 2]

    def poly():
        pool = monomials
        if homogeneous:
            d = draw(st.integers(0, 2))
            pool = [m for m in monomials if sum(m) == d]
        g = ring.zero()
        for m, c in draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, p - 1)), max_size=3)):
            g = g + ring.monomial(m, c)
        return g

    def ideal():
        return Ideal(ring, tuple(poly() for _ in range(draw(st.integers(0, 3)))))

    return ideal(), ideal()


def _pair(p, names, first, second):
    ring = PolyRing(p, names)
    return _ideal(ring, *first), _ideal(ring, *second)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ideal_pairs())
@example(_pair(3, ("x", "y"), [], ["x", "y"]))  # the zero ideal
@example(_pair(5, ("x", "y"), ["x", "x + 1"], ["y^2", "0", "x*y"]))  # unit, zero divisor
@example(_pair(2, ("x", "y", "z"), ["x*y + z", "y^2"], ["x + z^2", "y*z + 1"]))
@example(_pair(7, ("x", "y", "z"), ["x^2", "x*y", "y*z"], ["x", "0", "z^2"]))
@example(_pair(5, ("x", "y", "z"), ["2*x*z + 3"], ["4*x*y + x + 1"]))  # S-pairs of two tagged elements
def test_intersect_and_colon_match_the_elimination_routes(case):
    """Intersection, colon and each colon step equal the elimination
    routes of tests/support.py, on homogeneous and inhomogeneous inputs.
    Each step's generators are A's followed by cofactors outside A."""
    A, B = case
    assert A.intersect(B) == support.elimination_intersect(A, B)
    divisors = tuple(g for g in B.generators if not g.is_zero)
    if not divisors:
        with pytest.raises(ZeroColonDivisor):
            A.colon(B)
        return
    steps = list(A.colon_steps(B))
    assert [rest for _, rest in steps] == [divisors[k:] for k in range(1, len(divisors) + 1)]
    for k, (colon, _) in enumerate(steps, 1):
        assert colon == support.elimination_colon(A, Ideal(A.ring, divisors[:k]))
        assert colon.generators[:len(A.generators)] == A.generators
        assert not any(A.contains(h) for h in colon.generators[len(A.generators):])
    assert A.colon(B) == steps[-1][0]


def _series(*parts):
    """The sum of sign * t^shift * K over parts (sign, shift, K), as a
    coefficient list with no trailing zeros."""
    out = [0] * max((shift + len(K) for _, shift, K in parts), default=0)
    for sign, shift, K in parts:
        for k, c in enumerate(K):
            out[shift + k] += sign * c
    while out and not out[-1]:
        out.pop()
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ideal_pairs(homogeneous=True))
@example(_pair(3, ("x", "y"), [], ["x", "y"]))
@example(_pair(5, ("x", "y", "z"), ["x*y", "x*z", "y*z"], ["x", "y + z", "0"]))
@example(_pair(7, ("x", "y", "z"), ["x^2", "y^2"], ["1", "x*y"]))
def test_intersect_and_colon_have_the_hilbert_series_of_their_exact_sequences(case):
    """On homogeneous P, Q and g, from Hilbert numerators alone (K with
    HS(S/I) = K/(1 - t)^n):
    - K(P ∩ Q) = K(P) + K(Q) - K(P + Q), from 0 -> S/(P ∩ Q) -> S/P ⊕ S/Q
      -> S/(P + Q) -> 0;
    - t^deg g * K(P : g) = K(P) - K(P + (g)), from
      0 -> (S/(P : g))(-deg g) -> S/P -> S/(P + (g)) -> 0;
    - each step of colon_steps is the intersection of the step before and
      the colon by the new divisor.
    With the containments checked by membership, equal Hilbert series make
    the ideals equal."""
    P, Q = case
    K = Ideal.hilbert_numerator
    meet = P.intersect(Q)
    assert all(P.contains(h) and Q.contains(h) for h in meet.generators)
    assert _series((1, 0, K(meet)), (1, 0, K(P + Q))) == _series((1, 0, K(P)), (1, 0, K(Q)))
    divisors = [g for g in Q.generators if not g.is_zero]
    before = None
    for (colon, _), g in zip(P.colon_steps(Q) if divisors else (), divisors):
        single = P.colon(Ideal(P.ring, (g,)))
        assert all(P.contains(h * g) for h in single.generators)
        assert _series((1, g.total_degree(), K(single))) == _series((1, 0, K(P)), (-1, 0, K(P + Ideal(P.ring, (g,)))))
        if before is None:
            assert colon == single
        else:
            assert all(before.contains(h) and single.contains(h) for h in colon.generators)
            assert _series((1, 0, K(colon)), (1, 0, K(before + single))) == _series((1, 0, K(before)), (1, 0, K(single)))
        before = colon


def test_krull_dimension():
    R = PolyRing(3, ("x", "y"))
    assert Ideal(R, ()).krull_dimension() == 2
    assert _ideal(R, "x*y").krull_dimension() == 1
    assert _ideal(R, "x").krull_dimension() == 1
    assert _ideal(R, "x", "y").krull_dimension() == 0
    with pytest.raises(UnitIdeal):
        _ideal(R, "x", "x + 1").krull_dimension()


@st.composite
def binomial_ideals(draw):
    """Up to four monomials and binomials over F_p in one to six
    variables, with exponents at most 2.  A binomial may have a constant
    term, so some draws give the unit ideal."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ring = PolyRing(p, tuple(f"x{i}" for i in range(1, draw(st.integers(1, 6)) + 1)))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars), st.integers(1, p - 1))
    polys = draw(st.lists(st.lists(term, min_size=1, max_size=2), max_size=4))
    return Ideal(ring, tuple(sum((ring.monomial(m, c) for m, c in terms), ring.zero()) for terms in polys))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(binomial_ideals())
@example(_ideal(PolyRing(3, ("x", "y")), "x*y - 1", "x"))
def test_krull_dimension_agrees_with_the_subset_search(ideal):
    """n less the order of the zero of the Hilbert numerator at t = 1 is
    the dimension that the search over variable subsets finds, and the
    unit ideal raises."""
    expected = support.krull_dimension_by_subsets(ideal)
    if expected is None:
        with pytest.raises(UnitIdeal):
            ideal.krull_dimension()
    else:
        assert ideal.krull_dimension() == expected


def test_krull_dimension_of_many_disjoint_binomials_is_fast():
    """F_3[x1..x30] modulo x_{2i+1}*x_{2i+2} + x_{2i+1}^2, i < 15, has
    dimension 15; a search over variable subsets takes seconds from about
    20 variables on, the numerator milliseconds."""
    R = PolyRing(3, tuple(f"x{i}" for i in range(1, 31)))
    A = _ideal(R, *(f"x{2 * i + 1}*x{2 * i + 2} + x{2 * i + 1}^2" for i in range(15)))
    started = time.perf_counter()
    assert A.krull_dimension() == 15
    assert time.perf_counter() - started < 1.0


@st.composite
def monomial_ideals(draw):
    """Up to five monomials with exponents at most 3 in one to four
    variables; a zero exponent vector generates the unit ideal."""
    n = draw(st.integers(1, 4))
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    return n, draw(st.lists(monomial, max_size=5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(monomial_ideals())
@example((3, []))  # the zero ideal: K = 1
@example((2, [(0, 0)]))  # the unit ideal: K = 0
@example((2, [(1, 1), (1, 2), (2, 1)]))
def test_hilbert_numerator_counts_the_standard_monomials(case):
    """The coefficients of K(t)/(1 - t)^n, up to degree deg K + 2, against
    the number of monomials of each degree that no generator divides."""
    n, monomials = case
    ring = PolyRing(3, tuple(f"x{i}" for i in range(1, n + 1)))
    K = Ideal(ring, tuple(ring.monomial(m) for m in monomials)).hilbert_numerator()
    if not monomials:
        assert K == [1]
    if (0,) * n in monomials:
        assert K == []
    for d in range(len(K) + 2):
        series = sum(c * math.comb(d - k + n - 1, n - 1) for k, c in enumerate(K[: d + 1]))
        outside = [
            m
            for m in itertools.product(range(d + 1), repeat=n)
            if sum(m) == d and not any(all(a >= b for a, b in zip(m, g)) for g in monomials)
        ]
        assert series == len(outside)


def test_hilbert_numerator_of_a_homogeneous_ideal():
    """(x*y, x*z) = (x) ∩ (y, z): HS = 1/(1 - t)^2 + 1/(1 - t) - 1, so
    K = 1 - 2t^2 + t^3.  The coprime quadrics x*y - y^2 and x*z are a
    complete intersection, K = (1 - t^2)^2, although the grevlex basis has
    a third lead y^2*z; so are the squares of the variables, (1 - t^2)^3."""
    R = PolyRing(5, ("x", "y", "z"))
    assert _ideal(R, "x*y", "x*z").hilbert_numerator() == [1, 0, -2, 1]
    assert _ideal(R, "x*y - y^2", "x*z").hilbert_numerator() == [1, 0, -2, 0, 1]
    assert _ideal(R, "x^2", "y^2", "z^2").hilbert_numerator() == [1, 0, -3, 0, 3, 0, -1]


def test_standard_monomials():
    R = PolyRing(3, ("x2", "x3"))
    A = _ideal(R, "x2*x3", "x2^3", "x3^3")
    mons = A.standard_monomials()
    # ascending ring order; x2 sorts above x3 under grevlex
    assert mons == [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0)]
    assert _ideal(R, "x2", "x3 + 1").standard_monomials() == [(0, 0)]
    assert _ideal(R, "x2", "x2 + 1").standard_monomials() == []  # unit ideal


def test_standard_monomials_need_artinian_input():
    R = PolyRing(3, ("x", "y"))
    with pytest.raises(NotArtinian) as err:
        _ideal(R, "x^2").standard_monomials()
    assert "y" in str(err.value)


@st.composite
def packed_monomial_ideals(draw):
    """Up to six monomials in one to six variables, with exponents at most
    3, or some of them in [100, 1000]; on some draws the monomials are
    pairwise coprime, each supported on its own block of variables.  A zero
    exponent vector generates the unit ideal."""
    n = draw(st.integers(1, 6))
    exponent = st.one_of(st.integers(0, 3), st.integers(100, 1000)) if draw(st.booleans()) else st.integers(0, 3)
    if draw(st.booleans()):
        blocks = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        monomials = [
            tuple(draw(st.integers(1, 3)) if block == b else 0 for block in blocks)
            for b in sorted(set(blocks))
            if draw(st.booleans())
        ]
    else:
        monomials = draw(st.lists(st.tuples(*[exponent] * n), max_size=6))
    return n, monomials


@settings(max_examples=150, deadline=None, derandomize=True)
@given(packed_monomial_ideals())
@example((3, []))  # the zero ideal: K = 1
@example((2, [(0, 0)]))  # the unit ideal: K = 0
@example((4, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 1)]))  # pairwise coprime
@example((2, [(1000, 0), (0, 999), (500, 500)]))
def test_packed_hilbert_numerator_matches_the_tuple_recursion(case):
    """Bigatti's recursion on the basis's packed grevlex leads gives the
    numerator the recursion on exponent tuples (tests/support.py) gives on
    the ideal's minimal generators, for the grevlex basis that
    Ideal.hilbert_numerator reads and for the lex basis, whose leads are
    repacked."""
    n, monomials = case
    ring = PolyRing(3, tuple(f"x{i}" for i in range(1, n + 1)))
    ideal = Ideal(ring, tuple(ring.monomial(m) for m in monomials))
    expected = support.hilbert_numerator_of_tuples(support.minimal_monomials(monomials))
    assert ideal.hilbert_numerator() == expected
    assert ideal.groebner_basis(LEX)._hilbert_numerator() == expected


@st.composite
def maybe_artinian_ideals(draw):
    """A grevlex or lex ring in one to four variables over F_3 or F_5, and
    an ideal of up to three random polys of degree at most 3 and no
    constant term, with x^k plus up to one random term of degree 1 to k for
    each variable, k at most 4, on most draws and for some of them on
    others."""
    n = draw(st.integers(1, 4))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    ring = PolyRing(draw(st.sampled_from((3, 5))), tuple(f"x{i}" for i in range(1, n + 1)), order)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def nonconstant(degree, terms):
        g = support.random_poly(rng, ring, degree, terms)
        return g - ring.constant(g.constant_coefficient())

    gens = [nonconstant(3, 3) for _ in range(draw(st.integers(0, 3)))]
    every = draw(st.integers(0, 3)) > 0
    for name in ring.variables:
        if every or draw(st.booleans()):
            k = draw(st.integers(1, 4))
            gens.append(ring.variable(name) ** k + nonconstant(k, draw(st.integers(0, 1))))
    return Ideal(ring, tuple(gens))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(maybe_artinian_ideals())
def test_walked_standard_monomials_match_the_box(ideal):
    """The order ideal walked up from 1 on packed monomials is the box's
    standard monomials (tests/support.py): the same list, in the same
    ascending order of the ring, grevlex or lex, or the same NotArtinian
    message."""
    # Of the 150 draws, 133 are Artinian (88 in grevlex rings, 45 in lex
    # ones), 75 of them with more than one standard monomial, and 17 not.
    try:
        expected = support.standard_monomials_in_the_box(ideal)
    except NotArtinian as err:
        with pytest.raises(NotArtinian) as got:
            ideal.standard_monomials()
        assert str(got.value) == str(err)
        return
    assert ideal.standard_monomials() == expected


def test_extensional_equality():
    R = PolyRing(3, ("x", "y"))
    assert _ideal(R, "x", "y") == _ideal(R, "y", "x + y")
    assert _ideal(R, "x") != _ideal(R, "y")
    with pytest.raises(TypeError):
        hash(_ideal(R, "x"))


def test_groebner_cache_is_shared_across_threads():
    """Concurrent first calls all see the same cached basis object."""
    R = PolyRing(5, ("x", "y", "z"))
    A = _ideal(R, "x^2 + y*z", "y^2 + x*z", "z^2 + x*y")
    results = []
    barrier = threading.Barrier(8)

    def work():
        barrier.wait()
        results.append(A.groebner_basis())

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r is results[0] for r in results)


def test_ring_mismatch_rejected():
    A = PolyRing(3, ("x",))
    B = PolyRing(5, ("x",))
    with pytest.raises(RingMismatch):
        Ideal(A, (A.parse("x"),)) + Ideal(B, (B.parse("x"),))
    with pytest.raises(RingMismatch):
        Ideal(A, (B.parse("x"),))
