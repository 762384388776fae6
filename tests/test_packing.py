"""Properties of the packed monomials inside the Groebner engine, for lex
and grevlex: order, divisibility, lcms, round trips, the overflow guard,
and the wider layout of the signature loop."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from froblab import groebner
from froblab.errors import ExponentOverflow
from froblab.groebner import GroebnerBasis, Packing, buchberger
from froblab.polyring import GREVLEX, LEX, MAX_EXPONENT, PolyRing
from support import monomial_div, monomial_lcm


@st.composite
def order_and_monomials(draw):
    nvars = draw(st.integers(1, 6))
    order = draw(st.sampled_from((LEX, GREVLEX)))
    # small exponents make ties and divisibility common; the full range
    # exercises the top bits of every field
    exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT))
    monomials = draw(st.lists(st.tuples(*[exponent] * nvars), min_size=2, max_size=12))
    return order, nvars, monomials


def _layouts(order, nvars):
    """The engine's layout and the wider one of signatures."""
    return Packing(order, nvars), groebner._signature_packing(order, nvars)


@given(order_and_monomials())
def test_packed_order_sorts_like_the_order_key(case):
    order, nvars, monomials = case
    for pk in _layouts(order, nvars):
        assert sorted(monomials, key=lambda m: pk.pack(m) ^ pk.mask) == sorted(monomials, key=order.key)


@given(order_and_monomials())
def test_pack_unpack_round_trip(case):
    """And the total degree read from a packed monomial, which grevlex
    keeps in its degree field, is the sum of the exponents."""
    order, nvars, monomials = case
    for pk in _layouts(order, nvars):
        for m in monomials:
            assert pk.unpack(pk.pack(m)) == m
            assert pk.total_degree(pk.pack(m)) == sum(m)
        terms = {m: 1 for m in monomials}
        assert {pk.unpack(k): c for k, c in {pk.pack(m): c for m, c in terms.items()}.items()} == terms


@given(order_and_monomials(), st.integers(1, 3))
def test_widen_moves_each_field_to_the_signature_layout(case, shift):
    """Keys m ^ mask, as the signature loop widens them, and the packed
    monomials themselves."""
    order, nvars, monomials = case
    pk, wide = _layouts(order, nvars)
    widen = groebner._widener(pk, wide, shift)
    for m in monomials:
        for packed in (pk.pack(m), pk.pack(m) ^ pk.mask):
            fields = pk.unpack(packed)
            degree = packed >> (len(fields) * (pk.bits + 1))
            assert widen(packed) == (sum(f << s for f, s in zip(fields, wide.shifts)) + degree * wide.degree) << shift


@given(order_and_monomials())
def test_packed_divisibility_and_quotient_match_monomial_div(case):
    order, nvars, monomials = case
    pk = Packing(order, nvars)
    guard = pk.guard
    for num in monomials:
        for den in monomials:
            difference = (pk.pack(num) | guard) - pk.pack(den)
            expected = monomial_div(num, den)
            assert (difference & guard == guard) == (expected is not None)
            if expected is not None:
                assert difference ^ guard == pk.pack(expected)


# three full fields: the degrees sum past 2^17, where the lcm's degree field
# sum would carry into the next field, so it is summed from the exponents
@example((LEX, 3, [(MAX_EXPONENT, MAX_EXPONENT, 0), (0, 1, MAX_EXPONENT)]))
@example((GREVLEX, 3, [(MAX_EXPONENT, MAX_EXPONENT, 0), (0, 1, MAX_EXPONENT)]))
@given(order_and_monomials())
def test_packed_lcm_and_its_degree_match_monomial_lcm(case):
    order, nvars, monomials = case
    pk = Packing(order, nvars)
    for a in monomials:
        for b in monomials:
            lcm = monomial_lcm(a, b)
            assert pk.lcm(pk.pack(a), pk.pack(b), sum(a) + sum(b)) == (pk.pack(lcm), sum(lcm))


@given(order_and_monomials())
def test_packed_product_sets_a_guard_bit_exactly_on_overflow(case):
    order, nvars, monomials = case
    pk = Packing(order, nvars)
    for a in monomials:
        for b in monomials:
            product = pk.pack(a) + pk.pack(b)
            overflow = any(x + y > MAX_EXPONENT for x, y in zip(a, b))
            assert bool(product & pk.guard) == overflow
            if not overflow:
                assert pk.unpack(product) == tuple(x + y for x, y in zip(a, b))


@given(order_and_monomials())
def test_divisor_bound_flags_exactly_the_overflowing_quotients(case):
    """One check of q + bound per reduction step stands for the check of
    every product q + m over the divisor's tail."""
    order, nvars, monomials = case
    pk = Packing(order, nvars)
    _, bound, tail = pk.divisor({pk.pack(m): 1 for m in monomials}, 7)
    for q in monomials:
        packed = pk.pack(q)
        assert bool((packed + bound) & pk.guard) == any((packed + m) & pk.guard for m in tail)


# (order, lead, tail): lead > tail in the order, and y * tail overflows
OVERFLOW_CASES = [
    (LEX, (1, 0), (0, MAX_EXPONENT)),
    (GREVLEX, (MAX_EXPONENT, 0), (0, MAX_EXPONENT)),
]


@pytest.mark.parametrize("order, lead, tail", OVERFLOW_CASES, ids=["lex", "grevlex"])
def test_normal_form_raises_when_a_product_overflows(order, lead, tail):
    ring = PolyRing(7, ("x", "y"), order)
    g = ring.monomial(lead) + ring.monomial(tail)
    gb = GroebnerBasis(ring, order, (g,))
    with pytest.raises(ExponentOverflow):
        gb.normal_form(ring.monomial((lead[0], lead[1] + 1)))


@pytest.mark.parametrize("order, lead, tail", OVERFLOW_CASES, ids=["lex", "grevlex"])
def test_buchberger_raises_when_an_s_polynomial_overflows(order, lead, tail):
    # the S-polynomial of lead + tail and lead*y - 1 is y*tail + 1
    ring = PolyRing(7, ("x", "y"), order)
    g = ring.monomial(lead) + ring.monomial(tail)
    h = ring.monomial((lead[0], lead[1] + 1)) - ring.one()
    with pytest.raises(ExponentOverflow):
        buchberger([g, h])


@pytest.mark.parametrize("order, lead, tail", OVERFLOW_CASES, ids=["lex", "grevlex"])
def test_the_signature_loop_raises_when_an_s_polynomial_overflows(order, lead, tail):
    """A plain run of two binomials takes the pair loop, so the signature
    loop is called directly."""
    ring = PolyRing(7, ("x", "y"), order)
    g = ring.monomial(lead) + ring.monomial(tail)
    h = ring.monomial((lead[0], lead[1] + 1)) - ring.one()
    with pytest.raises(ExponentOverflow):
        groebner._signature_loop(ring, [g, h], order)


@pytest.mark.parametrize("texts", [("x^60000 + y^3", "x*y^60000 + 1"), ("x^33000 - y^33000", "x*y - 1")])
def test_signatures_past_the_exponent_fields_leave_the_basis_unchanged(texts):
    """The signature loop's Koszul signatures of these reach exponents
    120000 and 66000 where no polynomial's exponent leaves its field: the
    wider layout holds them, and the loop returns the pair loop's basis.
    A plain run of binomials takes the pair loop, so the signature loop is
    called directly."""
    ring = PolyRing(7, ("x", "y"))
    gens = [ring.parse(t) for t in texts]
    assert groebner._signature_loop(ring, gens, ring.order) == groebner._pair_loop(ring, gens, ring.order)
