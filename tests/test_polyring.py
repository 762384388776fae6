"""Tests for monomial orders, parsing, and polynomial arithmetic with int
coefficients, against tuple arithmetic as the reference for packed
monomials."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from froblab import polyring
from froblab.errors import BudgetExceeded, ExponentOverflow, ParseError, RingMismatch, UnknownVariable
from froblab.groebner import _outside_bracket, _power_below_p
from froblab.polyring import (
    GREVLEX,
    LEX,
    MAX_EXPONENT,
    MonomialOrder,
    PolyRing,
    check_modulus,
)
from support import monomial_div, monomial_lcm


def test_check_modulus():
    for p in (2, 3, 5, 31, 101):
        check_modulus(p)
    for bad in (0, 1, 4, 9, 91, -3, 2**31):
        with pytest.raises(ValueError):
            check_modulus(bad)


def _sum(a, b):
    return tuple(x + y for x, y in zip(a, b))


def test_monomial_helpers():
    assert monomial_div(_sum((1, 2), (3, 0)), (3, 0)) == (1, 2)
    assert monomial_div((1, 0), (0, 1)) is None
    assert monomial_lcm((1, 2), (3, 0)) == (3, 2)


def test_grevlex_ties_break_on_last_variable():
    # same degree: the monomial with the smaller exponent on the last
    # variable wins
    key = GREVLEX.key
    assert key((1, 1, 0)) > key((1, 0, 1))
    assert key((2, 0)) > key((0, 2))
    assert key((0, 3)) > key((1, 1))  # degree first
    assert key((1, 1)) == key((1, 1))


def test_lex_versus_grevlex():
    # x > y^5 under lex, but degree rules under grevlex
    assert LEX.key((1, 0)) > LEX.key((0, 5))
    assert GREVLEX.key((1, 0)) < GREVLEX.key((0, 5))


def test_unknown_order_kinds_raise():
    """lex and grevlex are the only order kinds."""
    for kind in ("degrevlex", "elimination"):
        with pytest.raises(ValueError):
            MonomialOrder(kind)


def test_order_is_multiplicative():
    """a > b implies a*c > b*c, and 1 is minimal; checked on random triples."""
    rng = random.Random(5)
    for order in (GREVLEX, LEX):
        for _ in range(300):
            a = tuple(rng.randrange(4) for _ in range(3))
            b = tuple(rng.randrange(4) for _ in range(3))
            c = tuple(rng.randrange(4) for _ in range(3))
            ka, kb = order.key(a), order.key(b)
            kac, kbc = order.key(_sum(a, c)), order.key(_sum(b, c))
            assert (kac > kbc, kac == kbc) == (ka > kb, ka == kb)
            if any(a):
                assert order.key(a) > order.key((0, 0, 0))


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(6, ("x",))
    with pytest.raises(ValueError):
        PolyRing(3, ())
    with pytest.raises(ValueError):
        PolyRing(3, ("x", "x"))
    with pytest.raises(ValueError):
        PolyRing(3, ("2bad",))


def test_parse_and_format():
    R = PolyRing(3, ("x", "y"))
    assert str(R.parse("x^2 + 2*x*y + y^2")) == "x^2 + 2*x*y + y^2"
    assert str(R.parse("(x + y)^2")) == "x^2 + 2*x*y + y^2"
    assert str(R.parse("3*x + 1")) == "1"
    assert str(R.parse("0")) == "0"
    assert str(R.parse("-x")) == "2*x"
    assert str(R.parse("x - y")) == "x + 2*y"
    assert str(R.parse("2")) == "2"
    assert str(R.parse("x*x*x")) == "x^3"
    assert str(R.parse(" x ^ 2 ")) == "x^2"


def test_parse_errors_carry_offsets():
    R = PolyRing(3, ("x", "y"))
    with pytest.raises(ParseError) as err:
        R.parse("x + ")
    assert err.value.offset == 4
    with pytest.raises(UnknownVariable) as err:
        R.parse("x + z")
    assert err.value.name == "z"
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        R.parse("x + + y + +")
    with pytest.raises(ParseError):
        R.parse("(x + y")
    with pytest.raises(ParseError):
        R.parse("x^y")
    with pytest.raises(ExponentOverflow):
        R.parse("x^70000")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("x + $y", ParseError, "unexpected character '$' at offset 4"),
        ("x^ 2 + y ; (", ParseError, "unexpected character ';' at offset 9"),
        ("(x + y", ParseError, "expected ')' at offset 6"),
        ("2*(x + (y)^2 y)", ParseError, "expected ')' at offset 13"),
        ("x^y", ParseError, "expected exponent at offset 2"),
        ("x^ ", ParseError, "expected exponent at offset 3"),
        ("x + ", ParseError, "unexpected end of input at offset 4"),
        ("(x*", ParseError, "unexpected end of input at offset 3"),
        ("x y", ParseError, "unexpected 'y' at offset 2"),
        ("x + * y", ParseError, "unexpected '*' at offset 4"),
        ("x)", ParseError, "unexpected ')' at offset 1"),
        ("x +  z", UnknownVariable, "unknown variable 'z' at offset 5"),
        ("(y*x2)^2", UnknownVariable, "unknown variable 'x2' at offset 3"),
        ("x^70000", ExponentOverflow, "exponent 70000 exceeds 65535"),
        ("x^40000*x^40000", ExponentOverflow, "a product exponent exceeds 65535"),
        ("y*x^40000*(x + 1)^40000", ExponentOverflow, "a product exponent exceeds 65535"),
        ("(x^30000 + 1)^3", ExponentOverflow, "a product exponent exceeds 65535"),
        ("(x^30000 + 1)^9", ExponentOverflow, "a product exponent exceeds 65535"),
        ("(x + y^30000)^27", ExponentOverflow, "a product exponent exceeds 65535"),
    ],
)
def test_parse_errors_name_their_offset(text, error, message):
    with pytest.raises(error) as err:
        PolyRing(3, ("x", "y")).parse(text)
    assert type(err.value) is error and str(err.value) == message


def test_parse_charges_the_term_products_of_one_text_against_its_budget(monkeypatch):
    """Each product the parser forms is charged len(a) * len(b) term
    products before it is formed, summed over the whole text.
    (x + y)^4 squares 2 and then 3 terms (4 + 9), multiplies the 5 terms
    of (x + y)^4 into the power's start 1 and then into the term's 1
    (5 + 5): 23 in all.  Polynomial.__pow__ is not charged."""
    R = PolyRing(32003, ("x", "y"))
    monkeypatch.setattr(polyring, "_PARSE_BUDGET", 23)
    assert R.parse("(x + y)^4") == R.parse("x + y") ** 4
    assert R.parse("(x + y)*(x - y)") == R.parse("x^2 - y^2")  # 2 + 4
    with pytest.raises(BudgetExceeded):
        R.parse("(x + y)^4 + (x - y)")
    monkeypatch.setattr(polyring, "_PARSE_BUDGET", 22)
    with pytest.raises(BudgetExceeded):
        R.parse("(x + y)^4")
    monkeypatch.setattr(polyring, "_PARSE_BUDGET", 0)
    assert len((R.parse("x + y") ** 40).terms()) == 41


def test_powers_from_p_on_take_the_base_p_digits_of_the_exponent(monkeypatch):
    """From n = p on, a power is the product of (f^d_i)^(p^i) over the
    base-p digits d_i of n, each raised to p^i by scaling its monomials: the
    same term dict as square-and-multiply (tests/support.py) on random
    polynomials.  (x + 1)^40000 over F_3 (digits 1112120002 from the lowest)
    charges 691 term products, where square-and-multiply charged 4 554 171,
    and a scaled exponent past its field raises the product's overflow."""
    rng = random.Random(40000)
    for p in (2, 3, 5, 7):
        R = PolyRing(p, ("x", "y", "z"))
        guard = R.packing.guard
        for _ in range(20):
            f = support.random_poly(rng, R, 2, 3)
            n = rng.randrange(60)
            want = support.square_and_multiply_power(f._terms, n, lambda a, b: polyring._product(a, b, p, guard))
            assert f ** n == R._poly(want)

    R = PolyRing(3, ("x", "y"))
    guard = R.packing.guard
    charged = []

    def recorded(a, b):
        charged.append(len(a) * len(b))
        return polyring._product(a, b, 3, guard)

    f = R.parse("x + 1")
    power = R._poly(polyring._power(f._terms, 40000, R, recorded))
    assert sum(charged) == 691
    charged.clear()
    assert power == R._poly(support.square_and_multiply_power(f._terms, 40000, recorded))
    assert sum(charged) == 4_554_171 and len(power.terms()) == 432
    # the parser adds the 432 products of the power into the term's start 1
    monkeypatch.setattr(polyring, "_PARSE_BUDGET", 691 + 432)
    assert R.parse("(x + 1)^40000") == power
    monkeypatch.setattr(polyring, "_PARSE_BUDGET", 691 + 431)
    with pytest.raises(BudgetExceeded):
        R.parse("(x + 1)^40000")
    with pytest.raises(ExponentOverflow, match="^a product exponent exceeds 65535$"):
        R.parse("x^30000 + 1") ** 3


def test_a_zero_factor_ends_a_term_before_its_exponents_add():
    """A zero polynomial times anything is zero, so a factor that is 0
    modulo p stops the later factors' exponents from adding up, as in
    Polynomial arithmetic."""
    R = PolyRing(3, ("x", "y"))
    assert R.parse("3*x^40000*x^40000 + y") == R.parse("y")
    assert R.parse("x^40000*6*x^40000*y") == R.zero()
    assert R.parse("x^40000*(x - x)*x^40000") == R.zero()
    assert R.parse("0^0 + 3^0 + (x - x)^0") == R.constant(3)


def _random_expression(rng, ring, depth=0):
    """(text, value) of a random expression tree: a signed sum of products
    of constants (some at least p), variables, powers and parenthesised
    sums, rendered with random spacing, and its value by Polynomial
    arithmetic."""

    def space():
        return rng.choice(("", "", " ", "  "))

    def atom():
        roll = rng.random()
        if roll < 0.2 and depth < 3:
            text, value = _random_expression(rng, ring, depth + 1)
            return f"({text})", value, rng.randrange(4)
        if roll < 0.5:
            c = rng.choice((0, 1, 2, ring.p - 1, ring.p, ring.p + 1, 10 * ring.p + 3, 10**20 + 1))
            return str(c), ring.constant(c), rng.randrange(5)
        name = rng.choice(ring.variables)
        return name, ring.variable(name), rng.randrange(9)

    def factor():
        text, value, n = atom()
        if rng.random() < 0.4:
            return f"{text}{space()}^{space()}{n}", value ** n
        return text, value

    def term():
        text, value = factor()
        for _ in range(rng.randrange(4)):
            more, other = factor()
            text, value = f"{text}{space()}*{space()}{more}", value * other
        return text, value

    sign = rng.choice(("", "", "+", "-"))
    text, value = term()
    text, value = f"{sign}{space()}{text}", -value if sign == "-" else value
    for _ in range(rng.randrange(4)):
        op = rng.choice("+-")
        more, other = term()
        text, value = f"{text}{space()}{op}{space()}{more}", value + other if op == "+" else value - other
    return text, value


@pytest.mark.parametrize("p", [2, 3, 7, 65537])
def test_parse_matches_polynomial_arithmetic_on_random_expressions(p):
    rng = random.Random(p)
    for names in (("x",), ("x", "y", "z"), ("x1", "x2", "y_3", "w")):
        ring = PolyRing(p, names)
        for _ in range(150):
            text, value = _random_expression(rng, ring)
            assert ring.parse(text) == value, text


def test_parse_format_roundtrip():
    """str(parse(str(g))) is the identity on random polynomials."""
    rng = random.Random(23)
    R = PolyRing(5, ("x", "y", "z"))
    for _ in range(100):
        g = R.zero()
        for _ in range(rng.randrange(1, 6)):
            m = tuple(rng.randrange(4) for _ in range(3))
            g = g + R.monomial(m, rng.randrange(1, 5))
        assert R.parse(str(g)) == g


def test_arithmetic_against_reference():
    R = PolyRing(3, ("x", "y"))
    x, y = R.parse("x"), R.parse("y")
    assert (x + y) * (x - y) == R.parse("x^2 - y^2")
    assert (x + y) ** 3 == R.parse("x^3 + y^3")  # freshman's dream at p = 3
    assert x * R.zero() == R.zero()
    assert (x + y) - (x + y) == R.zero()
    assert 2 * x == x + x


def test_ring_mismatch_rejected():
    A = PolyRing(3, ("x",))
    B = PolyRing(5, ("x",))
    with pytest.raises(RingMismatch):
        A.parse("x") + B.parse("x")


def test_mul_overflow_guard():
    R = PolyRing(3, ("x",))
    g = R.monomial((40000,))
    with pytest.raises(ExponentOverflow):
        g * g
    with pytest.raises(ExponentOverflow):
        R.monomial((70000,))


def test_frobenius_pow_matches_repeated_multiplication():
    """The exponent-scaling shortcut agrees with plain powers."""
    rng = random.Random(7)
    for p in (3, 5):
        R = PolyRing(p, ("x", "y"))
        for _ in range(25):
            g = R.zero()
            for _ in range(rng.randrange(1, 4)):
                m = (rng.randrange(3), rng.randrange(3))
                g = g + R.monomial(m, rng.randrange(1, p))
            assert g.frobenius_pow(1) == g ** p
            assert g.frobenius_pow(2) == g ** (p * p)
    assert R.parse("x + y").frobenius_pow(0) == R.parse("x + y")


def test_leading_data_and_monic():
    R = PolyRing(5, ("x", "y"))
    g = R.parse("3*x^2 + x*y + 4")
    assert g.leading_monomial() == (2, 0)
    lead = g.leading_term()[1]
    assert str(g * pow(lead, -1, 5)) == "x^2 + 2*x*y + 3"
    assert g.leading_monomial(LEX) == (2, 0)
    assert R.zero().leading_term() is None
    assert g.total_degree() == 2
    assert R.zero().total_degree() == -1
    assert g.constant_coefficient() == 4


def test_mapped_to_renames_by_variable_name():
    R = PolyRing(3, ("x", "y"))
    S = PolyRing(3, ("y", "x", "z"))
    g = R.parse("x^2 + y")
    assert str(g.mapped_to(S)) == str(S.parse("x^2 + y"))
    T = PolyRing(3, ("x",))
    with pytest.raises(UnknownVariable):
        g.mapped_to(T)


def test_polynomials_hash_and_compare():
    R = PolyRing(3, ("x", "y"))
    a = R.parse("x + y")
    b = R.parse("y + x")
    assert a == b and hash(a) == hash(b)
    assert len({a, b, R.parse("x")}) == 2
    assert a != R.parse("x")
    assert a != "x + y"


def test_support_variables():
    R = PolyRing(3, ("x", "y", "z"))
    assert R.parse("x^2 + x*y").support_variables() == {"x", "y"}
    assert R.parse("1").support_variables() == set()


def test_coefficients_are_plain_ints_in_range():
    """Coefficients leave the API as ints in [0, p) that equal plain ints."""
    p = 7
    R = PolyRing(p, ("x", "y"))
    g = R.parse("3*x^2 - x*y + 8")
    assert g.terms() == [((2, 0), 3), ((1, 1), 6), ((0, 0), 1)]
    assert g.leading_term() == ((2, 0), 3)
    assert g.constant_coefficient() == 1
    assert R.parse("x").constant_coefficient() == 0
    rng = random.Random(19)
    for _ in range(50):
        h = R.zero()
        for _ in range(rng.randrange(1, 5)):
            h = h + R.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(-20, 20))
        coefficients = [c for _, c in h.terms()] + [h.constant_coefficient()]
        if not h.is_zero:
            coefficients.append(h.leading_term()[1])
        for c in coefficients:
            assert type(c) is int and 0 <= c < p


def test_int_multiplication_reduces_mod_p():
    R = PolyRing(7, ("x",))
    g = R.parse("x + 1")
    for c in (-1, -8, 7, 10, 3 + 7 * 1000):
        assert g * c == R.parse(f"{c % 7}*x + {c % 7}")
        assert c * g == g * c
    assert g * 14 == R.zero() and g * -7 == R.zero()
    for bad in (1.5, "3", (3, 5), None):
        with pytest.raises(TypeError):
            g * bad


# -- packed polynomials against tuple arithmetic ----------------------------------


@st.composite
def ring_and_terms(draw):
    """A ring of 1-8 variables over p in {2, 3, 5, 32003}, in grevlex or
    lex, and three term dicts over it; exponents near the top of their
    fields make products and Frobenius powers overflow now and then."""
    nvars = draw(st.integers(1, 8))
    p = draw(st.sampled_from((2, 3, 5, 32003)))
    ring = PolyRing(p, tuple(f"x{i}" for i in range(1, nvars + 1)), draw(st.sampled_from((GREVLEX, LEX))))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT))
    monomials = st.tuples(*[exponent] * nvars)
    terms = [draw(st.dictionaries(monomials, st.integers(1, p - 1), max_size=4)) for _ in range(3)]
    return ring, terms


def _same_or_both_raise(packed, reference, error=ExponentOverflow):
    """packed() and reference() raise ``error`` alike, or packed().terms()
    lists reference()'s term dict in descending ring order."""
    try:
        want = reference()
    except error:
        with pytest.raises(error):
            packed()
        return
    got = packed()
    key = got.ring.order.key
    assert got.terms() == sorted(want.items(), key=lambda t: key(t[0]), reverse=True)


@given(ring_and_terms())
def test_every_polynomial_operation_matches_tuple_arithmetic(case):
    ring, (a, b, c) = case
    p, n = ring.p, ring.nvars
    f, g, h = (support.from_tuple_terms(ring, t) for t in (a, b, c))
    _same_or_both_raise(lambda: f, lambda: a)
    _same_or_both_raise(lambda: f + g, lambda: support.tuple_add(a, b, p))
    _same_or_both_raise(lambda: f - g, lambda: support.tuple_add(a, support.tuple_neg(b, p), p))
    _same_or_both_raise(lambda: f * g, lambda: support.tuple_mul(a, b, p, n))
    _same_or_both_raise(lambda: f * g + h, lambda: support.tuple_add(support.tuple_mul(a, b, p, n), c, p))
    for k in range(4):
        def power(k=k):
            out = {(0,) * n: 1}
            for _ in range(k):
                out = support.tuple_mul(out, a, p, n)
            return out
        _same_or_both_raise(lambda: f ** k, power)
    for e in range(3):
        _same_or_both_raise(lambda: f.frobenius_pow(e), lambda: support.tuple_frobenius_pow(a, e, p))
    names = ring.variables
    for target in (names[::-1] + ("w",), names[1:] + ("w",)):
        other = PolyRing(p, target, ring.order)
        _same_or_both_raise(
            lambda: f.mapped_to(other), lambda: support.tuple_mapped_to(a, names, target), UnknownVariable)
    assert f.total_degree() == max(map(sum, a), default=-1)
    assert f.is_homogeneous() == (len(set(map(sum, a))) <= 1)
    assert f.support_variables() == {name for m in a for name, e in zip(names, m) if e}
    assert f.constant_coefficient() == a.get((0,) * n, 0)
    for order in (GREVLEX, LEX):
        lead = max(a, key=order.key, default=None)
        assert f.leading_term(order) == (None if lead is None else (lead, a[lead]))
    text = str(f)
    assert ring.parse(text) == f and str(ring.parse(text)) == text


@pytest.mark.parametrize("nvars", [1, 8])
@pytest.mark.parametrize("where", ["first", "last"])
def test_packed_overflow_boundaries(nvars, where):
    """A product or Frobenius power whose largest exponent is 65535 returns,
    one at 65536 raises: in the first and in the last variable, with every
    other variable present so that a carry into a neighbouring field would
    show, at one variable (the narrowest grevlex degree field) and at
    eight."""
    names = tuple(f"x{i}" for i in range(1, nvars + 1))
    i = 0 if where == "first" else nvars - 1

    def f(ring, e):
        exps = [1] * nvars
        exps[i] = e
        return ring.monomial(exps) + ring.one()

    for order in (GREVLEX, LEX):
        for p, below, above in ((3, 21845, None), (2, None, 32768)):
            ring = PolyRing(p, names, order)
            a, b = support.tuple_terms(f(ring, 65534)), support.tuple_terms(f(ring, 1))
            product = f(ring, 65534) * f(ring, 1)
            assert support.tuple_terms(product) == support.tuple_mul(a, b, p, nvars)
            assert max(m[i] for m, _ in product.terms()) == MAX_EXPONENT
            with pytest.raises(ExponentOverflow):
                f(ring, 65535) * f(ring, 1)
            if below is not None:
                image = f(ring, below).frobenius_pow(1)
                assert support.tuple_terms(image) == support.tuple_frobenius_pow(
                    support.tuple_terms(f(ring, below)), 1, p)
                assert max(m[i] for m, _ in image.terms()) == MAX_EXPONENT
            if above is not None:
                with pytest.raises(ExponentOverflow):
                    f(ring, above).frobenius_pow(1)
    # above p = 2^16 the truncated power keeps an exponent of 65535 and
    # raises at 65536, where the exponent does not fit
    ring = PolyRing(65537, names)
    x = ring.monomial([1 if j == i else 0 for j in range(nvars)])
    assert _power_below_p(x ** 21845, 3) == x ** MAX_EXPONENT
    with pytest.raises(ExponentOverflow):
        _power_below_p(x ** 32768, 2)


@pytest.mark.parametrize("p", [3, 65521, 65537])
def test_outside_bracket_matches_the_exponent_rule(p):
    """f lies outside m^[p] iff some term has every exponent below p: the
    packed test against the exponent tuples, on random polynomials whose
    exponents sit on both sides of p, or up to 65535 when p is above it."""
    rng = random.Random(p)
    for nvars in (1, 3, 8):
        ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
        near = (0, 1, p - 1, p, p + 1) if p < MAX_EXPONENT else (0, 1, 2, MAX_EXPONENT - 1, MAX_EXPONENT)
        for _ in range(200):
            f = ring.zero()
            for _ in range(rng.randrange(4)):
                f = f + ring.monomial([rng.choice(near) for _ in range(nvars)], rng.randrange(1, p))
            assert _outside_bracket(f) == any(max(m) < p for m, _ in f.terms())
