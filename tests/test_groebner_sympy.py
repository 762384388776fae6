"""The Buchberger engine checked against sympy's, an independent route that
works offline: reduced bases in grevlex and lex, bases bounded by a degree,
the parts of ideals free of some variables, and normal forms must all
agree, and sympy confirms Fedder certificates from both routes: a
product-power candidate and an element of the colon, and the memberships
that graded bracket powers decide without a basis of their own.

sympy's lex Buchberger needs 20-40 s on cyclic-5 and katsura-4, so the lex
basis of katsura-4 comes from sympy's grevlex basis by FGLM, and cyclic-5 is
compared in grevlex only.
"""

import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

sympy = pytest.importorskip("sympy")

import froblab  # noqa: E402
import support  # noqa: E402
from froblab.fsing import _fedder_certificate  # noqa: E402
from froblab import groebner, ideals  # noqa: E402
from froblab.groebner import buchberger, groebner_basis_of  # noqa: E402
from froblab.ideals import Ideal  # noqa: E402
from froblab.linalg import Echelon  # noqa: E402
from froblab.polyring import GREVLEX, LEX, PolyRing  # noqa: E402
from froblab.quotients import _bracket_kernel  # noqa: E402
from froblab.specfile import load_ring_spec  # noqa: E402

ORDERS = {"grevlex": GREVLEX, "lex": LEX}
PRIMES = (3, 5, 7, 13, 32003)


def random_system(rng, ring, count, degree, terms):
    """``count`` polynomials, each with up to ``terms`` random terms of
    degree at most ``degree``."""
    polys = []
    while len(polys) < count:
        g = ring.zero()
        for _ in range(terms):
            exps = [0] * ring.nvars
            for _ in range(rng.randrange(degree + 1)):
                exps[rng.randrange(ring.nvars)] += 1
            g = g + ring.monomial(exps, rng.randrange(1, ring.p))
        if not g.is_zero:
            polys.append(g)
    return polys


def to_sympy(poly, syms):
    return sympy.Poly.from_dict(dict(poly.terms()), *syms, modulus=poly.ring.p).as_expr()


def term_set(poly, p):
    """A sympy Poly as a set of (exponent tuple, coefficient in [1, p))."""
    return frozenset((m, int(c) % p) for m, c in zip(poly.monoms(), poly.coeffs()) if int(c) % p)


def froblab_set(polys):
    return frozenset(frozenset(g.terms()) for g in polys)


def sympy_basis(polys, syms, p, order):
    basis = sympy.groebner([to_sympy(g, syms) for g in polys], *syms, modulus=p, order=order)
    return basis, frozenset(term_set(g, p) for g in basis.polys)


@pytest.mark.parametrize("system", [support.cyclic(5), support.katsura(4)], ids=["cyclic-5", "katsura-4"])
def test_standard_systems_match_sympy_in_grevlex(system):
    names, texts = system
    ring = PolyRing(32003, names)
    gens = [ring.parse(t) for t in texts]
    syms = sympy.symbols(names)
    _, expected = sympy_basis(gens, syms, ring.p, "grevlex")
    assert froblab_set(buchberger(gens).polys) == expected


def test_katsura_4_matches_sympy_in_lex():
    names, texts = support.katsura(4)
    ring = PolyRing(32003, names, LEX)
    gens = [ring.parse(t) for t in texts]
    syms = sympy.symbols(names)
    grevlex, _ = sympy_basis(gens, syms, ring.p, "grevlex")
    expected = frozenset(term_set(g, ring.p) for g in grevlex.fglm("lex").polys)
    assert froblab_set(buchberger(gens).polys) == expected


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("p", PRIMES)
def test_random_dense_systems_match_sympy(p, order):
    rng = random.Random(f"dense:{p}:{order}")
    ring = PolyRing(p, ("x", "y", "z"), ORDERS[order])
    syms = sympy.symbols(ring.variables)
    for _ in range(3):
        gens = random_system(rng, ring, 3, 2, 6)
        _, expected = sympy_basis(gens, syms, p, order)
        assert froblab_set(buchberger(gens).polys) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_eliminate_matches_the_variable_free_part_of_sympy_lex(p):
    """``Ideal.eliminate`` and the elements of sympy's lex basis, with the
    dropped variables listed first, that are free of them generate the same
    ideal; both sides are compared as sympy's reduced grevlex bases in the
    kept variables.  The dropped variables are a prefix of the ring's or
    not, and the ring's own order is grevlex or lex."""
    rng = random.Random(f"eliminate:{p}")
    cases = [
        (GREVLEX, ("a",)), (GREVLEX, ("a", "b")), (GREVLEX, ("a", "x")),
        (LEX, ("a", "b")), (LEX, ("b", "y")),
    ]
    for order, drop in cases:
        ring = PolyRing(p, ("a", "b", "x", "y"), order)
        syms = sympy.symbols(ring.variables)
        dropped = [s for s in syms if s.name in drop]
        kept = [s for s in syms if s.name not in drop]

        def reduced(exprs):
            return sympy.groebner(exprs, *kept, modulus=p, order="grevlex").exprs if exprs else []

        gens = random_system(rng, ring, 3, 2, 4)
        lex = sympy.groebner([to_sympy(g, syms) for g in gens], *dropped, *kept, modulus=p, order="lex")
        free = [g for g in lex.exprs if not g.free_symbols & set(dropped)]
        ours = Ideal(ring, gens).eliminate(drop).generators
        assert reduced([to_sympy(g, syms) for g in ours]) == reduced(free)


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("p", PRIMES)
def test_normal_form_matches_sympy_remainder(p, order):
    rng = random.Random(f"nf:{p}:{order}")
    ring = PolyRing(p, ("x", "y", "z"), ORDERS[order])
    syms = sympy.symbols(ring.variables)
    gens = random_system(rng, ring, 2, 2, 4)
    gb = buchberger(gens)
    basis, _ = sympy_basis(gens, syms, p, order)
    for f in random_system(rng, ring, 5, 4, 6):
        _, remainder = basis.reduce(to_sympy(f, syms))
        expected = term_set(sympy.Poly(remainder, *syms, modulus=p), p)
        assert frozenset(gb.normal_form(f).terms()) == expected


def _lines_and_parameter(n, p):
    """n lines through the origin of F_p^n in random coordinates and a
    random linear parameter."""
    rng = random.Random(f"seeded:{n}")
    ring = PolyRing(p, tuple(f"z{i}" for i in range(1, n + 1)))
    v = [ring.variable(a) for a in ring.variables]
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if sympy.Matrix(rows).det() % p:
            break
    forms = [sum((x * c for x, c in zip(v, row)), ring.zero()) for row in rows]
    lines = Ideal(ring, tuple(a * b for a, b in itertools.combinations(forms, 2)))
    return lines, sum((x * rng.randrange(1, p) for x in v), ring.zero())


def _cusp_and_parameter(p):
    ring = PolyRing(p, ("x", "y"))
    return Ideal(ring, (ring.parse("y^2 - x^3"),)), ring.parse("x")


@pytest.mark.parametrize("case", ("lines-5", "lines-6", "quadrics-3", "quadrics-4"))
@pytest.mark.parametrize("p", (3, 5, 32003))
def test_pair_loop_matches_sympy_on_more_generators_than_variables(monkeypatch, case, p):
    """The pair loop, which a generator enters reduced against the ones
    before it when one of their leads divides its own, on the defining
    quadrics of five and six lines and on random quadric systems of n + 1
    to n + 3 generators in n variables, homogeneous or not: the reduced
    basis equals sympy's in grevlex.  The line quadrics and the homogeneous
    systems enter in reduced echelon form, the others as they are."""
    echelons = []
    monkeypatch.setattr(groebner, "_echelon_by_degree", support.recorded_echelons(echelons))
    if case.startswith("lines"):
        lines, _ = _lines_and_parameter(int(case[-1]), p)
        ring, systems = lines.ring, [list(lines.generators)]
    else:
        rng = random.Random(f"quadrics:{case}:{p}")
        n = int(case[-1])
        ring = PolyRing(p, tuple(f"x{i}" for i in range(1, n + 1)))
        systems = [random_system(rng, ring, n + k, 2, 4) for k in (1, 2, 3)]
        systems += [random_forms(rng, ring, n + k, (2,), 4) for k in (1, 2, 3)]
    syms = sympy.symbols(ring.variables)
    for gens in systems:
        _, expected = sympy_basis(gens, syms, p, "grevlex")
        assert froblab_set(groebner._pair_loop(ring, gens, GREVLEX).polys) == expected
    assert echelons == [gens for gens in systems if all(g.is_homogeneous() for g in gens)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(support.homogeneous_systems())
def test_echelon_entry_matches_sympy_on_homogeneous_systems(case):
    """The pair loop on homogeneous generators of mixed degrees, repeated
    and rank-deficient ones, and binomial lists, which skip the echelon
    step, in grevlex and lex at p in {2, 3, 7, 32003}: the reduced basis
    equals sympy's."""
    ring, gens = case
    _, expected = sympy_basis(gens, sympy.symbols(ring.variables), ring.p, ring.order.kind)
    assert froblab_set(groebner._pair_loop(ring, gens, ring.order).polys) == expected


@pytest.mark.parametrize("case", ("lines-3", "lines-4", "cusp"))
def test_seeded_closure_targets_match_sympy(case):
    """Targets shaped like the closure test's, defining + (l^25) at p = 5,
    built from the cached basis of the defining ideal."""
    p = 5
    defining, param = _cusp_and_parameter(p) if case == "cusp" else _lines_and_parameter(int(case[-1]), p)
    defining.groebner_basis()
    target = defining + Ideal(defining.ring, (param,)).bracket_power(2)
    syms = sympy.symbols(defining.ring.variables)
    _, expected = sympy_basis(target.generators, syms, p, "grevlex")
    assert froblab_set(target.groebner_basis().polys) == expected


@pytest.mark.parametrize("case, p", [("lines-3", 3), ("lines-4", 3), ("cone", 3), ("lines-3", 5), ("cone", 5)])
def test_graded_bracket_kernels_match_sympy_membership(monkeypatch, case, p):
    """_bracket_kernel on graded targets base + (y^q) whose columns have
    degree at most q = p and p^2, the graded route, which makes no Groebner
    run once base has its basis: a combination of the columns lies in
    sympy's groebner(base + powers) exactly when its coefficients lie in
    the span of the returned kernel.  The columns are the q-th power of a random
    linear form, a member y^q + g*h with g in base, and a random form of
    degree q - 1 or q."""
    rng = random.Random(f"bracket:{case}:{p}")
    if case == "cone":
        ring = PolyRing(p, ("x", "y", "z"))
        base, parameter = Ideal(ring, (ring.parse("z^2 - x*y"),)), Ideal(ring, (ring.parse("x"), ring.parse("y")))
    else:
        base, param = _lines_and_parameter(int(case[-1]), p)
        ring, parameter = base.ring, Ideal(base.ring, (param,))
    syms = sympy.symbols(ring.variables)
    for e in (1, 2):
        q = p ** e
        power = parameter.bracket_power(e)
        target = base + power
        g = base.generators[0]
        h = random_forms(rng, ring, 1, (q - g.total_degree(),), 3)[0]
        columns = [
            random_forms(rng, ring, 1, (1,), 3)[0].frobenius_pow(e),
            parameter.generators[0].frobenius_pow(e) + g * h,
            random_forms(rng, ring, 1, (q - 1, q), 4)[0],
        ]
        base.groebner_basis(GREVLEX)
        runs, run = [], ideals.groebner_basis_of
        monkeypatch.setattr(ideals, "groebner_basis_of", lambda *a, **k: runs.append(a) or run(*a, **k))
        span = Echelon(p)
        for row in _bracket_kernel(base, power, columns)[0]:
            span.add(row)
        monkeypatch.undo()
        assert not runs
        expected, _ = sympy_basis(target.generators, syms, p, "grevlex")
        for c in itertools.product(range(p), repeat=len(columns)):
            combination = sum((f * k for f, k in zip(columns, c)), ring.zero())
            member = combination.is_zero or expected.reduce(to_sympy(combination, syms))[1] == 0
            assert span.contains(list(c)) == member, (c, e)


def random_forms(rng, ring, count, degrees, terms):
    """``count`` nonzero homogeneous polynomials, each of a degree drawn
    from ``degrees`` with up to ``terms`` random terms."""
    polys = []
    while len(polys) < count:
        d = rng.choice(degrees)
        g = ring.zero()
        for _ in range(terms):
            exps = [0] * ring.nvars
            for _ in range(d):
                exps[rng.randrange(ring.nvars)] += 1
            g = g + ring.monomial(exps, rng.randrange(1, ring.p))
        if not g.is_zero:
            polys.append(g)
    return polys


def _determinantal_fixture():
    spec = load_ring_spec(str(Path(froblab.__file__).parent / "fixtures" / "determinantal_f3.ring"))
    return Ideal(spec.ring(), tuple(spec.relation_polys(spec.ring())))


def _complete_intersection():
    ring = PolyRing(3, ("x", "y", "z", "w", "u"))
    return Ideal(ring, (ring.parse("x*y + z*w + u^2"), ring.parse("x*z - y*w")))


def _product_powers(A):
    """(f_i1...f_ic)^(p-1) for every c-subset of the generators, c the
    height of A: the candidates Fedder's test tries before the colon."""
    ring = A.ring
    height = ring.nvars - A.krull_dimension()
    return {
        math.prod(subset, start=ring.one()) ** (ring.p - 1)
        for subset in itertools.combinations(A.generators, height)
    }


@pytest.mark.parametrize(
    "make, route",
    [
        (lambda: support.generic_minors(3, 3), "candidate"),
        (lambda: support.generic_minors(3, 5), "candidate"),
        (_determinantal_fixture, "colon"),
        (_complete_intersection, "candidate"),
        (support.candidate_miss, "colon"),
    ],
    ids=["generic-2x3-p3", "generic-2x3-p5", "determinantal-fixture", "complete-intersection-c2", "candidate-miss"],
)
def test_fedder_certificate_confirmed_by_sympy(make, route):
    """The certificate that ends Fedder's test multiplies every generator of
    A into A^[p] and lies outside m^[p], both decided by sympy's reduce.  It
    is a product-power candidate, or, when every candidate misses, an
    element of the colon."""
    A = make()
    ring, p = A.ring, A.ring.p
    h = _fedder_certificate(A)
    assert h is not None
    assert (h in _product_powers(A)) == (route == "candidate")
    syms = sympy.symbols(ring.variables)
    bracket, _ = sympy_basis([g.frobenius_pow(1) for g in A.generators], syms, p, "grevlex")
    for g in A.generators:
        assert bracket.reduce(to_sympy(h * g, syms))[1] == 0
    maximal = sympy.groebner([s ** p for s in syms], *syms, modulus=p, order="grevlex")
    assert maximal.reduce(to_sympy(h, syms))[1] != 0
