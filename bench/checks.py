"""Answer checks, run outside the timed region.

Each check takes a job's input (as generated text) and its canonical output
and returns None when the answer is right, or a one-line reason when it is
wrong.  The references are independent of the code under test where one
exists offline: sympy's Groebner engine, the hypersurface form of Fedder's
criterion, closed-form facts about the generated rings, and the golden CLI
reports kept under tests/golden.
"""

from __future__ import annotations

import functools
import itertools
import json

SUPPORTED = "supported-by-evidence"


# ---------------------------------------------------------------------------
# sympy side: parsing generated text independently of froblab's parser


@functools.lru_cache(maxsize=None)
def _sympy():
    import sympy

    return sympy


def sympy_polys(p: int, variables, texts):
    sympy = _sympy()
    syms = sympy.symbols(list(variables))
    names = dict(zip(variables, syms))
    exprs = [sympy.parse_expr(t.replace("^", "**"), local_dict=names) for t in texts]
    return [sympy.Poly(e, *syms, modulus=p) for e in exprs], syms


def term_set(monoms_coeffs, p: int) -> frozenset:
    """A polynomial as a set of (exponent tuple, coefficient in [1, p))."""
    return frozenset((tuple(m), int(c) % p) for m, c in monoms_coeffs if int(c) % p)


def sympy_reduced_basis(p: int, variables, texts) -> frozenset:
    """The reduced (monic) grevlex basis from sympy, as a set of term sets."""
    sympy = _sympy()
    polys, syms = sympy_polys(p, variables, texts)
    basis = sympy.groebner([q.as_expr() for q in polys], *syms, modulus=p, order="grevlex")
    return frozenset(term_set(zip(g.monoms(), g.coeffs()), p) for g in basis.polys)


def basis_from_json(entry) -> frozenset:
    return frozenset(frozenset((tuple(m), c) for m, c in poly) for poly in entry)


def basis_to_json(basis: frozenset) -> list:
    return sorted(sorted([list(m), c] for m, c in poly) for poly in basis)


# ---------------------------------------------------------------------------
# checks, one per job kind


def check_basis(expected: frozenset, got: frozenset) -> str | None:
    if got == expected:
        return None
    return f"reduced basis differs from sympy ({len(got)} vs {len(expected)} polynomials)"


def hypersurface_f_pure(p: int, variables, text: str) -> bool:
    """Fedder for a hypersurface: S/(f) is F-pure iff f^(p-1) has a term
    outside the bracket power of the maximal ideal."""
    (f,), _ = sympy_polys(p, variables, [text])
    power = f ** (p - 1)
    return any(all(e < p for e in m) for m in power.monoms())


def outside_bracket(terms, p: int) -> bool:
    """True iff the polynomial with these (exponents, coeff) terms is not in
    the bracket power (x1^p, ..., xn^p), a monomial ideal."""
    return any(c and all(e < p for e in m) for m, c in terms)


def defining_polys(p: int, variables, relations, matrix):
    """The generators of A in sympy, built from the spec text: the stated
    relations, or the 2 x 2 minors of a two-row matrix."""
    if matrix:
        (top, bottom), syms = zip(*(sympy_polys(p, variables, row) for row in matrix))
        n = len(top)
        polys = [top[i] * bottom[j] - top[j] * bottom[i] for i in range(n) for j in range(i + 1, n)]
        syms = syms[0]
    else:
        polys, syms = sympy_polys(p, variables, relations)
    return [a for a in polys if not a.is_zero], syms


def check_fedder_certificate(p: int, variables, relations, matrix, certificate: str | None) -> str | None:
    """A True Fedder verdict holds when g is outside m^[p] and g*a lies in
    A^[p] for every generator a of A.  Both facts are decided by sympy."""
    if certificate is None:
        return "no colon element outside m^[p] to certify a True verdict"
    generators, syms = defining_polys(p, variables, relations, matrix)
    (g,), _ = sympy_polys(p, variables, [certificate])
    if not outside_bracket(g.terms(), p):
        return "certificate lies in m^[p]"
    bracket = _sympy().groebner([(a ** p).as_expr() for a in generators], *syms, modulus=p, order="grevlex")
    for a in generators:
        if not bracket.contains((g * a).as_expr()):
            return f"certificate times {a.as_expr()} is not in A^[p]"
    return None


def fedder_certificate(api, ring, generators) -> str | None:
    """One colon generator outside m^[p], as text, from froblab's own colon.
    It is only a candidate: check_fedder_certificate decides it with sympy."""
    A = api.Ideal(ring, tuple(generators))
    colon = A.bracket_power(1).colon(A)
    for g in colon.generators:
        if outside_bracket(((m, int(c)) for m, c in g.terms()), ring.p):
            return str(g)
    return None


def check_line_closure(report: dict, p: int, nvars: int, e_max: int) -> str | None:
    """General lines are F-pure, so the regular parameter ideal is Frobenius
    closed; R/(parameter) has Hilbert function (1, n-1), so its socle has
    dimension n-1 and the sweep tests every one of its p^(n-1)-1 nonzero
    combinations."""
    want = {
        "verdict": "CLOSED_UP_TO",
        "regular_sequence_verified": True,
        "partial": False,
        "socle_dimension": nvars - 1,
        "combinations_tested": p ** (nvars - 1) - 1,
        "e_max": e_max,
    }
    return _mismatch(report, want)


def check_cusp_closure(report: dict, p: int, a: int, b: int, depth: int) -> str | None:
    """The cusp y^a - x^b with parameter x has socle y^(a-1); its witness
    must be decisive at the depth given by the closed form, and is verified
    again with sympy."""
    problem = _mismatch(report, {"verdict": "NOT_FROBENIUS_CLOSED", "level": "decisive"})
    if problem:
        return problem
    witness = report["witness"]
    if witness["e"] != depth:
        return f"witness at e={witness['e']}, closed form says {depth}"
    sympy = _sympy()
    x, y = sympy.symbols("x y")
    s = sympy.parse_expr(witness["element"].replace("^", "**"), local_dict={"x": x, "y": y})
    q = p ** depth
    f = y ** a - x ** b
    big = sympy.groebner([x ** q, f], x, y, modulus=p, order="grevlex")
    small = sympy.groebner([x, f], x, y, modulus=p, order="grevlex")
    if not big.contains(sympy.expand(s ** q)) or small.contains(s):
        return "witness does not satisfy s^q in (x^q, f) and s outside (x, f)"
    return None


def check_criterion(report: dict, e_max: int) -> str | None:
    want = {"verdict": "NO_FAILURE_UP_TO", "witness_e": None, "e_max": e_max}
    problem = _mismatch(report, want)
    if problem:
        return problem
    sub = report["details"]
    if sub.get("socle_dimension") != 1:
        return "socle of the Artinian reduction is not one-dimensional"
    if [m["e"] for m in sub["memberships"]] != list(range(1, e_max + 1)):
        return "criterion did not test every e up to e_max"
    if any(m["member"] for m in sub["memberships"]):
        return "a membership held without a decisive verdict"
    return None


def check_pipeline(report: dict, e_max: int) -> str | None:
    want = {"ambient_f_pure": True, "quotient_f_pure": True}
    problem = _mismatch(report, want)
    if problem:
        return problem
    if report["conclusion"]["status"] != SUPPORTED:
        return f"conclusion {report['conclusion']['status']!r}, expected {SUPPORTED!r}"
    if report["closure"]["verdict"] != "CLOSED_UP_TO":
        return f"closure verdict {report['closure']['verdict']}"
    return check_criterion(report["criterion"], e_max)


def check_golden(expected_text: str, expected_code: int, got) -> str | None:
    code, out = got
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if out != expected_text:
        first = next(
            (i for i, (a, b) in enumerate(itertools.zip_longest(out, expected_text)) if a != b), -1
        )
        return f"output differs from the golden report at byte {first}"
    return None


def _mismatch(report: dict, want: dict) -> str | None:
    for key, value in want.items():
        if report.get(key) != value:
            return f"{key} = {json.dumps(report.get(key))}, expected {json.dumps(value)}"
    return None
