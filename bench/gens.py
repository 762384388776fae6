"""Seeded input generators for the benchmark workloads.

Every generator returns plain text: a polynomial system as (p, variables,
polynomial strings) or a ring-spec/1 file body.  The library only ever sees
that text, parsed during set-up.  Each family draws from its own
``random.Random`` seeded with a string, which Python hashes with SHA-512, so
the same seed gives byte-identical inputs on every platform and run.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple


class System(NamedTuple):
    """A polynomial system for ``buchberger``: generators as text."""

    name: str
    p: int
    variables: tuple[str, ...]
    polys: tuple[str, ...]


def family_rng(seed: int, family: str) -> random.Random:
    return random.Random(f"{seed}:{family}")


def _names(prefix: str, n: int, start: int = 1) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(start, start + n))


def _linear_text(coeffs, names) -> str:
    """A linear form with coefficients in [0, p), as parser-ready text."""
    parts = []
    for c, v in zip(coeffs, names):
        if c:
            parts.append(v if c == 1 else f"{c}*{v}")
    return " + ".join(parts) if parts else "0"


def _term_text(c: int, exps, names) -> str:
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e]
    if not factors:
        return str(c)
    mono = "*".join(factors)
    return mono if c == 1 else f"{c}*{mono}"


def cyclic(n: int, p: int = 32003) -> System:
    """Cyclic-n: the elementary symmetric-like cyclic sums and x1*...*xn - 1."""
    names = _names("x", n)
    polys = []
    for k in range(1, n):
        terms = ["*".join(names[(i + j) % n] for j in range(k)) for i in range(n)]
        polys.append(" + ".join(terms))
    polys.append("*".join(names) + " - 1")
    return System(f"cyclic-{n}", p, names, tuple(polys))


def katsura(n: int, p: int = 32003) -> System:
    """Katsura-n in n+1 unknowns u0..un: for m < n,
    sum_{l=-n..n} u_|l| * u_|m-l| = u_m, and u0 + 2*(u1 + ... + un) = 1."""
    names = _names("u", n + 1, start=0)

    def u(k: int) -> str | None:
        k = abs(k)
        return names[k] if k <= n else None

    polys = []
    for m in range(n):
        terms = []
        for l in range(-n, n + 1):
            a, b = u(l), u(m - l)
            if a is not None and b is not None:
                terms.append(f"{a}*{b}")
        polys.append(" + ".join(terms) + f" - {names[m]}")
    polys.append(names[0] + "".join(f" + 2*{v}" for v in names[1:]) + " - 1")
    return System(f"katsura-{n}", p, names, tuple(polys))


def random_dense(rng: random.Random, index: int, p: int, nvars: int, npolys: int, degree: int) -> System:
    """``npolys`` polynomials over F_p using every monomial of degree at most
    ``degree`` with uniform coefficients; the first top-degree coefficient
    is kept nonzero."""
    names = _names("y", nvars)
    monomials = [
        exps
        for d in range(degree, -1, -1)
        for exps in itertools.product(range(d + 1), repeat=nvars)
        if sum(exps) == d
    ]
    polys = []
    for _ in range(npolys):
        coeffs = [rng.randrange(p) for _ in monomials]
        coeffs[0] = coeffs[0] or 1
        polys.append(
            " + ".join(_term_text(c, e, names) for c, e in zip(coeffs, monomials) if c)
        )
    return System(f"dense-{index}-p{p}-n{nvars}-d{degree}", p, names, tuple(polys))


def _spec(p: int, names, lines: list[str], e_max: int | None = None) -> str:
    out = ["# ring-spec/1", f"p = {p}", "vars = " + ", ".join(names)] + lines
    if e_max is not None:
        out.append(f"e_max = {e_max}")
    return "\n".join(out) + "\n"


def generic_determinantal(n: int, p: int) -> str:
    """2 x n matrix of 2n distinct variables; relations are its 2 x 2 minors."""
    names = _names("x", 2 * n)
    return _spec(p, names, [
        "matrix_row = " + ", ".join(names[:n]),
        "matrix_row = " + ", ".join(names[n:]),
    ])


def variable_determinantal(rng: random.Random, n: int, nvars: int, p: int) -> str:
    """2 x n matrix whose entries are drawn from ``nvars`` variables, with no
    column repeated, no minor identically zero and as many distinct entries
    as the matrix can hold."""
    names = _names("x", nvars)
    while True:
        cols = [(rng.choice(names), rng.choice(names)) for _ in range(n)]
        if len(set(cols)) < n or len({v for c in cols for v in c}) < min(nvars, 2 * n):
            continue
        if any(
            sorted((a[0], b[1])) == sorted((b[0], a[1]))
            for a, b in itertools.combinations(cols, 2)
        ):
            continue
        return _spec(p, names, [
            "matrix_row = " + ", ".join(c[0] for c in cols),
            "matrix_row = " + ", ".join(c[1] for c in cols),
        ])


def line_arrangement(rng: random.Random, nvars: int, p: int, e_max: int) -> str:
    """The coordinate lines after a random linear change of coordinates:
    relations l_i*l_j (i < j) for a random basis l_1..l_n of linear forms,
    and one parameter sum c_i*l_i with every c_i nonzero."""
    names = _names("z", nvars)
    while True:
        rows = [[rng.randrange(p) for _ in range(nvars)] for _ in range(nvars)]
        if _rank_mod_p(rows, p) == nvars:
            break
    forms = [_linear_text(r, names) for r in rows]
    relations = [f"({forms[i]})*({forms[j]})" for i, j in itertools.combinations(range(nvars), 2)]
    weights = [rng.randrange(1, p) for _ in range(nvars)]
    param = [sum(w * r[k] for w, r in zip(weights, rows)) % p for k in range(nvars)]
    return _spec(p, names, [
        "relations = " + ", ".join(relations),
        "sop = " + _linear_text(param, names),
    ], e_max)


def cusp(a: int, b: int, p: int, e_max: int) -> str:
    """The plane curve y^a - x^b with the parameter x."""
    return _spec(p, ("x", "y"), [f"relations = y^{a} - x^{b}", "sop = x"], e_max)


def cusp_witness_depth(a: int, b: int, p: int, e_max: int) -> int | None:
    """First e <= e_max at which the socle y^(a-1) of R/(x) is a closure
    witness: y^(q(a-1)) lies in (x^q, y^a - x^b) iff b*floor(q(a-1)/a) >= q."""
    for e in range(1, e_max + 1):
        q = p ** e
        if b * (q * (a - 1) // a) >= q:
            return e
    return None


def _rank_mod_p(rows, p: int) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % p:
                c = m[r][col]
                m[r] = [(x - c * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def ternary_cubic(rng: random.Random, p: int) -> str:
    """A homogeneous cubic in three variables with all ten coefficients
    drawn nonzero: a cone over a plane cubic, F-pure for some draws and not
    others.  Dense draws keep the cost of one cone close to the next."""
    names = ("x", "y", "z")
    monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]
    coeffs = [rng.randrange(1, p) for _ in monomials]
    body = " + ".join(_term_text(c, e, names) for c, e in zip(coeffs, monomials) if c)
    return _spec(p, names, [f"relations = {body}"])


# The determinantal fixture shipped with froblab, with its data written out:
# 2 x 2 minors of a 2 x 4 matrix in five variables, a canonical ideal, a
# system of parameters starting inside it, and the twist f = 1.
_DET_NAMES = ("x1", "x2", "x3", "x4", "x5")
_DET_LINES = [
    "matrix_row = x1, x2, x2, x5",
    "matrix_row = x4, x4, x3, x1",
    "canonical_ideal = x1, x4, x5",
    "sop = x4 + x5, x2 - x3",
    "f = 1",
]


def permuted_determinantal(rng: random.Random, p: int, e_max: int = 2) -> str:
    """The determinantal fixture over F_p with its variables listed in a
    random order, which changes every monomial order the engine uses but
    not the ring, so every verdict stays the same."""
    names = list(_DET_NAMES)
    rng.shuffle(names)
    return _spec(p, names, list(_DET_LINES), e_max)


def reversed_vars(text: str) -> str:
    """The same ring-spec with its variable list reversed."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("vars = "):
            names = [v.strip() for v in line[len("vars = "):].split(",")]
            lines[i] = "vars = " + ", ".join(reversed(names))
    return "\n".join(lines) + "\n"
