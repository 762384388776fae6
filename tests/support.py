"""Shared helpers for the test suite: random element generators and an
independent linear-algebra computation of the socle of (R + I*t)/(J*(R + I*t)).

The socle routine here deliberately avoids the package's socle and transfer
code paths: it builds the module presentation R/J (+) (I/JI)*t directly,
assembles the annihilation conditions as one matrix over F_p, and runs its
own Gaussian elimination.
"""

from dataclasses import dataclass

from froblab.ideals import Ideal
from froblab.polyring import PolyRing, Polynomial
from froblab.specfile import matrix_minors


def random_monomial(rng, nvars, max_degree):
    degree = rng.randrange(max_degree + 1)
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_poly(rng, ring, max_degree=3, terms=3):
    """Random polynomial with up to ``terms`` monomials of degree <= max_degree."""
    out = dict()
    for _ in range(terms):
        m = random_monomial(rng, len(ring.variables), max_degree)
        out[m] = (out.get(m, 0) + rng.randrange(1, ring.p)) % ring.p
    poly = ring.zero()
    for m, c in out.items():
        if c:
            poly = poly + ring.monomial(m) * c
    return poly


def generic_minors(n, p):
    """The ideal of 2 x 2 minors of the generic 2 x n matrix over F_p, whose
    entries are the variables x1..x(2n), row by row."""
    names = tuple(f"x{i}" for i in range(1, 2 * n + 1))
    ring = PolyRing(p, names)
    entries = [ring.variable(v) for v in names]
    return Ideal(ring, tuple(matrix_minors((tuple(entries[:n]), tuple(entries[n:])))))


def full_colon_f_pure(A):
    """Fedder's test by the whole colon (A^[p] : A) and the below-p test on
    its generators: the route fedder_f_pure took before it stopped at the
    first certificate, kept as a reference."""
    p = A.ring.p
    colon = A.bracket_power(1).colon(A)
    return any(all(e < p for e in m) for g in colon.generators for m in g._terms)


def nonzero_random_poly(rng, ring, max_degree=3, terms=3):
    while True:
        g = random_poly(rng, ring, max_degree, terms)
        if not g.is_zero:
            return g


def plain_nullspace(rows, ncols, p):
    """Nullspace basis of the row list over F_p by dense Gaussian elimination."""
    matrix = [list(row) for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(matrix)):
            if matrix[r][col] % p:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        inv = pow(matrix[rank][col], p - 2, p)
        matrix[rank] = [(v * inv) % p for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] % p:
                factor = matrix[r][col]
                matrix[r] = [(a - factor * b) % p for a, b in zip(matrix[r], matrix[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-matrix[r][fc]) % p
        basis.append(vec)
    return basis


@dataclass
class CoverSocle:
    """Socle of (R + I*t)/(J + J*I*t) as pairs (ring part, t part)."""

    dimension: int
    elements: list  # list of (Polynomial, Polynomial) pairs

    def spanned_by_t_element(self, u_normal_form: Polynomial) -> bool:
        """True when the socle is one line, with zero ring part and t part a
        nonzero scalar multiple of the given element."""
        if self.dimension != 1:
            return False
        a_part, b_part = self.elements[0]
        if not a_part.is_zero or b_part.is_zero:
            return False
        p = b_part.ring.p
        return any(b_part == u_normal_form * lam for lam in range(1, p))


def cover_socle(ring, defining, coefficient, parameters, twist):
    """Compute the socle of the cover modulo its parameter extension.

    Elements are pairs (a, b) with a in R/(J + defining) and b*t with b in
    I/(J*I + defining); the maximal ideal of the cover is generated by the
    variables together with g*t for the generators g of I, so (a, b) is socle
    iff for every variable v and generator g:
        v*a in J,  v*b in J*I,  g*b*twist in J,  g*a in J*I
    all read modulo the defining ideal.
    """
    p = ring.p
    mod_J = defining + parameters
    mod_JI = defining + parameters.product(coefficient)

    a_basis = mod_J.standard_monomials()
    a_polys = [ring.monomial(m) for m in a_basis]

    # t part: I/(J*I) is spanned over F_p by s*g with s running over the
    # standard monomials of R/(J + defining); keep a maximal independent
    # subset of their normal forms.
    candidates = []
    for g in coefficient.generators:
        for s in a_polys:
            w = mod_JI.normal_form(s * g)
            if not w.is_zero:
                candidates.append(w)
    b_polys = []
    reducers = []

    def vector(poly, index):
        vec = [0] * len(index)
        for m, c in poly.terms():
            vec[index[m]] = int(c)
        return vec

    support = sorted({m for w in candidates for m, _ in w.terms()}, key=ring.order.key)
    index = {m: i for i, m in enumerate(support)}
    for w in candidates:
        vec = vector(w, index)
        for pivot, row in reducers:
            if vec[pivot]:
                factor = vec[pivot]
                vec = [(a - factor * b) % p for a, b in zip(vec, row)]
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is None:
            continue
        inv = pow(vec[lead], p - 2, p)
        reducers.append((lead, [(v * inv) % p for v in vec]))
        b_polys.append(w)

    na, nb = len(a_polys), len(b_polys)
    rows = []

    def emit_conditions(images, offset):
        """One condition block: the linear map sending unknown j to images[j]
        must vanish; one matrix row per monomial seen across the images."""
        seen = sorted({m for img in images for m, _ in img.terms()}, key=ring.order.key)
        where = {m: i for i, m in enumerate(seen)}
        block = [[0] * (na + nb) for _ in seen]
        for j, img in enumerate(images):
            for m, c in img.terms():
                block[where[m]][offset + j] = int(c)
        rows.extend(block)

    variables = [ring.variable(v) for v in ring.variables]
    for v in variables:
        emit_conditions([mod_J.normal_form(v * s) for s in a_polys], 0)
        emit_conditions([mod_JI.normal_form(v * w) for w in b_polys], na)
    for g in coefficient.generators:
        emit_conditions([mod_JI.normal_form(g * s) for s in a_polys], 0)
        emit_conditions([mod_J.normal_form(g * twist * w) for w in b_polys], na)

    elements = []
    for vec in plain_nullspace(rows, na + nb, p):
        a_part = ring.zero()
        for coef, s in zip(vec[:na], a_polys):
            a_part = a_part + s * coef
        b_part = ring.zero()
        for coef, w in zip(vec[na:], b_polys):
            b_part = b_part + w * coef
        elements.append((a_part, b_part))
    return CoverSocle(len(elements), elements)
