"""Shared helpers for the test suite: random element generators, the
routes that faster code replaced (kept as references), polynomial
arithmetic on exponent tuples (the reference for packed monomials), and an
independent linear-algebra computation of the socle of
(R + I*t)/(J*(R + I*t)).

The socle routine here deliberately avoids the package's socle and transfer
code paths: it builds the module presentation R/J (+) (I/JI)*t directly,
assembles the annihilation conditions as one matrix over F_p, and runs its
own Gaussian elimination.
"""

import heapq
import itertools
import random
from dataclasses import dataclass

from hypothesis import strategies as st

from froblab import groebner
from froblab.errors import ExponentOverflow, NotArtinian, RingMismatch, UnknownVariable
from froblab.fsing import socle_lift
from froblab.ideals import Ideal
from froblab.linalg import nullspace, rref
from froblab.polyring import GREVLEX, LEX, PolyRing, Polynomial
from froblab.reports import CLOSED_UP_TO, NOT_FROBENIUS_CLOSED, ClosureReport, ClosureWitness
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


def cyclic(n):
    """Cyclic-n as (variable names, polynomial texts)."""
    names = tuple(f"x{i}" for i in range(1, n + 1))
    polys = [
        " + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    polys.append("*".join(names) + " - 1")
    return names, polys


def katsura(n):
    """Katsura-n in u0..un as (variable names, polynomial texts)."""
    names = tuple(f"u{i}" for i in range(n + 1))

    def u(k):
        return names[abs(k)] if abs(k) <= n else None

    polys = []
    for m in range(n):
        terms = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if u(l) and u(m - l)]
        polys.append(" + ".join(terms) + f" - {names[m]}")
    polys.append(names[0] + "".join(f" + 2*{v}" for v in names[1:]) + " - 1")
    return names, polys


def generic_minors(n, p):
    """The ideal of 2 x 2 minors of the generic 2 x n matrix over F_p, whose
    entries are the variables x1..x(2n), row by row."""
    names = tuple(f"x{i}" for i in range(1, 2 * n + 1))
    ring = PolyRing(p, names)
    entries = [ring.variable(v) for v in names]
    return Ideal(ring, tuple(matrix_minors((tuple(entries[:n]), tuple(entries[n:])))))


def candidate_miss():
    """The 2 x 2 minors of the matrix with rows (x5, x5, x4, x5) and
    (x1, x4, x3, x2) over F_3[x1..x5]: F-pure, of height 2, and no product
    of two minors raised to p - 1 certifies it, so Fedder's test needs the
    colon loop."""
    ring = PolyRing(3, tuple(f"x{i}" for i in range(1, 6)))
    rows = (("x5", "x5", "x4", "x5"), ("x1", "x4", "x3", "x2"))
    return Ideal(ring, tuple(matrix_minors(tuple(tuple(ring.variable(v) for v in row) for row in rows))))


def full_colon_f_pure(A):
    """Fedder's test by the whole colon (A^[p] : A) and the below-p test on
    its generators: the route fedder_f_pure took before it stopped at the
    first certificate, kept as a reference."""
    p = A.ring.p
    colon = A.bracket_power(1).colon(A)
    return any(all(e < p for e in m) for g in colon.generators for m, _ in g.terms())


def krull_dimension_by_subsets(ideal):
    """Dimension of R/ideal as the size of the largest set of variables
    that holds the support of no leading monomial of the grevlex basis, by
    a search over variable subsets, largest first: the route
    Ideal.krull_dimension took before it read the Hilbert numerator, kept
    as a reference.  None for the unit ideal, whose lead 1 has empty
    support."""
    supports = [
        frozenset(i for i, e in enumerate(lm) if e)
        for lm in ideal.groebner_basis(GREVLEX).leading_monomials
    ]
    n = ideal.ring.nvars
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            if not any(s <= set(combo) for s in supports):
                return size
    return None


def elimination_intersect(A, B):
    """A ∩ B by eliminating w from w*A + (1 - w)*B with ``Ideal.eliminate``
    (one lex run): independent of the tracked grevlex run Ideal.intersect
    takes, kept as a reference."""
    ring = A.ring
    aux = "w"
    while aux in ring.variables:
        aux = "_" + aux
    big = PolyRing(ring.p, (aux,) + ring.variables)
    w, one = big.variable(aux), big.one()
    gens = [w * a.mapped_to(big) for a in A.generators]
    gens += [(one - w) * b.mapped_to(big) for b in B.generators]
    free = Ideal(big, tuple(gens)).eliminate([aux])
    return Ideal(ring, tuple(g.mapped_to(ring) for g in free.generators))


# -- tuple arithmetic -----------------------------------------------------------
# The reference for packed polynomials: a monomial is an exponent tuple and a
# polynomial a dict from monomials to coefficients in [1, p), as Polynomial
# held its terms before it packed them.

MAX_EXPONENT = 0xFFFF


def monomial_div(num, den):
    """num / den, or None when den does not divide num."""
    out = []
    for x, y in zip(num, den):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def monomial_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def tuple_terms(f):
    return dict(f.terms())


def from_tuple_terms(ring, terms):
    poly = ring.zero()
    for m, c in terms.items():
        poly = poly + ring.monomial(m, c)
    return poly


def tuple_add(a, b, p):
    out = dict(a)
    for m, c in b.items():
        v = (out.get(m, 0) + c) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def tuple_neg(a, p):
    return {m: p - c for m, c in a.items()}


def _max_exponents(terms, nvars):
    out = [0] * nvars
    for m in terms:
        for i, e in enumerate(m):
            if e > out[i]:
                out[i] = e
    return tuple(out)


def tuple_mul(a, b, p, nvars):
    """a * b; raises ExponentOverflow when the largest exponents of one
    variable in the two factors sum past MAX_EXPONENT."""
    if not a or not b:
        return {}
    for x, y in zip(_max_exponents(a, nvars), _max_exponents(b, nvars)):
        if x + y > MAX_EXPONENT:
            raise ExponentOverflow(f"product exponent {x + y} exceeds {MAX_EXPONENT}")
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            v = (out.get(m, 0) + c1 * c2) % p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def square_and_multiply_power(terms, n, product):
    """The term dict of terms ** n by square-and-multiply with ``product``:
    the route polyring's powers took for every n before they split n >= p
    into base-p digits, kept as a reference."""
    result = {0: 1}
    while n:
        if n & 1:
            result = product(result, terms)
        n >>= 1
        if n:
            terms = product(terms, terms)
    return result


def tuple_frobenius_pow(a, e, p):
    """a ** (p**e): exponents scaled by q = p**e, coefficients raised to q."""
    q = p ** e
    out = {}
    for m, c in a.items():
        scaled = tuple(x * q for x in m)
        if any(x > MAX_EXPONENT for x in scaled):
            raise ExponentOverflow(f"exponent {max(scaled)} exceeds {MAX_EXPONENT}")
        out[scaled] = pow(c, q, p)
    return out


def tuple_mapped_to(a, source, target):
    """a from the variables named ``source`` to those named ``target``,
    matched by name; a variable with a positive exponent must be in
    ``target``."""
    out = {}
    for m, c in a.items():
        exps = [0] * len(target)
        for name, e in zip(source, m):
            if e:
                if name not in target:
                    raise UnknownVariable(name)
                exps[target.index(name)] = e
        out[tuple(exps)] = c
    return out


def s_polynomial(f, g, order=None):
    """The S-polynomial of nonzero f and g in ``order`` (by default the
    ring's), by tuple arithmetic."""
    if f.ring != g.ring:
        raise RingMismatch("polynomials from different rings")
    ring = f.ring
    p, n = ring.p, ring.nvars
    key = (order or ring.order).key
    a, b = tuple_terms(f), tuple_terms(g)
    lf, lg = max(a, key=key), max(b, key=key)
    lcm = monomial_lcm(lf, lg)
    left = tuple_mul({monomial_div(lcm, lf): pow(a[lf], p - 2, p)}, a, p, n)
    right = tuple_mul({monomial_div(lcm, lg): pow(b[lg], p - 2, p)}, b, p, n)
    return from_tuple_terms(ring, tuple_add(left, tuple_neg(right, p), p))


def divide_exactly(h, g):
    """h / g by long division on leading terms, for h a multiple of g."""
    ring = h.ring
    lead, c = g.leading_term()
    inv = pow(c, ring.p - 2, ring.p)
    quotient = ring.zero()
    while not h.is_zero:
        m, d = h.leading_term()
        if monomial_div(m, lead) is None:
            raise ValueError(f"{h} is no multiple of {g}")
        step = ring.monomial(monomial_div(m, lead), d * inv % ring.p)
        quotient = quotient + step
        h = h - step * g
    return quotient


def elimination_colon(A, B):
    """(A : B) as the intersection over the nonzero generators g of B (at
    least one) of (A ∩ (g))/g, every intersection by
    ``elimination_intersect``: the route Ideal.colon took before its tracked
    grevlex runs, kept as a reference."""
    result = None
    for g in B.generators:
        if g.is_zero:
            continue
        multiples = elimination_intersect(A, Ideal(A.ring, (g,))).generators
        part = Ideal(A.ring, tuple(divide_exactly(h, g) for h in multiples))
        result = part if result is None else elimination_intersect(result, part)
    return result


def colon_regular_sum(presentation, elements):
    """defining + (elements) when each element is a nonzerodivisor modulo the
    ones before it, else None, with every step decided by the colon: x is a
    nonzerodivisor on S/J iff x is outside J and every generator of (J : x)
    lies in J.  This is the route _regular_sum took for every input before
    homogeneous ones were decided by Hilbert numerators, kept as a
    reference."""
    current = presentation.defining
    for x in elements:
        principal = Ideal(presentation.ring, (x,))
        if current.contains(x) or not all(
            current.contains(g) for g in current.colon(principal).generators
        ):
            return None
        current = current + principal
    return current


def criterion_membership_by_product(context, sop, e):
    """Whether u^q * twist^((q-1)/2) lies in defining + J^[q]*I, with u the
    lifted socle generator, J = (sop) and q = p^e: the membership
    cover_f_injectivity_criterion decided for every input before graded
    ones asked it of defining + I + tail^[q], kept as a reference."""
    ring = context.ring
    u = socle_lift(context, sop[0], sop[1:]).lift
    q = context.p ** e
    J = Ideal(ring, tuple(sop))
    target = u.frobenius_pow(e) * context.twist ** ((q - 1) // 2)
    return (context.quotient.defining + J.bracket_power(e).product(context.coefficient)).contains(target)


def socle_lift_postconditions(context, sop, lift):
    """(m*u inside defining + J*I, u outside it) for J = (sop) and u the
    lifted socle generator, kept as a reference: socle_lift checked both on
    inhomogeneous inputs.  The first holds by construction on every input,
    and socle_lift now checks only the second, on inhomogeneous inputs;
    graded inputs satisfy it by themselves."""
    ring = context.ring
    kill = context.quotient.defining + Ideal(ring, tuple(sop)).product(context.coefficient)
    return all(kill.contains(ring.variable(v) * lift) for v in ring.variables), not kill.contains(lift)


def degeneracy_memberships(context, sop, lift):
    """(u*I inside defining + J*I, u inside defining + J, u^2 inside
    defining + J^[2]) for J = (sop) and u the lifted socle generator: the
    memberships even_char_degeneracy_check tested before it reported them
    as holding by construction, kept as a reference."""
    defining, I = context.quotient.defining, context.coefficient
    J = Ideal(context.ring, tuple(sop))
    kill = defining + J.product(I)
    return (
        all(kill.contains(lift * g) for g in I.generators),
        (defining + J).contains(lift),
        (defining + J.bracket_power(1)).contains(lift * lift),
    )


def unit_in_quotient(presentation, g):
    """Whether g is a unit of the quotient localised at the variables, read
    off the constant term of its normal form: the test CoverContext made
    of each coefficient generator before it read the generator's own
    constant term, kept as a reference."""
    return bool(presentation.normal_form(g).constant_coefficient())


def closure_sweep_report(presentation, parameter, e_max):
    """The Frobenius-closure probe by exhaustive sweep: every nonzero socle
    combination in itertools.product order, each tested for membership of
    its Frobenius power at e = 1..e_max.  This is the route
    frobenius_closure_test took before it solved one kernel per depth, with
    no cap on the number of combinations, kept as a reference."""
    Q = presentation
    gens = list(parameter.generators)
    regular = Q.is_regular_sequence(gens) if gens else True
    soc = Q.socle(parameter)
    r = soc.dimension

    def report(witness, tested, monotone):
        return ClosureReport(
            verdict=NOT_FROBENIUS_CLOSED if witness else CLOSED_UP_TO,
            e_max=e_max,
            witness=witness,
            regular_sequence_verified=regular,
            socle_dimension=r,
            combinations_tested=tested,
            monotonicity_verified=monotone,
        )

    if r == 0 or e_max == 0:
        return report(None, 0, None)
    combos = [vec for vec in itertools.product(range(Q.p), repeat=r) if any(vec)]
    targets = [Q.defining + parameter.bracket_power(e) for e in range(1, e_max + 1)]
    for idx, vec in enumerate(combos):
        s = Q.ring.zero()
        for c, b in zip(vec, soc.basis):
            if c:
                s = s + b * c
        for e in range(1, e_max + 1):
            if targets[e - 1].contains(s.frobenius_pow(e)):
                try:
                    bigger = Q.defining + parameter.bracket_power(e + 1)
                    monotone = bigger.contains(s.frobenius_pow(e + 1))
                except ExponentOverflow:
                    monotone = None
                witness = ClosureWitness(
                    element=str(s), e=e, combination_index=idx, coefficients=vec
                )
                return report(witness, idx + 1, monotone)
    return report(None, len(combos), None)


def socle_by_normal_forms(full):
    """The socle basis of S/full that QuotientPresentation._socle returns,
    from one normal form per product x_v*m of a variable and a standard
    monomial: the route it took before it skipped the products whose
    normal form is known, kept as a reference."""
    ring = full.ring
    monomials = full.standard_monomials()
    gb = full.groebner_basis(GREVLEX)
    n = len(monomials)
    index = {m: i for i, m in enumerate(monomials)}
    rows = [[0] * n for _ in range(ring.nvars * n)]
    for j, m in enumerate(monomials):
        for v in range(ring.nvars):
            bumped = tuple(e + 1 if i == v else e for i, e in enumerate(m))
            for mm, c in gb.normal_form(ring.monomial(bumped)).terms():
                rows[v * n + index[mm]][j] = c
    basis = [
        sum((ring.monomial(m, c) for m, c in zip(monomials, coeffs) if c), ring.zero())
        for coeffs in nullspace(rows, n, ring.p)
    ]
    basis.sort(key=lambda b: ring.order.key(b.leading_monomial()), reverse=True)
    return tuple(basis)


def bracket_kernel_by_target(target, columns):
    """The reduced-echelon basis of {c : sum c_i*columns[i] in target} from
    normal forms modulo the target's own grevlex basis: the route the
    closure test and the cover criterion took for every input before graded
    bracket powers were decided modulo the basis of the other summand, kept
    as a reference."""
    gb = target.groebner_basis(GREVLEX)
    forms = [dict(gb.normal_form(c).terms()) for c in columns]
    monomials = sorted({m for f in forms for m in f})
    rows = [[f.get(m, 0) for f in forms] for m in monomials]
    return rref(plain_nullspace(rows, len(columns), target.ring.p), target.ring.p)[0]


def plus_shifted(a, b, shift, sign=1):
    """a(t) + sign * t**shift * b(t), coefficient lists from degree 0 up,
    with no trailing zeros."""
    out = a + [0] * (len(b) + shift - len(a))
    for k, c in enumerate(b):
        out[k + shift] += sign * c
    while out and not out[-1]:
        out.pop()
    return out


def divides(a, b):
    """Whether the exponent tuple a divides b."""
    return all(x <= y for x, y in zip(a, b))


def minimal_monomials(monomials):
    """The minimal generators of the monomial ideal the exponent tuples
    generate, by ascending degree."""
    out = []
    for m in sorted(set(monomials), key=sum):
        if not any(divides(g, m) for g in out):
            out.append(m)
    return out


def hilbert_numerator_of_tuples(gens):
    """K(t) with HS(S/M) = K(t)/(1 - t)^n for the monomial ideal M
    minimally generated by the exponent tuples ``gens``, by Bigatti's pivot
    recursion on x^a, x the first variable in most generators and a its
    smallest exponent there: the route Ideal.hilbert_numerator took before
    it read the basis's packed leads, kept as a reference."""
    counts = [sum(map(bool, column)) for column in zip(*gens)]
    most = max(counts, default=0)
    if most < 2:
        out = [1]
        for m in gens:
            out = plus_shifted(out, out, sum(m), -1)
        return out
    x = counts.index(most)
    a = min(m[x] for m in gens if m[x])
    rest = [m for m in gens if not m[x]]
    lowered = minimal_monomials(m[:x] + (m[x] - a,) + m[x + 1:] for m in gens if m[x])
    quotient = lowered + [m for m in rest if not any(divides(g, m) for g in lowered)]
    power = (0,) * x + (a,) + (0,) * (len(counts) - x - 1)
    return plus_shifted(hilbert_numerator_of_tuples(rest + [power]), hilbert_numerator_of_tuples(quotient), a)


def leads_by_terms(gb):
    """The leading monomials of a basis's polys, each the largest of its
    terms in the basis's order."""
    return [g.leading_monomial(gb.order) for g in gb.polys]


def standard_monomials_in_the_box(ideal):
    """The standard monomials of the grevlex basis of ``ideal``, ascending
    in the ring's order, from every monomial of the box that the leads' pure
    powers cut out; NotArtinian, with Ideal.standard_monomials' message,
    when a variable has none: the route Ideal.standard_monomials took
    before it walked the order ideal on packed monomials, kept as a
    reference."""
    ring = ideal.ring
    gb = ideal.groebner_basis(GREVLEX)
    if gb.is_unit_ideal():
        return []
    leads = leads_by_terms(gb)
    bounds = [None] * ring.nvars
    for lm in leads:
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1 and (bounds[nz[0]] is None or lm[nz[0]] < bounds[nz[0]]):
            bounds[nz[0]] = lm[nz[0]]
    missing = [ring.variables[i] for i, b in enumerate(bounds) if b is None]
    if missing:
        raise NotArtinian(f"no pure power of {', '.join(missing)} in the leading-term ideal")
    box = itertools.product(*(range(b) for b in bounds))
    return sorted((m for m in box if not any(divides(lm, m) for lm in leads)), key=ring.order.key)


def socle_from_tuples(full):
    """The socle basis of S/full from a matrix indexed by exponent tuples:
    the normal form of each product x_v*m of a variable and a standard
    monomial that is neither standard nor, on a homogeneous ideal, above
    the top standard degree, read through ``terms()``, and each basis
    element summed one monomial at a time: the route
    QuotientPresentation._socle took before it read packed normal forms,
    kept as a reference."""
    ring = full.ring
    monomials = standard_monomials_in_the_box(full)
    if not monomials:
        return ()
    gb = full.groebner_basis(GREVLEX)
    n = len(monomials)
    index = {m: i for i, m in enumerate(monomials)}
    graded = all(g.is_homogeneous() for g in full.generators)
    top = max(map(sum, monomials))
    rows = [[0] * n for _ in range(ring.nvars * n)]
    for j, m in enumerate(monomials):
        if graded and sum(m) == top:
            continue
        for v in range(ring.nvars):
            bumped = tuple(e + 1 if i == v else e for i, e in enumerate(m))
            if bumped in index:
                rows[v * n + index[bumped]][j] = 1
                continue
            for mm, c in gb.normal_form(ring.monomial(bumped)).terms():
                rows[v * n + index[mm]][j] = c
    basis = [
        sum((ring.monomial(m, c) for m, c in zip(monomials, coeffs) if c), ring.zero())
        for coeffs in nullspace(rows, n, ring.p)
    ]
    basis.sort(key=lambda b: ring.order.key(b.leading_monomial()), reverse=True)
    return tuple(basis)


def bracket_kernel_from_tuples(base, power, columns):
    """quotients._bracket_kernel with the reached degrees and the rows of
    its matrix read from the normal forms' exponent tuples through
    ``terms()``: the route it took before it read packed normal forms, kept
    as a reference."""
    brackets = [y for y in power.generators if not y.is_zero]
    top = max(c.total_degree() for c in columns)
    if all(g.is_homogeneous() for g in base.generators + tuple(brackets)) and all(
        top <= y.total_degree() for y in brackets
    ):
        gb = base.groebner_basis(GREVLEX)
        reached = {sum(m) for c in columns for m, _ in c.terms()}
        brackets = [y for y in brackets if y.total_degree() in reached]
    else:
        gb, brackets = (base + power).groebner_basis(GREVLEX), []
    vectors = [gb.normal_form(g) for g in [*columns, *brackets]]
    rows = {}
    for j, v in enumerate(vectors):
        for m, c in v.terms():
            rows.setdefault(m, [0] * len(vectors))[j] = c
    p = base.ring.p
    kernel = nullspace(list(rows.values()), len(vectors), p)
    return rref([v[:len(columns)] for v in kernel], p)[0], vectors[:len(columns)]


def reduce_testing_every_signature(terms, divisors, p, pk, memo, steps=None, signature=None):
    """``groebner._reduce`` as it was before a signature-bounded call tested
    only the divisors at or above its largest term's bar: it widens the key
    of every term that has a divisor and tests the ratio of each divisor from
    there, kept as a reference."""
    mask, guard = pk.mask, pk.guard
    if signature is not None:
        sig, ratios, widen = signature
    work = dict(terms)
    heap = [-(m ^ mask) for m in work]
    heapq.heapify(heap)
    remainder = {}
    n = len(divisors)
    while heap:
        key = -heapq.heappop(heap)
        m = key ^ mask
        c = work.pop(m)
        if not c:
            continue
        shifted = m | guard
        i = memo.get(m, -1)
        if i < 0:
            i = ~i
            while i < n and (shifted - divisors[i][0]) & guard != guard:
                i += 1
            memo[m] = i if i < n else ~n
        if signature is not None and i < n:
            below = sig - widen(key)
            while i < n and (ratios[i] >= below or (shifted - divisors[i][0]) & guard != guard):
                i += 1
        if i == n:
            remainder[m] = c
            continue
        lead, bound, tail = divisors[i]
        q = (shifted - lead) ^ guard
        if (q + bound) & guard:
            raise groebner._overflow()
        if steps is not None:
            steps.append((lead, q, c))
        c = p - c
        for tm, tc in tail.items():
            mm = q + tm
            v = work.get(mm)
            if v is None:
                work[mm] = c * tc % p
                heapq.heappush(heap, -(mm ^ mask))
            else:
                work[mm] = (v + c * tc) % p
    return remainder


def reduced_basis_from_every_tail(ring, order, elements, gens):
    """``groebner._reduced_basis`` as it was before settled tails kept
    their tails: every kept element's tail is reduced against the elements
    already reduced, with no use of the run's memo, kept as a reference."""
    p, own = ring.p, ring.packing
    pk = groebner._packing(order, ring.nvars)
    mask, guard = pk.mask, pk.guard
    kept = []
    for element in sorted(elements, key=lambda e: e[0] ^ mask):
        shifted = element[0] | guard
        if not any((shifted - lead) & guard == guard for lead, _, _ in kept):
            kept.append(element)
    reduced, memo, polys = [], {}, []
    for lead, _, tail in kept:
        tail = reduce_testing_every_signature(tail, reduced, p, pk, memo)
        reduced.append((lead, pk.bound(tail), tail))
        polys.append(ring._poly(groebner._repack({lead: 1, **tail}, pk, own)))
    return groebner.GroebnerBasis(ring, order, tuple(reversed(polys)), tuple(gens), tuple(reversed(reduced)))


def pair_loop_entering_generators_as_given(ring, gens, order):
    """``groebner._pair_loop`` with every generator entering as it is, in the
    caller's order, reduced only when a lead of the basis so far divides its
    own: the entry of a plain run before dense homogeneous generators
    entered in reduced echelon form, kept as a reference."""
    echelon = groebner._echelon_by_degree

    def as_given(gens, p, own, pk):
        return [(groebner._repack(g._terms, own, pk), g.total_degree()) for g in gens]

    groebner._echelon_by_degree = as_given
    try:
        return groebner._pair_loop(ring, gens, order)
    finally:
        groebner._echelon_by_degree = echelon


def recorded_echelons(calls):
    """A stand-in for ``groebner._echelon_by_degree`` that appends the
    generators of each call to ``calls``."""
    echelon = groebner._echelon_by_degree

    def recorded(gens, *args):
        calls.append(gens)
        return echelon(gens, *args)

    return recorded


def random_form(rng, ring, degree, terms):
    """A homogeneous polynomial of ``degree`` with up to ``terms`` random
    terms; zero when they cancel."""
    g = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(degree):
            exps[rng.randrange(ring.nvars)] += 1
        g = g + ring.monomial(exps, rng.randrange(1, ring.p))
    return g


@st.composite
def homogeneous_systems(draw):
    """Nonzero homogeneous generators over F_p[x, y, z, w][:n], p in
    {2, 3, 7, 32003}, in lex or grevlex, of mixed degrees 1 to 3 and with up
    to 2, 4 or 6 terms each, so that some lists hold binomials only; then
    one of: nothing, a repeated generator, or a combination of two
    generators of one degree, which leaves that degree's rows
    rank-deficient."""
    order = draw(st.sampled_from((GREVLEX, LEX)))
    p = draw(st.sampled_from((2, 3, 7, 32003)))
    nvars = draw(st.integers(2, 4))
    ring = PolyRing(p, ("x", "y", "z", "w")[:nvars], order)
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = draw(st.sampled_from((4, 6, 2)))
    gens = []
    for _ in range(draw(st.integers(1, nvars + 2))):
        g = random_form(rng, ring, rng.randint(1, 3), terms)
        if not g.is_zero:
            gens.append(g)
    gens = gens or [ring.variable("x")]
    extra = draw(st.sampled_from(("none", "repeated", "combination")))
    if extra == "repeated":
        gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
    elif extra == "combination":
        g = rng.choice(gens)
        h = random_form(rng, ring, g.total_degree(), terms)
        combination = g * rng.randrange(1, p) + h * rng.randrange(1, p)
        gens += [x for x in (h, combination) if not x.is_zero]
    return ring, gens


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
            vec[index[m]] = c
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
                block[where[m]][offset + j] = c
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
