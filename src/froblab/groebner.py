"""Buchberger's algorithm and multivariate division over prime fields.

The engine is deliberately classical: normal pair selection (smallest lcm
degree, then order key, then pair index), Buchberger's coprimality and chain
criteria for pair elimination, and full interreduction at the end.  Output is
the reduced monic basis sorted by descending leading monomial, which is unique
for the ideal and order, so it does not depend on generator permutation.

Inside the engine a monomial is one packed int.  Each exponent has a 16-bit
field topped by a guard bit; each grevlex block also has a total-degree
field, wide enough for the block's degree sum, topped by its own guard bit.
The field layout depends on the order, from the most significant field down:

- lex: x1, x2, ..., xn;
- grevlex: degree, xn, ..., x1;
- elimination on the first b variables: degree of x1..xb, xb, ..., x1,
  then degree of the rest, xn, ..., x(b+1).

``mask`` holds the value bits of every exponent field inside a grevlex
block, so ``packed ^ mask`` compares exactly like ``MonomialOrder.key``.
The product of two monomials is the sum of their packed ints.  With ``guard``
the union of all guard bits, ``lead`` divides ``m`` iff
``((m | guard) - lead) & guard == guard``, and the quotient is that
difference ``^ guard``.  A field never wraps silently: a product that sets
a guard bit raises ExponentOverflow.  A reduction step checks all of its
products at once, as the quotient times the fieldwise maximum of the
divisor's tail.  Polynomials are packed on the way in and unpacked on the
way out; the rest of the package only sees exponent tuples.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .errors import BudgetExceeded, ExponentOverflow, RingMismatch
from .polyring import (
    MAX_EXPONENT,
    Monomial,
    MonomialOrder,
    PolyRing,
    Polynomial,
    monomial_div,
    monomial_lcm,
)

# max S-pairs popped before giving up; runaway inputs become a clean error
DEFAULT_PAIR_BUDGET = 1_000_000

EXPONENT_BITS = MAX_EXPONENT.bit_length()


class Packing:
    """The packed-monomial layout of one monomial order on ``nvars`` variables."""

    __slots__ = ("units", "shifts", "mask", "guard", "exponents")

    def __init__(self, order: MonomialOrder, nvars: int):
        if order.kind == "lex":
            # x1 most significant, so fields are laid out from xn upwards
            blocks = [(tuple(range(nvars - 1, -1, -1)), False)]
        elif order.kind == "grevlex":
            blocks = [(tuple(range(nvars)), True)]
        else:
            b = min(order.block, nvars)
            blocks = [(tuple(range(b, nvars)), True), (tuple(range(b)), True)]
        shifts = [0] * nvars
        units = [0] * nvars
        mask = guard = exponents = 0
        at = 0  # next free bit, filling from the least significant end
        for variables, graded in blocks:
            if not variables:
                continue
            for i in variables:
                shifts[i] = at
                units[i] = 1 << at
                exponents |= MAX_EXPONENT << at
                if graded:
                    mask |= MAX_EXPONENT << at
                at += EXPONENT_BITS
                guard |= 1 << at
                at += 1
            if graded:
                for i in variables:
                    units[i] |= 1 << at
                at += EXPONENT_BITS + (len(variables) - 1).bit_length()
                guard |= 1 << at
                at += 1
        self.units = tuple(units)
        self.shifts = tuple(shifts)
        self.mask = mask
        self.guard = guard
        self.exponents = exponents

    def pack(self, m: Monomial) -> int:
        return sum(map(mul, m, self.units))

    def unpack(self, packed: int) -> Monomial:
        return tuple((packed >> s) & MAX_EXPONENT for s in self.shifts)

    def pack_terms(self, terms: dict) -> dict:
        units = self.units
        return {sum(map(mul, m, units)): c for m, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        shifts = self.shifts
        return {tuple((m >> s) & MAX_EXPONENT for s in shifts): c for m, c in terms.items()}

    def divisor(self, terms: dict, p: int) -> tuple:
        """(lead, bound, tail) of the monic multiple of a nonzero packed term
        dict.  The tail maps the other monomials to their coefficients.
        ``bound`` holds the largest exponent of each variable over the tail,
        with zero degree fields, so q + bound sets a guard bit iff some
        q + (tail monomial) does.
        """
        mask, exponents, guard = self.mask, self.exponents, self.guard
        lead = max(terms, key=lambda m: m ^ mask)
        inv = pow(terms[lead], p - 2, p)
        tail = {m: c * inv % p for m, c in terms.items() if m != lead}
        bound = 0
        for m in tail:
            m &= exponents
            # guard bits mark the fields where bound >= m; spread them over
            # the 16 bits below and keep bound there, m elsewhere (the degree
            # fields are zero on both sides)
            keep = ((((bound | guard) - m) & guard) >> EXPONENT_BITS) * MAX_EXPONENT
            bound = (bound & keep) | (m & ~keep)
        return lead, bound, tail


def _overflow() -> ExponentOverflow:
    return ExponentOverflow(f"an exponent in the Groebner engine exceeds {MAX_EXPONENT}")


def _reduce(terms: dict, divisors: Sequence[tuple], p: int, pk: Packing) -> dict:
    """Full remainder of a packed term dict against monic packed divisors.

    ``divisors`` holds (lead, bound, tail) triples from ``Packing.divisor``,
    scanned in list order; the first whose lead divides the largest remaining
    term is used.  Terms wait in a heap keyed ``-(m ^ mask)``; a term
    cancelled to zero keeps its heap entry and is skipped when popped.  The
    remainder comes out in descending order.
    """
    mask, guard = pk.mask, pk.guard
    work = dict(terms)
    heap = [-(m ^ mask) for m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    remainder: dict = {}
    while heap:
        m = -pop(heap) ^ mask
        c = work.pop(m)
        if not c:
            continue
        shifted = m | guard
        for lead, bound, tail in divisors:
            q = shifted - lead
            if q & guard == guard:
                q ^= guard
                if (q + bound) & guard:
                    raise _overflow()
                c = p - c
                for tm, tc in tail.items():
                    mm = q + tm
                    v = work.get(mm)
                    if v is None:
                        work[mm] = c * tc % p
                        push(heap, -(mm ^ mask))
                    else:
                        work[mm] = (v + c * tc) % p
                break
        else:
            remainder[m] = c
    return remainder


def _chain_criterion(i: int, j: int, shifted_lcm: int, leads: list[int], guard: int, done: set) -> bool:
    """Buchberger's chain criterion for the pair (i, j): another lead divides
    their lcm (given ``| guard``) and its pairs with i and with j are done."""
    for k, lk in enumerate(leads):
        if (
            (shifted_lcm - lk) & guard == guard and k != i and k != j
            and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
        ):
            return True
    return False


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """The S-polynomial of f and g; both must be nonzero."""
    if f.ring != g.ring:
        raise RingMismatch("polynomials from different rings")
    ring = f.ring
    order = order or ring.order
    lf, cf = f.leading_term(order)
    lg, cg = g.leading_term(order)
    lcm = monomial_lcm(lf, lg)
    mf = ring.monomial(monomial_div(lcm, lf), pow(int(cf), ring.p - 2, ring.p))
    mg = ring.monomial(monomial_div(lcm, lg), pow(int(cg), ring.p - 2, ring.p))
    return mf * f - mg * g


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced monic Groebner basis, sorted by descending leading monomial."""

    ring: PolyRing
    order: MonomialOrder
    polys: tuple[Polynomial, ...]

    @cached_property
    def _prepared(self) -> tuple:
        """The basis packed for reduction: (packing, divisors)."""
        pk = Packing(self.order, self.ring.nvars)
        p = self.ring.p
        return pk, tuple(pk.divisor(pk.pack_terms(g._terms), p) for g in self.polys)

    @property
    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial(self.order) for g in self.polys)

    def normal_form(self, g: Polynomial) -> Polynomial:
        if g.ring != self.ring:
            raise RingMismatch("polynomial from a different ring")
        if not self.polys:
            return g
        pk, divisors = self._prepared
        reduced = _reduce(pk.pack_terms(g._terms), divisors, self.ring.p, pk)
        return self.ring._poly(pk.unpack_terms(reduced))

    def contains(self, g: Polynomial) -> bool:
        return self.normal_form(g).is_zero

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and not any(self.polys[0].leading_monomial(self.order))


def buchberger(
    generators: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by ``generators``."""
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise ValueError("cannot infer the ring from an empty or all-zero generator list")
    ring = gens[0].ring
    for g in gens[1:]:
        if g.ring != ring:
            raise RingMismatch("generators from different rings")
    order = order or ring.order
    return _buchberger(ring, gens, order, budget)


def groebner_basis_of(
    ring: PolyRing,
    generators: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> GroebnerBasis:
    """Like ``buchberger`` but tolerates an empty generator list (zero ideal)."""
    order = order or ring.order
    gens = [g for g in generators if not g.is_zero]
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generator from a different ring")
    if not gens:
        return GroebnerBasis(ring, order, ())
    return _buchberger(ring, gens, order, budget)


def _buchberger(ring: PolyRing, gens: list[Polynomial], order: MonomialOrder, budget: int) -> GroebnerBasis:
    p = ring.p
    pk = Packing(order, ring.nvars)
    mask, guard = pk.mask, pk.guard

    basis: list[tuple] = []  # packed monic divisors (lead, bound, tail)
    leads: list[int] = []
    exponents: list[Monomial] = []  # the leads unpacked, for the lcm of a pair
    heap: list[tuple] = []
    done: set[tuple[int, int]] = set()

    def add_poly(terms: dict) -> None:
        divisor = pk.divisor(terms, p)
        lead = divisor[0]
        lt = pk.unpack(lead)
        t = len(basis)
        for i in range(t):
            lcm = monomial_lcm(exponents[i], lt)
            heapq.heappush(heap, (sum(lcm), pk.pack(lcm) ^ mask, i, t))
        basis.append(divisor)
        leads.append(lead)
        exponents.append(lt)

    for g in gens:
        add_poly(pk.pack_terms(g._terms))

    popped = 0
    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        popped += 1
        if popped > budget:
            raise BudgetExceeded(f"S-pair budget of {budget} exhausted")
        pair = (i, j)
        if pair in done:
            continue
        done.add(pair)
        li, lj = leads[i], leads[j]
        lcm ^= mask
        # coprimality criterion: the S-polynomial reduces to zero on its own
        if lcm == li + lj:
            continue
        if _chain_criterion(i, j, lcm | guard, leads, guard, done):
            continue
        # S-polynomial: the leads cancel, leaving qi*tail_i - qj*tail_j
        _, bi, ti = basis[i]
        _, bj, tj = basis[j]
        qi, qj = lcm - li, lcm - lj
        if (qi + bi) & guard or (qj + bj) & guard:
            raise _overflow()
        s = {qi + m: c for m, c in ti.items()}
        for m, c in tj.items():
            mm = qj + m
            s[mm] = (s.get(mm, 0) - c) % p
        r = _reduce(s, basis, p, pk)
        if r:
            add_poly(r)

    # minimalize: drop elements whose lead is divisible by another kept lead
    kept: list[int] = []
    for t in sorted(range(len(basis)), key=lambda t: leads[t] ^ mask):
        shifted = leads[t] | guard
        if not any((shifted - leads[s]) & guard == guard for s in kept):
            kept.append(t)

    # interreduce tails against the other kept elements; the leads stay
    polys = []
    for t in sorted(kept, key=lambda t: leads[t] ^ mask, reverse=True):
        lead, _, tail = basis[t]
        others = [basis[s] for s in kept if s != t]
        terms = {lead: 1}
        terms.update(_reduce(tail, others, p, pk))
        polys.append(ring._poly(pk.unpack_terms(terms)))
    return GroebnerBasis(ring, order, tuple(polys))
