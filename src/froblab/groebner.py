"""Buchberger's algorithm and multivariate division over prime fields.

A run takes one of two loops, which return the same reduced basis.  A plain
run, with no seed and no tags, in grevlex, of at most as many generators
as variables, one of which has more than two terms, takes the signature
loop; every other run takes the pair loop.  Most S-pairs of a plain run
reduce to zero, and signatures predict those reductions from syzygies the
run already knows.  The rest of the rule keeps the pair loop where the
prediction does not pay.  More generators than variables are
never a regular sequence, so their non-Koszul syzygies still surface as
zero reductions, and the pair loop's chain criterion finds those more
cheaply.  The S-polynomials and remainders of binomials are binomials, so a
spared reduction saves a few term operations, less than the J-pair's
bookkeeping costs.  In lex a run often passes through long chains of
elements, each lead dividing the one before: the pair loop stops pairing
an element once its lead is divided, while the signature loop pairs every
element with every earlier one.  A seeded run would queue many J-pairs
only to prune them after queueing, and a tracked run needs the tag of
every zero reduction.

The pair loop keeps S-pairs by the Gebauer-Moeller update (Gebauer &
Moeller 1988): when an element h joins the basis, its new pairs pass
criteria M and F, queued pairs that h makes redundant are dropped
(criterion B_k), and the elements whose leads lead(h) divides form no
further pairs (they still serve as reducers).  A generator whose lead a
lead of the basis so far divides enters reduced against it, so generators
that share a lead meet in one reduction, not in an S-pair of their degree;
the ideal is the same, and so is the reduced basis.  A seeded or tracked
run reduces every generator.  A plain run of homogeneous generators, one of
which has more than two terms, first replaces the generators of each degree
by the reduced row echelon form of their coefficient matrix, whose columns
are that degree's monomials in the run's order, and enters its rows by
ascending degree: the linear algebra of Faugère's F4 (J. Pure Appl. Algebra
139, 1999), applied once, to the input.  Row operations within one degree
keep the ideal, and no tail then holds a lead of its degree, so the dense
tails of products of linear forms, such as the quadrics of a line
arrangement, are not carried through every S-polynomial; the basis still
records the caller's generators.  Any other run enters the others as they
are, since on binomials, such as the minors of a matrix, reducing their
tails costs more than it saves, and on inhomogeneous input elimination
across degrees measured slower.  A run may start from a seed, the cached
reduced basis of an ideal inside the one wanted, as Singular's
``std(I, f)`` does: its elements enter as already processed, active and
with no pairs among themselves, since a reduced basis already meets
Buchberger's criterion, before any generator.  An untracked run skips, by
identity, the generators the seed was built from and the seed's own
elements: they lie in the seed's ideal and would reduce to zero.  Pairs are
selected by sugar degree (Giovini et al. 1991), then by lcm in the monomial
order, then by index.  An input's sugar is its total degree; a pair (i, j)
with lcm L has sugar
max(sugar_i + deg L - deg lead_i, sugar_j + deg L - deg lead_j), which its
reduced S-polynomial inherits.  Output is the reduced monic basis after
full interreduction, sorted by descending leading monomial, which is unique
for the ideal and order, so it depends neither on generator permutation,
nor on the pair strategy, nor on a seed.

The signature loop uses the criteria of Faugère's F5 (ISSAC 2002) in the
form of Gao, Volny & Wang (Math. Comp. 85, 2016).  Each element f carries
a signature t*e_i, the leading term of a u with u*F = f over the generators
F; signatures compare in the Schreyer order, first t*lead(f_i) in the run's
order, then i.  Generator i enters the queue at signature e_i, and each new
element f forms with every earlier g the J-pair (L/lead_f)*f or
(L/lead_g)*g, where L = lcm(lead_f, lead_g), whichever has the larger
signature; none when the two are equal.  Entries pop by signature, then by
lcm.  An element is reduced fully, but only by multiples q*g of strictly
smaller signature, so it keeps its signature.  A J-pair is dropped when a
known syzygy's signature divides its own: each zero reduction's, and each
new element's Koszul signature with every earlier element,
max(lead_g*sig_f, lead_f*sig_g), kept minimal per index.  It is also
dropped when it is covered: some element g with sig_g dividing its
signature T has (T/sig_g)*lead_g below L.  So only the first entry of a
signature is reduced: the next meets the first's zero reduction, or is
covered by the first's element or by what covered the first.  Every J-pair
formed is charged to the pair budget.  The loop ends in the pair loop's
minimalization and interreduction, so it returns the pair loop's basis.

A tracked run (``syzygy_images``) is the pair loop on a seed of P plus
generators g*t_k, for one fixed g and tags t_k.  Each element f also
carries a tag t, with f - g*t in P: each reduction step logs (divisor,
multiplier, coefficient), and the tag follows from the log.  An element
that reduces to zero leaves its tag t, with g*t in P.  These tags generate
(P : g) ∩ T modulo P*T, where T is spanned by the t_k: a pair inside the
seed has image 0, and the Koszul syzygy of a coprime pair that criterion F
drops has image f_j*t_i - f_i*t_j = (f_j - g*t_j)*t_i - (f_i - g*t_i)*t_j,
which is in P*T.  With g = 1 and tags Q's generators this gives P ∩ Q, and
with tags 1 the colon (P : g), all in grevlex (Moeller, Mora & Traverso
1992; Greuel & Pfister, section 1.8).

The engine works on the packed monomials of ``polyring``.  Polynomials
keep theirs in the grevlex layout, so a grevlex run takes its inputs' terms
and hands back its outputs' as they are; a lex run repacks its inputs in
the lex layout and its outputs back (``_repack``).  With ``guard`` the union
of all guard bits, ``lead`` divides ``m`` iff
``((m | guard) - lead) & guard == guard``, and the quotient is that
difference ``^ guard``.  A reduction step checks all of its products at
once, as the quotient times the fieldwise maximum of the divisor's tail
(``Packing.bound``).  The lcm of two packed monomials is their fieldwise
maximum, found by the same guard-bit test, and its degree is one field of
its product with a constant that has a 1 in every exponent field, which
holds while the two degrees sum to less than 2^17 (``Packing.lcm``); the
pair update thus unpacks no lead below that.  A signature t*e_i is one
int, t*lead(f_i) in a layout with wider fields (``_signature_packing``)
and i below it, so that ints compare as signatures do and no signature
overflows where the polynomials do not.

One heap division loop (Monagan & Pearce, CASC 2007), ``_reduce``, serves
both Buchberger loops, normal forms and the final interreduction.  It
scans its divisor list through a memo, valid while the list only grows at
its end: a monomial maps to the index of the first element whose lead
divides it, or to ~n when none of the first n does, and a later reduction
of that monomial starts its scan there.  Every step, and so every basis
and every tracked run's log, is the one a scan from the start gives.  The
signature loop passes an optional signature bound, and a term is then
reduced by the first element from its memo entry on whose multiple has a
smaller signature, or stays in the remainder when none has.  A run keeps
one memo for its basis list, and each normal form a fresh one.  The final
interreduction goes smallest lead first.  A tail whose terms descend,
none of them divisible by a lead of the run, is settled: it and its bound
stay as the run left them.  The run's memo decides this, so only the
divisors added since a term was last scanned are tested; most tails a
signature run leaves are settled.  Every other tail is reduced against the
elements already reduced, through one memo for that list.  The returned
``GroebnerBasis`` keeps the packed divisors, which normal forms and seeded
runs use as they are.  Both loops build S-polynomials through
``_s_polynomial`` and charge the pairs they form to the budget through
``_charge``.

A basis also answers, from its packed leads and normal forms, what the
ideal and quotient layers ask of S/(its ideal), so that no layer above
reads a packed monomial: the leading monomials, unpacked from the divisors;
the numerator of the Hilbert series of S/in by Bigatti's pivot recursion
(J. Pure Appl. Algebra 119, 1997) on the leads; the standard monomials, an
order ideal walked up from 1; the socle matrix, whose entries are the
normal forms of the products x_v*m of a variable and a standard monomial;
and the coefficient rows of a list of normal forms.  Every normal form
goes through ``normal_form``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceeded, ExponentOverflow, NotArtinian, RingMismatch
from .linalg import rref
from .polyring import (
    EXPONENT_BITS,
    MAX_EXPONENT,
    Monomial,
    MonomialOrder,
    Packing,
    PolyRing,
    Polynomial,
    _packing,
)

# max pairs one Buchberger run forms, the pair loop's S-pairs or the
# signature loop's J-pairs, pruned or not, before it raises BudgetExceeded;
# both loops read it at each update, so this module attribute is the one
# that governs
DEFAULT_PAIR_BUDGET = 1_000_000

def _overflow() -> ExponentOverflow:
    return ExponentOverflow(f"an exponent in the Groebner engine exceeds {MAX_EXPONENT}")


def _repack(terms: dict, source: Packing, target: Packing) -> dict:
    """A packed term dict of one layout in another; the dict itself when the
    two are one, as for a grevlex run's inputs and outputs."""
    if source is target:
        return terms
    return {target.pack(source.unpack(m)): c for m, c in terms.items()}


def _reduce(
    terms: dict,
    divisors: Sequence[tuple],
    p: int,
    pk: Packing,
    memo: dict,
    steps: list | None = None,
    signature: tuple | None = None,
) -> dict:
    """Full remainder of a packed term dict against monic packed divisors.

    ``divisors`` holds (lead, bound, tail) triples from ``Packing.divisor``;
    the first in list order whose lead divides the largest remaining term is
    used.  Terms wait in a heap keyed ``-(m ^ mask)``; a term cancelled to
    zero keeps its heap entry and is skipped when popped.  The remainder
    comes out in descending order.  A ``steps`` list logs each step as
    (divisor lead, multiplier, coefficient), so that terms ==
    sum of coefficient * multiplier * divisor + remainder.

    The ``memo`` serves calls against one list that only grows at its end;
    a fresh dict serves any list.  It maps a monomial to the index of its
    first divisor, or to ~n when none of the first n divisors divides it; a
    scan starts there and its finding is written back, so the first-divisor
    rule holds as it would without it.  The final interreduction reads a
    run's memo to find the tails that no reduction would change, and calls
    this only for the others.

    A ``signature`` (sig, ratios, widen) from ``_signature_loop`` bounds a
    reduction of terms of signature sig to the multiples q*g of smaller
    signature, those with widen(key of q*lead_g) + ratios[g] < sig: from a
    term's first divisor the scan goes on to the first that passes this test
    as well, and a term that none passes stays in the remainder.  widen
    keeps the order of keys, and every term popped is at most the largest
    term, so ratios[g] < bar = sig - widen(key of the largest term) passes
    the test at every term: only a divisor at or above bar needs it.
    """
    mask, guard = pk.mask, pk.guard
    work = dict(terms)
    heap = [-(m ^ mask) for m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    if signature is not None:
        sig, ratios, widen = signature
        bar = sig - widen(-heap[0]) if heap else 0
    remainder: dict = {}
    n = len(divisors)
    while heap:
        key = -pop(heap)
        m = key ^ mask
        c = work.pop(m)
        if not c:
            continue
        shifted = m | guard
        i = memo.get(m, -1)
        if i < 0:
            # none of the first ~i divides m: scan on from there
            i = ~i
            while i < n and (shifted - divisors[i][0]) & guard != guard:
                i += 1
            memo[m] = i if i < n else ~n
        if signature is not None and i < n and ratios[i] >= bar:
            # a multiple q*g is smaller in signature iff ratios[g] < below
            below = sig - widen(key)
            while i < n and (ratios[i] >= below or (shifted - divisors[i][0]) & guard != guard):
                i += 1
        if i == n:
            remainder[m] = c
            continue
        lead, bound, tail = divisors[i]
        q = (shifted - lead) ^ guard
        if (q + bound) & guard:
            raise _overflow()
        if steps is not None:
            steps.append((lead, q, c))
        c = p - c
        for tm, tc in tail.items():
            mm = q + tm
            v = work.get(mm)
            if v is None:
                work[mm] = c * tc % p
                push(heap, -(mm ^ mask))
            else:
                work[mm] = (v + c * tc) % p
    return remainder


def _echelon_by_degree(gens: list[Polynomial], p: int, own: Packing, pk: Packing) -> list[tuple[dict, int]]:
    """(packed term dict in the layout ``pk``, degree) for each row of the
    reduced row echelon form of the homogeneous ``gens`` of each degree,
    ascending by degree and, within one, by lead.

    The columns are the degree's monomials in descending order of ``pk``,
    so each row is monic, its lead is its pivot, no other row of its degree
    has a term there, and its terms descend, as the final interreduction
    needs of a settled tail.  Row operations within one degree keep the
    ideal.
    """
    mask = pk.mask
    by_degree: dict[int, list[dict]] = {}
    for g in gens:
        by_degree.setdefault(g.total_degree(), []).append(_repack(g._terms, own, pk))
    out = []
    for degree in sorted(by_degree):
        rows = by_degree[degree]
        columns = sorted({m for terms in rows for m in terms}, key=mask.__xor__, reverse=True)
        index = {m: i for i, m in enumerate(columns)}
        dense = []
        for terms in rows:
            row = [0] * len(columns)
            for m, c in terms.items():
                row[index[m]] = c
            dense.append(row)
        echelon, _ = rref(dense, p)
        out += [({columns[i]: c for i, c in enumerate(row) if c}, degree) for row in reversed(echelon)]
    return out


def _s_polynomial(a: tuple, b: tuple, lcm: int, p: int, guard: int) -> dict:
    """The S-polynomial (lcm/lead_a)*a - (lcm/lead_b)*b of two monic packed
    divisors with packed lcm ``lcm``: the leads cancel, leaving
    qa*tail_a - qb*tail_b."""
    la, ba, ta = a
    lb, bb, tb = b
    qa, qb = lcm - la, lcm - lb
    if (qa + ba) & guard or (qb + bb) & guard:
        raise _overflow()
    s = {qa + m: c for m, c in ta.items()}
    for m, c in tb.items():
        mm = qb + m
        s[mm] = (s.get(mm, 0) - c) % p
    return s


def _charge(formed: int) -> None:
    """Raise BudgetExceeded once a run has formed more than the budget's
    pairs, pruned or not."""
    if formed > DEFAULT_PAIR_BUDGET:
        raise BudgetExceeded(f"pair budget of {DEFAULT_PAIR_BUDGET} exhausted")


def _below_p(ring: PolyRing) -> tuple[int, int, int]:
    """(b, offset, guard) with b = min(p, 2^16): a packed monomial m has
    every exponent below b iff (m + offset) & guard is 0 (see
    ``_power_below_p``)."""
    pk = ring.packing
    bound = min(ring.p, MAX_EXPONENT + 1)
    return bound, (MAX_EXPONENT + 1 - bound) * pk.ones, pk.guard


def _outside_bracket(f: Polynomial) -> bool:
    """f is outside m^[p] = (x1^p, ..., xn^p) iff some term of f has every
    exponent below p."""
    _, offset, guard = _below_p(f.ring)
    return any(not (m + offset) & guard for m in f._terms)


def _power_below_p(f: Polynomial, n: int) -> Polynomial:
    """f**n modulo m^[p] = (x1^p, ..., xn^p): the terms of f**n with every
    exponent below p.

    Reduction modulo the monomial ideal m^[p] is a ring map onto S/m^[p], so
    square-and-multiply may drop each product term with an exponent >= p as
    soon as it arises, and the full power is never formed.  With
    b = min(p, 2^16), adding 2^16 - b to every exponent field of a product
    sets a guard bit iff some exponent is >= b; the degree field, which
    never reaches n*2^16 while none is, sets its own only then.  Below
    p = 2^16 that drops the term; above it the exponent does not fit, as in
    Polynomial.__mul__.
    """
    ring = f.ring
    p = ring.p
    bound, offset, guard = _below_p(ring)

    def times(a: dict, b: dict) -> dict:
        out: dict = {}
        for m1, c1 in a.items():
            m1 += offset
            for m2, c2 in b.items():
                m = m1 + m2
                if not m & guard:
                    out[m] = out.get(m, 0) + c1 * c2
                elif bound < p:
                    raise _overflow()
        return {m - offset: c % p for m, c in out.items() if c % p}

    base = {m: c for m, c in f._terms.items() if not (m + offset) & guard}
    result = {0: 1}
    while n:
        if n & 1:
            result = times(result, base)
        n >>= 1
        if n:
            base = times(base, base)
    return ring._poly(result)


def _plus_shifted(a: list[int], b: list[int], shift: int, sign: int = 1) -> list[int]:
    """a(t) + sign * t**shift * b(t), coefficient lists from degree 0 up,
    with no trailing zeros."""
    out = a + [0] * (len(b) + shift - len(a))
    for k, c in enumerate(b):
        out[k + shift] += sign * c
    while out and not out[-1]:
        out.pop()
    return out


def _hilbert_numerator(gens: list[int], pk: Packing) -> list[int]:
    """K(t) with HS(S/M) = K(t)/(1 - t)^n for the monomial ideal M minimally
    generated by the packed monomials ``gens`` of the grevlex layout ``pk``,
    by the pivot recursion K(M) = K(M + (x^a)) + t^a * K(M : x^a) (Bigatti
    1997), where x is the first variable in most generators and a its
    smallest exponent there; both sides lower the sum of the generator
    degrees.  Generators with no variable in common are a regular sequence
    (or hold 1), and K is the product of their factors 1 - t^deg.

    A monomial's degree is its field at ``span``, and x^a divides m iff no
    guard bit of (m | guard) - x^a clears, so M : x^a is m - x^a on the
    generators x holds.  The count of generators holding each variable is
    one sum: a field of (m & exponents) + largest*ones carries into its
    guard bit iff the exponent is nonzero, and shifted down by ``bits``,
    each count has its field's 17 bits to itself, which hold it below 2^17
    generators.  A run's basis stays far below that: its k minimal leads
    charge at least k(k - 1)/2 pairs to the budget.
    """
    exponents, guard, bits, largest, span = pk.exponents, pk.guard, pk.bits, pk.largest, pk.span
    fill, wide = largest * pk.ones, (largest << 1) | 1
    holding = sum(((m & exponents) + fill) & guard for m in gens) >> bits
    counts = [holding >> s & wide for s in pk.shifts]
    most = max(counts, default=0)
    if most < 2:
        out = [1]
        for m in gens:
            out = _plus_shifted(out, out, m >> span, -1)
        return out
    x = counts.index(most)
    s = pk.shifts[x]
    a = min(e for e in (m >> s & largest for m in gens) if e)
    power = a * pk.units[x]
    # x^a divides every generator holding x, so M + (x^a) is minimally
    # generated by the rest and x^a, which holds no variable of theirs:
    # K(M + (x^a)) = (1 - t^a) * K(rest).  In M : x^a only a lowered
    # generator can divide another, and ascending ints put a divisor, of
    # lower degree, before its multiples.
    rest = [m for m in gens if not m >> s & largest]
    lowered: list[int] = []
    for m in sorted({m - power for m in gens if m >> s & largest}):
        shifted = m | guard
        if not any((shifted - g) & guard == guard for g in lowered):
            lowered.append(m)
    quotient = lowered + [m for m in rest if not any(((m | guard) - g) & guard == guard for g in lowered)]
    below = _hilbert_numerator(rest, pk)
    return _plus_shifted(_plus_shifted(below, below, a, -1), _hilbert_numerator(quotient, pk), a)


class _PairQueue:
    """The S-pairs of a growing basis, kept by the Gebauer-Moeller update
    and popped by sugar, then lcm, then index.

    Elements are numbered in the order ``add`` receives their packed leads.
    A queued pair is (sugar, lcm ^ mask, i, j) with i < j, so the heap
    pops it in exactly that order.  Lcms, their degrees and the sugars come
    from the packed leads and their degrees (``Packing.lcm``); no lead is
    unpacked per pair unless two leads' degrees sum to 2^17 or more.
    """

    def __init__(self, pk: Packing):
        self.pk = pk
        self.formed = 0  # pairs formed so far, pruned or not
        self.leads: list[int] = []
        self.degrees: list[int] = []  # total degree of each lead
        self.sugars: list[int] = []
        self.active: list[int] = []  # elements whose lead no later lead divides
        self.heap: list[tuple] = []

    def add(self, lead: int, sugar: int) -> None:
        """Enter a new element with this packed lead and sugar: form its
        pairs with the active elements, keep those that criteria M and F
        spare, and drop the queued pairs that criterion B_k makes redundant."""
        pk, leads, degrees, sugars, active, heap = (
            self.pk, self.leads, self.degrees, self.sugars, self.active, self.heap)
        mask, guard, lcm_of = pk.mask, pk.guard, pk.lcm
        self.formed += len(active)
        _charge(self.formed)
        t = len(leads)
        deg = pk.total_degree(lead)

        # (lcm(lead_i, lead_t), its degree) for every active i, and on
        # demand for the others
        lcm_with = {i: lcm_of(leads[i], lead, degrees[i] + deg) for i in active}

        def lcm_t(i: int) -> int:
            found = lcm_with.get(i)
            return (found or lcm_of(leads[i], lead, degrees[i] + deg))[0]

        # M and F on the new pairs (i, t), ascending by (lcm, i): a proper
        # divisor of an lcm sorts before it, and equal lcms sit together
        minimal: list[tuple] = []  # (lcm, i, coprime) per surviving distinct lcm
        for key, i in sorted([(lcm ^ mask, i) for i, (lcm, _) in lcm_with.items()]):
            lcm = key ^ mask
            if minimal and minimal[-1][0] == lcm:
                # F keeps one pair per lcm, none if any is coprime.  A coprime
                # pair of the group comes first: its lead divides the other
                # members' leads, and an active lead has no older multiple.
                continue
            shifted = lcm | guard
            for other, _, _ in minimal:
                if (shifted - other) & guard == guard:
                    break  # M: another new lcm properly divides this one
            else:
                minimal.append((lcm, i, lcm == leads[i] + lead))

        # B_k: lead_t divides the lcm of a queued pair (i, j) and that lcm
        # differs from both lcm(i, t) and lcm(j, t)
        queued = [
            e for e in heap
            if ((((e[1] ^ mask) | guard) - lead) & guard != guard
                or e[1] ^ mask in (lcm_t(e[2]), lcm_t(e[3])))
        ]
        if len(queued) < len(heap):
            heap[:] = queued
            heapq.heapify(heap)

        for lcm, i, coprime in minimal:
            if not coprime:
                d = lcm_with[i][1]
                s = max(sugars[i] + d - degrees[i], sugar + d - deg)
                heapq.heappush(heap, (s, lcm ^ mask, i, t))

        active[:] = [i for i in active if ((leads[i] | guard) - lead) & guard != guard]
        active.append(t)
        leads.append(lead)
        degrees.append(deg)
        sugars.append(sugar)

    def add_processed(self, lead: int, sugar: int) -> None:
        """Enter an element of a seed: active, with no pairs formed.  The
        seed's leads divide none of each other, and its pairs reduce to zero
        within the seed, so this is the state a run on the seed alone ends
        in."""
        self.active.append(len(self.leads))
        self.leads.append(lead)
        self.degrees.append(self.pk.total_degree(lead))
        self.sugars.append(sugar)

    def pop(self) -> tuple:
        """The next pair as (sugar, packed lcm, i, j)."""
        sugar, key, i, j = heapq.heappop(self.heap)
        return sugar, key ^ self.pk.mask, i, j


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced monic Groebner basis, sorted by descending leading monomial.

    ``generators`` are the polynomials the run was built from, which a run
    seeded with this basis skips.
    """

    ring: PolyRing
    order: MonomialOrder
    polys: tuple[Polynomial, ...]
    generators: tuple[Polynomial, ...] = field(default=(), compare=False, repr=False)
    # the polys as packed monic divisors (``Packing.divisor``) in the
    # layout of ``order``, in the same order; a run hands over its own, and
    # they are made here otherwise
    divisors: tuple[tuple, ...] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.divisors is None:
            pk, own, p = self.packing, self.ring.packing, self.ring.p
            divisors = tuple(pk.divisor(_repack(g._terms, own, pk), p) for g in self.polys)
            object.__setattr__(self, "divisors", divisors)

    @property
    def packing(self) -> Packing:
        return _packing(self.order, self.ring.nvars)

    @property
    def leading_monomials(self) -> tuple:
        unpack = self.packing.unpack
        return tuple(unpack(lead) for lead, _, _ in self.divisors)

    def _leads(self) -> list[int]:
        """The packed leads in the grevlex layout of the ring's polynomials."""
        pk, own = self.packing, self.ring.packing
        leads = [lead for lead, _, _ in self.divisors]
        return leads if pk is own else [own.pack(pk.unpack(m)) for m in leads]

    def _hilbert_numerator(self) -> list[int]:
        """The numerator K(t) of HS(S/in) = K(t)/(1 - t)^n, in = the ideal
        of the leads, which are minimal (``_hilbert_numerator``)."""
        return _hilbert_numerator(self._leads(), self.ring.packing)

    @cached_property
    def _standard(self) -> list[int]:
        """The packed standard monomials, those no lead divides, ascending
        in the ring's order; NotArtinian unless the leads hold a pure power
        of every variable, so that there are finitely many.

        They form an order ideal, walked up from 1: each one but 1 is
        reached once, from its quotient by the last variable it holds, as a
        product m*x_v of a standard m and a variable x_v from the last one m
        holds on.  Only the leads that hold x_v can divide m*x_v, so only
        the standard monomials and their boundary are tested, each against
        those leads."""
        if self.is_unit_ideal():
            return []
        ring = self.ring
        own = ring.packing
        leads, units, span = self._leads(), own.units, own.span
        powered = {v for m in leads for v, unit in enumerate(units) if m == (m >> span) * unit}
        if len(powered) < len(units):
            missing = [name for v, name in enumerate(ring.variables) if v not in powered]
            raise NotArtinian(f"no pure power of {', '.join(missing)} in the leading-term ideal")
        guard, largest = own.guard, own.largest
        holding = [[g for g in leads if g >> s & largest] for s in own.shifts]
        standard, last = [0], [0]
        for m, first in zip(standard, last):
            for v in range(first, len(units)):
                bumped = m + units[v]
                shifted = bumped | guard
                if not any((shifted - g) & guard == guard for g in holding[v]):
                    standard.append(bumped)
                    last.append(v)
        return sorted(standard, key=ring._key())

    def _standard_monomials(self) -> list[Monomial]:
        """The standard monomials as exponent tuples (see ``_standard``)."""
        unpack = self.ring.packing.unpack
        return [unpack(m) for m in self._standard]

    def _socle_rows(self, graded: bool) -> tuple[list[list[int]], int]:
        """(rows, n): the matrix whose kernel is the socle of S/(the ideal),
        over the n standard monomials m_j (``_standard``), and n.

        Row v*n + i, column j holds the coefficient of m_i in the normal form
        of x_v*m_j.  A standard product is its own normal form, and on a
        ``graded`` ideal, where no monomial of a degree above the top
        standard degree is standard, a product of m_j at that degree is
        zero; only the other products take a normal form."""
        standard = self._standard
        n = len(standard)
        if not n:
            return [], 0
        own = self.ring.packing
        units, span = own.units, own.span
        index = {m: i for i, m in enumerate(standard)}
        top = max(standard) >> span
        rows = [[0] * n for _ in range(len(units) * n)]
        for j, m in enumerate(standard):
            if graded and m >> span == top:
                continue
            for v, unit in enumerate(units):
                bumped = m + unit
                i = index.get(bumped)
                if i is not None:
                    rows[v * n + i][j] = 1
                    continue
                for mm, c in self.normal_form(self.ring._poly({bumped: 1}))._terms.items():
                    rows[v * n + index[mm]][j] = c
        return rows, n

    def _standard_combinations(self, vectors: list[list[int]]) -> list[Polynomial]:
        """sum c_j*m_j over the standard monomials m_j for each nonzero
        coefficient vector c, by descending leading monomial in the ring's
        order: the m_j ascend, so a lead is the last m_j with c_j nonzero."""
        standard = self._standard
        out = [(max(j for j, c in enumerate(vec) if c), {standard[j]: c for j, c in enumerate(vec) if c})
               for vec in vectors]
        out.sort(key=lambda pair: pair[0], reverse=True)
        return [self.ring._poly(terms) for _, terms in out]

    def _normal_form_rows(self, polys: Sequence[Polynomial]) -> tuple[list[list[int]], list[Polynomial]]:
        """The normal forms of ``polys`` and their coefficient matrix: one
        row per monomial some normal form holds, whose entry j is its
        coefficient in the j-th."""
        forms = [self.normal_form(g) for g in polys]
        rows: dict[int, list[int]] = {}
        for j, f in enumerate(forms):
            for m, c in f._terms.items():
                rows.setdefault(m, [0] * len(forms))[j] = c
        return list(rows.values()), forms

    def normal_form(self, g: Polynomial) -> Polynomial:
        if g.ring != self.ring:
            raise RingMismatch("polynomial from a different ring")
        if not self.polys:
            return g
        pk, own = self.packing, self.ring.packing
        reduced = _reduce(_repack(g._terms, own, pk), self.divisors, self.ring.p, pk, {})
        return self.ring._poly(_repack(reduced, pk, own))

    def contains(self, g: Polynomial) -> bool:
        return self.normal_form(g).is_zero

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and not self.divisors[0][0]

    def frobenius_image(self, e: int, generators: tuple[Polynomial, ...]) -> "GroebnerBasis":
        """The basis of the images g**(p**e), recording ``generators``.

        It is the reduced basis of the image ideal in the same order:
        Frobenius is additive and fixes F_p, and m -> m**(p**e) preserves the
        monomial order and divisibility of monomials.  With q = p**e, each
        packed divisor is scaled field by field, times q, with its
        coefficients kept, since c**q = c in F_p, and the polys are rebuilt
        from the scaled divisors.  Raises ExponentOverflow when an image
        exponent leaves the exponent field.
        """
        q = self.ring.p ** e
        pk, own = self.packing, self.ring.packing
        divisors = tuple(
            (lead * q, bound * q, pk.scaled(tail, q, pk.bound((lead, bound)))) for lead, bound, tail in self.divisors
        )
        polys = tuple(self.ring._poly(_repack({lead: 1, **tail}, pk, own)) for lead, _, tail in divisors)
        return GroebnerBasis(self.ring, self.order, polys, generators, divisors)


def buchberger(
    generators: Iterable[Polynomial], order: MonomialOrder | None = None
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
    return _buchberger(ring, gens, order)


def groebner_basis_of(
    ring: PolyRing,
    generators: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    *,
    seed: GroebnerBasis | None = None,
) -> GroebnerBasis:
    """Like ``buchberger`` but tolerates an empty generator list (zero ideal).

    A ``seed`` is the reduced basis, in the same ring and order, of an
    ideal inside the one the generators span, such as a summand's cached
    basis: the run starts from it, never forms the pairs among its elements
    and skips the generators it was built from.  The result is the same
    reduced basis as without it.
    """
    order = order or ring.order
    gens = [g for g in generators if not g.is_zero]
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generator from a different ring")
    if seed is not None and (seed.ring != ring or seed.order != order):
        raise ValueError("the seed basis is in another ring or order")
    if not gens:
        return GroebnerBasis(ring, order, ())
    return _buchberger(ring, gens, order, seed)


def syzygy_images(
    seed: GroebnerBasis,
    tags: Sequence[Polynomial],
    g: Polynomial | None = None,
) -> list[Polynomial]:
    """Generators of (P : g) ∩ T modulo P*T, from one tracked run on
    P + (g*t for t in tags) in the seed's order, where P is the seed's
    ideal, T = (tags) and g defaults to 1.  With g = 1, this is P ∩ T;
    with tags = (1), the colon (P : g).

    The run's generators are the products g*t, so each element f of the
    run carries its tag t, with f - g*t in P: for f = (an element of P) +
    sum a_k*g*tags[k], t = sum a_k*tags[k].  Seed elements carry 0.
    (P : g) ∩ T is the image of the syzygies of the run's elements, which
    Schreyer's theorem says the pairs generate; the pairs that criteria M
    and B_k and the inactive-element rule drop have syzygies that the kept
    pairs generate.  An element, S-polynomial or generator, that reduces to
    zero yields its tag.  A coprime pair (i, j) that criterion F drops
    yields f_j*t_i - f_i*t_j = (f_j - g*t_j)*t_i - (f_i - g*t_i)*t_j, which
    lies in P*T, and a pair inside the seed yields 0: the images of the
    zero reductions generate it modulo P*T.
    """
    tags = [t for t in tags if not t.is_zero]
    if not tags:
        return []
    gens = tags if g is None else [g * t for t in tags]
    return _buchberger(seed.ring, gens, seed.order, seed, tags)


def _buchberger(
    ring: PolyRing,
    gens: list[Polynomial],
    order: MonomialOrder,
    seed: GroebnerBasis | None = None,
    tags: Sequence[Polynomial] | None = None,
) -> GroebnerBasis | list[Polynomial]:
    """The reduced basis of (seed) + (gens); with ``tags``, where gens[k]
    is g*tags[k] for one fixed g, a tracked run that returns the images of
    the syzygies instead (see ``syzygy_images``).  A plain grevlex run of
    at most as many generators as variables, not all of them binomials,
    takes the signature loop, any other run the pair loop (see the module
    docstring)."""
    plain = seed is None and tags is None
    if plain and order.kind == "grevlex" and len(gens) <= ring.nvars and any(len(g._terms) > 2 for g in gens):
        return _signature_loop(ring, gens, order)
    return _pair_loop(ring, gens, order, seed, tags)


def _pair_loop(
    ring: PolyRing,
    gens: list[Polynomial],
    order: MonomialOrder,
    seed: GroebnerBasis | None = None,
    tags: Sequence[Polynomial] | None = None,
) -> GroebnerBasis | list[Polynomial]:
    """``_buchberger`` on S-pairs kept by the Gebauer-Moeller update."""
    p, own = ring.p, ring.packing
    pk = _packing(order, ring.nvars)
    guard = pk.guard
    pairs = _PairQueue(pk)
    leads = pairs.leads
    basis: list[tuple] = []  # packed monic divisors (lead, bound, tail)
    memo: dict[int, int] = {}  # a monomial's first divisor in basis (see _reduce)
    # a tracked run keeps each element's nonzero tag, scaled like the
    # element, by its lead: every element enters reduced, so no two leads
    # are equal
    tracked = tags is not None
    carried: dict[int, dict] = {}
    images: list[dict] = []

    def tag_of(tag: dict, steps: list) -> dict:
        """tag - sum of c*q*(tag of the divisor) over the logged steps."""
        out = dict(tag)
        for lead, q, c in steps:
            for m, v in carried.get(lead, {}).items():
                m += q
                out[m] = out.get(m, 0) + (p - c) * v
        if any(m & guard for m in out):
            raise _overflow()
        return {m: v % p for m, v in out.items() if v % p}

    def enter(terms: dict, sugar: int, tag: dict | None, steps: list | None) -> None:
        """Add a reduced polynomial to the basis unless it is zero.  In a
        tracked run its tag is ``tag`` less the logged steps' tags, and the
        tag of a zero polynomial is an image."""
        if tracked:
            tag = tag_of(tag, steps)
            if not terms and tag:
                images.append(tag)
        if terms:
            divisor = pk.divisor(terms, p)
            pairs.add(divisor[0], sugar)
            basis.append(divisor)
            if tracked and tag:
                inv = pow(terms[divisor[0]], p - 2, p)
                carried[divisor[0]] = {m: v * inv % p for m, v in tag.items()}

    # a seed's elements enter as processed, already packed by an equal
    # Packing; the generators then enter reduced against the basis so far,
    # in a run neither seeded nor tracked only those whose lead it divides,
    # and in a plain run of dense homogeneous generators as the rows of
    # their echelon form.  An untracked run skips the generators known to
    # lie in the seed's ideal.
    seeded = seed.polys if seed is not None else ()
    known = {id(g) for g in seed.generators + seeded} if seeded and not tracked else ()
    for g, divisor in zip(seeded, seed.divisors if seeded else ()):
        pairs.add_processed(divisor[0], g.total_degree())
        basis.append(divisor)

    def admit(terms: dict, sugar: int, tag: dict | None = None, steps: list | None = None) -> None:
        lead = max(terms, key=pk.mask.__xor__) | guard
        if seeded or tracked or any((lead - d[0]) & guard == guard for d in basis):
            terms = _reduce(terms, basis, p, pk, memo, steps)
        enter(terms, sugar, tag, steps)

    if seed is None and not tracked and any(len(g._terms) > 2 for g in gens) and all(g.is_homogeneous() for g in gens):
        for terms, degree in _echelon_by_degree(gens, p, own, pk):
            admit(terms, degree)
    else:
        for k, g in enumerate(gens):
            if id(g) in known:
                continue
            terms = _repack(g._terms, own, pk)
            steps = tag = None
            if tracked:
                steps, tag = [], _repack(tags[k]._terms, own, pk)
            admit(terms, g.total_degree(), tag, steps)
    if seeded and len(basis) == len(seeded) and not tracked:
        return seed  # every generator lies in the seed's ideal

    while pairs.heap:
        sugar, lcm, i, j = pairs.pop()
        s = _s_polynomial(basis[i], basis[j], lcm, p, guard)
        # logged as two steps, the S-polynomial's tag is qi*tag_i - qj*tag_j
        steps = [(leads[i], lcm - leads[i], p - 1), (leads[j], lcm - leads[j], 1)] if tracked else None
        enter(_reduce(s, basis, p, pk, memo, steps), sugar, {}, steps)

    if tracked:
        return [ring._poly(_repack(t, pk, own)) for t in images]

    return _reduced_basis(ring, order, [basis[t] for t in pairs.active], gens, basis, memo)


def _reduced_basis(
    ring: PolyRing,
    order: MonomialOrder,
    elements: list[tuple],
    gens: list[Polynomial],
    basis: list[tuple],
    memo: dict,
) -> GroebnerBasis:
    """The reduced basis from the packed monic divisors ``elements`` of a run
    whose leads generate the ideal's leading monomials; ``basis`` is the
    run's divisor list, which holds them, and ``memo`` its reducer memo."""
    p, own = ring.p, ring.packing
    pk = _packing(order, ring.nvars)
    mask, guard = pk.mask, pk.guard
    # minimalize: drop the elements whose lead another kept lead divides
    kept: list[tuple] = []
    for element in sorted(elements, key=lambda e: e[0] ^ mask):
        shifted = element[0] | guard
        if not any((shifted - lead) & guard == guard for lead, _, _ in kept):
            kept.append(element)

    n = len(basis)

    def settled(lead: int, tail: dict) -> bool:
        """Whether reducing ``tail`` would return it as it is: its terms
        descend, and no lead of the run divides one, as the run's memo
        records up to the divisors added since, which are scanned."""
        last = lead ^ mask
        for m in tail:
            key = m ^ mask
            if key > last:
                return False
            last = key
            i = memo.get(m, -1)
            if i >= 0:
                return False
            shifted = m | guard
            for i in range(~i, n):
                if (shifted - basis[i][0]) & guard == guard:
                    memo[m] = i
                    return False
            memo[m] = ~n
        return True

    # interreduce tails, smallest lead first, against the elements already
    # reduced: only a smaller lead can divide a tail term.  A settled tail,
    # such as the signature loop leaves most, keeps its bound as well.  The
    # leads stay, and ``reduced`` only grows at its end, so one memo serves
    # the loop.
    reduced: list[tuple] = []
    interreduced: dict[int, int] = {}
    polys = []
    for lead, bound, tail in kept:
        if not settled(lead, tail):
            tail = _reduce(tail, reduced, p, pk, interreduced)
            bound = pk.bound(tail)
        reduced.append((lead, bound, tail))
        polys.append(ring._poly(_repack({lead: 1, **tail}, pk, own)))
    return GroebnerBasis(ring, order, tuple(reversed(polys)), tuple(gens), tuple(reversed(reduced)))


@cache
def _signature_packing(order: MonomialOrder, nvars: int) -> Packing:
    """The layout of signature leads: fields of r = max(nvars + 1, 3) slots
    of EXPONENT_BITS + 1 bits, for ``_widener``.  Its 17r - 1 >= 50 value
    bits hold every signature of a run: an element's signature is a J-pair's,
    (lcm / lead_a) * sig_a, whose exponents exceed sig_a's by at most
    MAX_EXPONENT, so they stay below (elements + 3) * 2^16, and the pair
    budget keeps the elements below 2^34."""
    return Packing(order, nvars, (EXPONENT_BITS + 1) * max(nvars + 1, 3) - 1)


@cache
def _widener(pk: Packing, wide: Packing, shift: int) -> Callable[[int], int]:
    """The map that moves each field of a packed int of ``pk``, exponent
    fields and grevlex's degree field, to the same field of ``wide``, whose
    fields are r slots of EXPONENT_BITS + 1 bits, and then shifts it left by
    ``shift``.

    One product, with a 1 in slot (r - 1)*k for each k < nvars, puts
    exponent field j in slot j + (r - 1)*k, a different slot for each (j, k)
    since r - 1 >= nvars, so no two sum; that slot is a multiple of r only
    for k = j, and a mask keeps those.  The degree field moves by itself.
    """
    nvars = len(pk.shifts)
    slot = EXPONENT_BITS + 1
    r = (wide.bits + 1) // slot
    spread = sum(1 << (slot * (r - 1) * k + shift) for k in range(nvars))
    low = sum(MAX_EXPONENT << (s + shift) for s in wide.shifts)
    exponents, top, unit = pk.exponents, slot * nvars, wide.degree << shift

    def widen(packed: int) -> int:
        return ((packed & exponents) * spread & low) + (packed >> top) * unit

    return widen


def _signature_loop(ring: PolyRing, gens: list[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """The reduced basis of (gens) from signatures (see the module docstring)."""
    p, nvars = ring.p, ring.nvars
    pk = _packing(order, nvars)
    mask, guard = pk.mask, pk.guard
    wide = _signature_packing(order, nvars)
    smask, sguard = wide.mask, wide.guard
    # A signature t*e_i is the int ((t*lead(f_i) in ``wide``) ^ smask) << shift
    # | i, so ints compare as signatures do.  widen(key) moves the fields of a
    # key m ^ mask to ``wide``, so that widen(key of m) + offset is the
    # signature m*e_0, and widen(key of m*m') = widen(key of m) + widen(key
    # of m') - one.  An element g of signature sig_g has the ratio
    # sig_g - widen(key of lead_g), and a multiple q*g has the signature
    # widen(key of q*lead_g) + ratio_g.
    shift = len(gens).bit_length()
    index = (1 << shift) - 1
    widen = _widener(pk, wide, shift)
    one = widen(mask)
    offset = (smask << shift) - one

    syzygies: list[list[int]] = [[] for _ in gens]  # minimal known syzygy leads, per index
    covers: list[list[tuple]] = [[] for _ in gens]  # (ratio, signature lead) of the elements, per index

    def known(sig: int) -> bool:
        """Whether a known syzygy's signature divides sig."""
        shifted = ((sig >> shift) ^ smask) | sguard
        for h in syzygies[sig & index]:
            if (shifted - h) & sguard == sguard:
                return True
        return False

    def note(sig: int) -> None:
        """Record the signature of a syzygy, keeping each index's minimal."""
        lead = (sig >> shift) ^ smask
        found = syzygies[sig & index]
        shifted = lead | sguard
        for h in found:
            if (shifted - h) & sguard == sguard:
                return
        found[:] = [h for h in found if ((h | sguard) - lead) & sguard != sguard]
        found.append(lead)

    def covered(sig: int, ratio: int) -> bool:
        """Whether an element g whose signature divides sig has a larger
        ratio than the J-pair's element, so (sig / sig_g)*lead_g is below
        the J-pair's lcm."""
        shifted = ((sig >> shift) ^ smask) | sguard
        for e, h in covers[sig & index]:
            if e > ratio and (shifted - h) & sguard == sguard:
                return True
        return False

    basis: list[tuple] = []  # packed monic divisors (lead, bound, tail)
    widened: list[int] = []  # widen(key of each lead)
    degrees: list[int] = []  # total degree of each lead
    ratios: list[int] = []  # signature - widen(key of lead) of each element
    memo: dict[int, int] = {}
    # a queued entry is (signature, lcm ^ mask, a, b): the J-pair whose
    # signature is that of (lcm / lead_a) * element a, or generator b for a = -1
    inputs = [_repack(g._terms, ring.packing, pk) for g in gens]
    heap = []
    for i, terms in enumerate(inputs):
        key = max(m ^ mask for m in terms)
        heap.append((widen(key) + offset + i, key, -1, i))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    formed = 0
    while heap:
        sig, key, a, b = pop(heap)
        if a < 0:
            terms = inputs[b]
        elif known(sig) or covered(sig, ratios[a]):
            continue
        else:
            terms = _s_polynomial(basis[a], basis[b], key ^ mask, p, guard)
        terms = _reduce(terms, basis, p, pk, memo, signature=(sig, ratios, widen))
        if not terms:
            note(sig)
            continue
        divisor = pk.divisor(terms, p)
        lead = divisor[0]
        deg = pk.total_degree(lead)
        wk = widen(lead ^ mask)
        ratio = sig - wk
        # the Koszul syzygies with the earlier elements first, so that the
        # J-pairs below meet them
        for w, e in zip(widened, ratios):
            if e != ratio:
                note(w + wk - one + max(e, ratio))
        formed += len(ratios)
        _charge(formed)
        t = len(basis)
        for j, e in enumerate(ratios):
            if e == ratio:
                continue  # the two multiples' signatures cancel
            lk = pk.lcm(basis[j][0], lead, degrees[j] + deg)[0] ^ mask
            jsig = widen(lk) + max(e, ratio)
            if not known(jsig):
                push(heap, (jsig, lk, j, t) if e > ratio else (jsig, lk, t, j))
        basis.append(divisor)
        widened.append(wk)
        degrees.append(deg)
        ratios.append(ratio)
        covers[sig & index].append((ratio, (sig >> shift) ^ smask))
    return _reduced_basis(ring, order, basis, gens, basis, memo)
