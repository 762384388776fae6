"""Quotient-ring computations: nonzerodivisor and regular-sequence tests,
socles of Artinian reductions, a bounded Frobenius-closure test for parameter
ideals, and an independent linear-algebra membership oracle for Artinian
ideals.

Everything here works with an ambient presentation R = k[x1..xn]/defining.
``normal_form`` represents residue classes by normal forms against the
defining ideal's basis in the ring's order.  A form x is a nonzerodivisor
modulo a homogeneous ideal J exactly when the Hilbert series of S/(J + x)
is (1 - t^deg x) times that of S/J, and both are read off the leading terms
of grevlex bases; only inhomogeneous inputs build the colon (J : x).
Likewise a membership in a homogeneous target defining + power, such as
defining + parameter^[q], asked of Frobenius powers of degree at most that
of every generator of power, is linear algebra on normal forms modulo the
defining ideal's basis (``_bracket_kernel``); other targets are decided by
their own Groebner basis.  No answer that is already known is asked for
again: each Frobenius depth of the closure test starts from the normal
forms of the one before, a witness at depth e is one at every depth above,
as the p-th bracket power of the depth-e target lies in the next, and a
socle reduces only the products of a variable and a standard monomial that
are neither standard nor, on a homogeneous ideal, above the top standard
degree.  The socle matrix and the kernel rows are built from packed normal
forms inside ``GroebnerBasis`` (``_socle_rows``, ``_normal_form_rows``), and
this module reads no packed monomial.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BudgetExceeded,
    FroblabError,
    InputAssumptionViolation,
    NotArtinian,
    RingMismatch,
    ZeroElement,
)
from .groebner import _plus_shifted
from .ideals import Ideal
from .linalg import Echelon, nullspace, rref
from .polyring import GREVLEX, MAX_EXPONENT, Monomial, PolyRing, Polynomial
from .reports import (
    CLOSED_UP_TO,
    NOT_FROBENIUS_CLOSED,
    ClosureReport,
    ClosureWitness,
)

DEFAULT_CLOSURE_EMAX = 3
_PARAMETER_ATTEMPTS = 200  # random sequences suggest_parameter_sequence tries


@dataclass(frozen=True)
class SocleBasis:
    """Basis of the socle of R/(parameter + defining), as normal-form
    representatives.  dimension == 1 is the Gorenstein (type-1) case."""

    parameter: Ideal
    basis: tuple[Polynomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


class QuotientPresentation:
    """R = k[x1..xn]/defining with the defining ideal inside (x1..xn)."""

    def __init__(self, ring: PolyRing, defining: Ideal):
        if not isinstance(defining, Ideal):
            raise TypeError(f"expected Ideal, got {type(defining).__name__}")
        if defining.ring != ring:
            raise RingMismatch("defining ideal lives in a different ring")
        for g in defining.generators:
            if g.constant_coefficient():
                raise FroblabError(
                    f"defining generator {g} has a nonzero constant term, so the "
                    "presentation is not local at the ideal of variables"
                )
        self.ring = ring
        self.defining = defining

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def maximal_ideal(self) -> Ideal:
        return Ideal(self.ring, tuple(self.ring.variable(v) for v in self.ring.variables))

    @property
    def dimension(self) -> int:
        return self.defining.krull_dimension()

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.defining.generators) or "0"
        return f"QuotientPresentation(GF({self.p})[{', '.join(self.ring.variables)}] / ({gens}))"

    def normal_form(self, g: Polynomial) -> Polynomial:
        return self.defining.groebner_basis().normal_form(g)

    def is_zero_in_quotient(self, g: Polynomial) -> bool:
        return self.defining.contains(g)

    def is_nzd(self, g: Polynomial) -> bool:
        """True iff g is a nonzerodivisor on R, i.e. (defining : g) == defining."""
        if self.defining.contains(g):
            raise ZeroElement(f"{g} is zero in the quotient")
        return self._regular_sum((g,)) is not None

    def is_regular_sequence(self, elements: Sequence[Polynomial]) -> bool:
        """Iterated nonzerodivisor test; also requires the final quotient to
        stay proper, so units and over-long sequences come back False."""
        full = self._regular_sum(elements)
        return full is not None and not full.is_unit()

    def _regular_sum(self, elements: Sequence[Polynomial]) -> Ideal | None:
        """defining + (elements) when each element is a nonzerodivisor modulo
        the ones before it, else None; the sum is returned so that callers
        share its Groebner basis.

        While the sum so far and x are homogeneous, x of degree d, the exact
        sequence 0 -> ((J : x)/J)(-d) -> (S/J)(-d) -> S/J -> S/(J + x) -> 0
        says x is a nonzerodivisor on S/J iff HS(S/(J + x)) equals
        (1 - t^d) * HS(S/J), which two Hilbert numerators decide from the
        grevlex basis of J + x that the next step uses anyway.  Otherwise
        (J : x) is built: it is J plus its cofactors, none of them in J
        (``Ideal.colon_steps``), so x is a nonzerodivisor iff there is no
        cofactor."""
        current = self.defining
        graded = all(g.is_homogeneous() for g in current.generators)
        for x in elements:
            if current.contains(x):
                return None
            principal = Ideal(self.ring, (x,))
            bigger = current + principal
            graded = graded and x.is_homogeneous()
            if graded:
                numerator = current.hilbert_numerator()
                expected = _plus_shifted(numerator, numerator, x.total_degree(), -1)
                if bigger.hilbert_numerator() != expected:
                    return None
            elif len(current.colon(principal).generators) > len(current.generators):
                return None
            current = bigger
        return current

    def socle(self, parameter: Ideal) -> SocleBasis:
        """Socle of R/(parameter + defining): the kernel of multiplication by
        every variable on the standard-monomial basis."""
        return self._socle(parameter, self.defining + parameter)

    def _socle(self, parameter: Ideal, full: Ideal) -> SocleBasis:
        """socle(parameter), given full = defining + parameter.

        The standard monomials and normal forms come from the grevlex basis
        of full, whatever the ring's order: the kernel of its socle matrix
        (``GroebnerBasis._socle_rows``), whose columns hold the normal forms
        of the products x_v*m of a variable and a standard monomial m, read
        as combinations of the standard monomials."""
        gb = full.groebner_basis(GREVLEX)
        rows, n = gb._socle_rows(all(g.is_homogeneous() for g in full.generators))
        if not n:
            return SocleBasis(parameter, ())
        return SocleBasis(parameter, tuple(gb._standard_combinations(nullspace(rows, n, self.p))))

    def frobenius_closure_test(
        self, parameter: Ideal, e_max: int = DEFAULT_CLOSURE_EMAX
    ) -> ClosureReport:
        """Probe whether the parameter ideal is Frobenius closed, through
        socle elements: a witness s with s**(p**e) in the bracket power is
        decisive (NOT_FROBENIUS_CLOSED); exhausting e <= e_max is evidence
        only (CLOSED_UP_TO).

        Every nonzero k-linear combination s = sum c_i*b_i of the socle basis
        is decided, with one kernel per depth: since c**q == c over F_p,
        NF(s**q) = sum c_i*NF(b_i**q), so the combinations with s**q in
        defining + parameter^[q] are the kernel of the matrix whose columns
        are the normal forms NF(b_i**q).  The witness is the combination the
        exhaustive sweep in ``itertools.product`` order meets first: the
        smallest base-p index over the kernels of all depths, at the smallest
        depth on a tie; combination_index is that index minus 1.  No
        combination is ever skipped, so the report is never partial.

        Each kernel comes from ``_bracket_kernel``.  When defining and the
        parameters are homogeneous, so are the socle basis and the witness,
        and when no b_i**q has a degree above that of a parameter's power, as
        for a socle of degree 1 and linear parameters, the depth is decided
        modulo the basis of defining, and no target is built.  Otherwise the
        complete grevlex basis of the depth-e target decides, its run seeded
        with a summand's cached basis.

        A depth's columns need only be congruent to the b_i**q modulo its
        target T_e = defining + parameter^[q], and T_e**[p] lies in T_(e+1)
        (g**p is in defining when g is), so depth e + 1 raises to the p-th
        power the few-term normal forms modulo T_e that ``_bracket_kernel``
        hands back for depth e.  While q*max(deg b_i) fits the exponent
        field, so do these powers; past it, the b_i**q are formed from the
        socle basis, so that an overflow is the one that power raises.

        For the same reason monotonicity_verified is true by construction
        whenever there is a witness: s**q in T_e gives s**(q*p) in
        T_e**[p], inside T_(e+1), as Frobenius is additive on S.
        """
        if e_max < 0:
            raise InputAssumptionViolation(f"e_max must be nonnegative, got {e_max}")
        full = self._regular_sum(parameter.generators)
        regular = full is not None and not full.is_unit()
        soc = self._socle(parameter, full if full is not None else self.defining + parameter)
        r = soc.dimension
        p = self.p

        best: tuple[int, int, tuple[int, ...]] | None = None  # (index, e, coefficients)
        if r and e_max:
            # every bracket power is formed up front, as the sweep did, so one
            # that leaves the exponent field raises whatever the witness
            powers = [parameter.bracket_power(e) for e in range(1, e_max + 1)]
            top = max(b.total_degree() for b in soc.basis)
            columns: Sequence[Polynomial] = soc.basis
            for e, power in enumerate(powers, 1):
                if p ** e * top <= MAX_EXPONENT:
                    columns = [c.frobenius_pow(1) for c in columns]
                else:
                    columns = [b.frobenius_pow(e) for b in soc.basis]
                kernel, columns = _bracket_kernel(self.defining, power, columns)
                if kernel:
                    # the first kernel vector in product order has its first
                    # nonzero coordinate as far right as the kernel allows:
                    # the reduced-echelon row with the largest pivot
                    vec = tuple(kernel[-1])
                    index = sum(c * p ** (r - 1 - i) for i, c in enumerate(vec))
                    if best is None or index < best[0]:
                        best = (index, e, vec)
                    if best[0] == 1:
                        break  # no combination comes before (0, ..., 0, 1)

        witness, tested = None, p ** r - 1 if r and e_max else 0
        if best is not None:
            tested, e, vec = best
            s = sum((b * c for c, b in zip(vec, soc.basis) if c), self.ring.zero())
            witness = ClosureWitness(element=str(s), e=e, combination_index=tested - 1, coefficients=vec)
        return ClosureReport(
            verdict=CLOSED_UP_TO if witness is None else NOT_FROBENIUS_CLOSED,
            e_max=e_max,
            witness=witness,
            regular_sequence_verified=regular,
            socle_dimension=r,
            combinations_tested=tested,
            monotonicity_verified=None if witness is None else True,
        )


def _bracket_kernel(
    base: Ideal, power: Ideal, columns: Sequence[Polynomial]
) -> tuple[list[list[int]], list[Polynomial]]:
    """The reduced-echelon basis of {c : sum c_i*columns[i] in base + power},
    and the columns' normal forms that decided it, each congruent to its
    column modulo base + power.

    When base and every generator y_j of power are homogeneous and no column
    has a term of degree above any deg y_j, a homogeneous h of degree D lies
    in base + power iff h is in base + span{y_j of degree D}: a cofactor of
    y_j has degree D - deg y_j <= 0.  This holds for any homogeneous y_j,
    not only bracket powers.  Normal forms modulo base's cached grevlex
    basis keep degrees (Becker & Weispfenning, Groebner Bases, §10.2), and a
    combination of columns lies in base + power iff each of its homogeneous
    parts does, so the answer is the kernel of [NF(columns) | NF(y_j) for
    each y_j of a degree some column reaches], cut to the columns'
    coordinates; no Groebner run is made.  Otherwise the sum base + power
    is formed and its own basis decides.  The degrees the columns reach are
    their terms' degree fields (``Polynomial.term_degrees``), and the
    matrix has one row per monomial some normal form holds, read off the
    packed normal forms (``GroebnerBasis._normal_form_rows``).
    """
    brackets = [y for y in power.generators if not y.is_zero]
    top = max(c.total_degree() for c in columns)
    if all(g.is_homogeneous() for g in base.generators + tuple(brackets)) and all(
        top <= y.total_degree() for y in brackets
    ):
        gb = base.groebner_basis(GREVLEX)
        reached = set().union(*(c.term_degrees() for c in columns))
        brackets = [y for y in brackets if y.total_degree() in reached]
    else:
        gb, brackets = (base + power).groebner_basis(GREVLEX), []
    rows, vectors = gb._normal_form_rows([*columns, *brackets])
    p = base.ring.p
    kernel = nullspace(rows, len(vectors), p)
    return rref([v[:len(columns)] for v in kernel], p)[0], vectors[:len(columns)]


def artinian_membership_oracle(ideal: Ideal, g: Polynomial) -> bool:
    """Brute-force membership for Artinian ideals, independent of the
    Groebner engine: row-reduce the monomial multiples of the generators
    inside the finite box cut out by explicit pure-power generators, then
    reduce g against that row space.

    The box certificate must be visible in the generator list itself (a pure
    power of every variable); NotArtinian is raised otherwise.  This routine
    deliberately never calls normal_form.
    """
    if g.ring != ideal.ring:
        raise RingMismatch("polynomial from a different ring")
    ring = ideal.ring
    p = ring.p
    n = ring.nvars
    gens = [f.terms() for f in ideal.generators if not f.is_zero]
    for terms in gens:
        if len(terms) == 1 and not any(terms[0][0]):
            return True  # a unit generator: everything is a member
    bounds: list[int | None] = [None] * n
    for terms in gens:
        if len(terms) != 1:
            continue
        ((m, _),) = terms
        nz = [i for i, e in enumerate(m) if e]
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or m[i] < bounds[i]:
                bounds[i] = m[i]
    if any(b is None for b in bounds):
        missing = [ring.variables[i] for i, b in enumerate(bounds) if b is None]
        raise NotArtinian(
            f"no pure-power generator for {', '.join(missing)}; the oracle needs "
            "an explicit finite box"
        )
    size = 1
    for b in bounds:
        size *= b
    if size > 1 << 17:
        raise BudgetExceeded(f"oracle box of {size} monomials is too large")

    box = list(itertools.product(*(range(b) for b in bounds)))
    index = {m: i for i, m in enumerate(box)}

    def truncated(poly_terms: list, shift: Monomial) -> list[int]:
        vec = [0] * len(box)
        for m, c in poly_terms:
            mm = tuple(x + y for x, y in zip(m, shift))
            slot = index.get(mm)
            if slot is not None:
                vec[slot] = (vec[slot] + c) % p
        return vec

    ech = Echelon(p)
    zero_shift = (0,) * n
    for terms in gens:
        for alpha in box:
            ech.add(truncated(terms, alpha))
    return ech.contains(truncated(g.terms(), zero_shift))


def suggest_parameter_sequence(
    presentation: QuotientPresentation,
    count: int,
    seed: int = 0,
    first_inside: Ideal | None = None,
) -> list[Polynomial]:
    """Search for a regular sequence of ``count`` random linear combinations
    of the variables (the first element drawn from ``first_inside`` when
    given), deterministically for a fixed seed."""
    rng = random.Random(seed)
    ring = presentation.ring
    p = presentation.p
    variables = [ring.variable(v) for v in ring.variables]

    def random_combination(pool: Sequence[Polynomial]) -> Polynomial:
        out = ring.zero()
        while out.is_zero:
            out = ring.zero()
            for g in pool:
                out = out + g * rng.randrange(p)
        return out

    for _ in range(_PARAMETER_ATTEMPTS):
        candidate = []
        if first_inside is not None:
            pool = [g for g in first_inside.generators if not g.is_zero]
            if not pool:
                raise FroblabError("cannot draw the first parameter from a zero ideal")
            candidate.append(random_combination(pool))
        while len(candidate) < count:
            candidate.append(random_combination(variables))
        if presentation.is_regular_sequence(candidate):
            return candidate
    raise FroblabError(f"no regular sequence of length {count} found in {_PARAMETER_ATTEMPTS} attempts")
