"""Frobenius singularity checks: Fedder's F-purity test, arithmetic in the
pseudocanonical cover R + I*t with t^2 = f, socle transfer along a
nonzerodivisor, and bounded F-injectivity criteria for the cover.

The cover element (a + b*t) multiplies as (ac + bd*f) + (ad + bc)*t, and for
p > 2 its Frobenius power collapses to a^q + b^q * f^((q-1)/2) * t.  For
p = 2 the cover is never F-injective; the check offered there verifies the
parameters and reports the degeneracy mechanism.  ``socle_lift`` checks the
cover hypotheses once; the identities of its u = first*z that follow from
them hold by construction and are never recomputed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import (
    ContextMismatch,
    EvenCharacteristic,
    FroblabError,
    InjectivityFailure,
    InputAssumptionViolation,
    NotNZD,
    NotRegularSequence,
    OddCharacteristic,
    TypeNotOne,
    ZeroElement,
)
from .groebner import _outside_bracket, _power_below_p
from .ideals import Ideal
from .polyring import GREVLEX, PolyRing, Polynomial
from .quotients import QuotientPresentation, _bracket_kernel
from .reports import (
    CLOSED_UP_TO,
    DECISIVE_NOT_F_INJECTIVE,
    NO_FAILURE_UP_TO,
    P2_DEGENERATE,
    CriterionReport,
    PipelineReport,
)

ASSUMPTION_CM = "Cohen-Macaulayness of the ambient quotient is asserted by the caller, not verified"
ASSUMPTION_CANONICAL = (
    "canonicity of the coefficient ideal is asserted by the caller; only necessary "
    "conditions are checked (nonzerodivisor inside it, type-1 Artinian reduction)"
)


@dataclass(frozen=True)
class CoverElement:
    """a + b*t in the cover, with b constrained to the coefficient ideal."""

    context: "CoverContext"
    ring_part: Polynomial
    t_part: Polynomial

    def __str__(self) -> str:
        return f"({self.ring_part}) + ({self.t_part})*t"


class CoverContext:
    """The cover S = R + I*t over a presentation R, with t^2 = twist."""

    def __init__(self, quotient: QuotientPresentation, coefficient: Ideal, twist: Polynomial):
        ring = quotient.ring
        if coefficient.ring != ring or twist.ring != ring:
            raise FroblabError("coefficient ideal and twist must live in the presentation ring")
        # defining's basis first, so that the run for the sum starts from it
        quotient.defining.groebner_basis(GREVLEX)
        membership = quotient.defining + coefficient
        if membership.is_unit():
            raise InputAssumptionViolation("coefficient ideal is the unit ideal")
        if all(quotient.defining.contains(g) for g in coefficient.generators):
            raise InputAssumptionViolation("coefficient ideal is zero in the quotient")
        for g in coefficient.generators:
            if g.constant_coefficient():  # that of its normal form, as defining lies in m
                raise InputAssumptionViolation(
                    f"coefficient generator {g} is a unit in the quotient; the ideal "
                    "must sit inside the maximal ideal"
                )
        self.quotient = quotient
        self.coefficient = coefficient
        self.twist = quotient.normal_form(twist)
        self._membership = membership

    @property
    def p(self) -> int:
        return self.quotient.p

    @property
    def ring(self) -> PolyRing:
        return self.quotient.ring

    def element(self, ring_part: Polynomial, t_part: Polynomial) -> CoverElement:
        if not self._membership.contains(t_part):
            raise InputAssumptionViolation(
                f"t-coefficient {t_part} is not in the coefficient ideal"
            )
        return CoverElement(
            self,
            self.quotient.normal_form(ring_part),
            self.quotient.normal_form(t_part),
        )

    def zero(self) -> CoverElement:
        z = self.ring.zero()
        return CoverElement(self, z, z)

    def one(self) -> CoverElement:
        return CoverElement(self, self.ring.one(), self.ring.zero())

    def _check(self, u: CoverElement) -> None:
        if u.context is not self:
            raise ContextMismatch("cover element from a different context")

    def add(self, u: CoverElement, v: CoverElement) -> CoverElement:
        self._check(u)
        self._check(v)
        nf = self.quotient.normal_form
        return CoverElement(self, nf(u.ring_part + v.ring_part), nf(u.t_part + v.t_part))

    def neg(self, u: CoverElement) -> CoverElement:
        self._check(u)
        return CoverElement(self, -u.ring_part, -u.t_part)

    def mul(self, u: CoverElement, v: CoverElement) -> CoverElement:
        self._check(u)
        self._check(v)
        nf = self.quotient.normal_form
        a, b = u.ring_part, u.t_part
        c, d = v.ring_part, v.t_part
        return CoverElement(
            self,
            nf(a * c + b * d * self.twist),
            nf(a * d + b * c),
        )

    def is_unit(self, u: CoverElement) -> bool:
        """Units are exactly the elements whose ring part avoids the maximal
        ideal, read off the constant term of the normal form."""
        self._check(u)
        return bool(u.ring_part.constant_coefficient())

    def frobenius(self, u: CoverElement, e: int) -> CoverElement:
        """(a + b*t) ** (p**e) through the closed form, requiring p > 2."""
        self._check(u)
        if self.p == 2:
            raise EvenCharacteristic("the closed Frobenius form needs p > 2")
        if e < 0:
            raise ValueError("negative Frobenius power")
        if e == 0:
            return u
        q = self.p ** e
        nf = self.quotient.normal_form
        return CoverElement(
            self,
            nf(u.ring_part.frobenius_pow(e)),
            nf(u.t_part.frobenius_pow(e) * self.twist ** ((q - 1) // 2)),
        )


class SocleLift(NamedTuple):
    socle_rep: Polynomial  # generator of the socle of R/(I + tail)
    lift: Polynomial       # its image under multiplication by the first parameter


def _graded(defining: Ideal, parameters: Sequence[Polynomial]) -> bool:
    """defining and every parameter homogeneous, each parameter of positive
    degree: a regular sequence of such parameters may be permuted
    (Matsumura, Commutative Ring Theory, §16)."""
    return all(g.is_homogeneous() for g in defining.generators) and all(
        s.is_homogeneous() and s.total_degree() > 0 for s in parameters
    )


def socle_lift(
    context: CoverContext, first: Polynomial, tail: Sequence[Polynomial]
) -> SocleLift:
    """Transfer a socle generator z of R/(I + tail) to u = first*z, the socle
    generator of I/JI for J = (first, tail).

    This is the one place where the cover hypotheses are checked.  Verifies:
    first lies in the coefficient ideal and is a nonzerodivisor on R; tail is
    regular on R/I and on R/(first), so (first, tail) is a regular sequence
    on R with a proper quotient; the Artinian reduction has type 1.
    m*u lies in defining + J*I by construction: for a variable x, x*u is
    first*(x*z) modulo defining, x*z lies in defining + I + tail, and first*I
    lies in J*I, first*tail in defining + J*I (first is in defining + I).
    Only inhomogeneous inputs check u outside defining + J*I: on graded ones
    it follows from z being a nonzero socle element of R/(I + tail), as
    first may be moved to the end of J.
    """
    R = context.quotient
    ring = context.ring
    I = context.coefficient
    if not context._membership.contains(first):
        raise InputAssumptionViolation(f"{first} is not in the coefficient ideal")
    if R.is_zero_in_quotient(first):
        raise ZeroElement(f"{first} is zero in the quotient")
    # the nonzerodivisor test returns defining + (first), basis built, for
    # the walk modulo first below
    with_first = R._regular_sum((first,))
    if with_first is None:
        raise NotNZD(f"{first} is a zerodivisor on the quotient")
    tail = list(tail)
    # the walk modulo I starts at defining + I, whose basis the context holds
    full = QuotientPresentation(ring, context._membership)._regular_sum(tail)
    if full is None or full.is_unit():
        raise NotRegularSequence("tail is not regular on R modulo the coefficient ideal")
    if not QuotientPresentation(ring, with_first).is_regular_sequence(tail):
        raise NotRegularSequence("tail is not regular on R modulo the first parameter")

    soc = R._socle(I + Ideal(ring, tuple(tail)), full)
    if soc.dimension != 1:
        raise TypeNotOne(
            f"socle dimension {soc.dimension}; the Artinian reduction is not type 1"
        )
    z = soc.basis[0]
    u = R.normal_form(first * z)
    if not _graded(R.defining, (first, *tail)) and (
        R.defining + Ideal(ring, (first, *tail)).product(I)
    ).contains(u):
        raise InjectivityFailure("the lifted socle generator lies in J*I")
    return SocleLift(z, u)


def cover_f_injectivity_criterion(
    context: CoverContext, sop: Sequence[Polynomial], e_max: int
) -> CriterionReport:
    """Bounded membership criterion for F-injectivity of the cover (p > 2).

    With u the lifted socle generator and q = p**e, membership
    u**q * twist**((q-1)/2) in J^[q]*I + defining for some e <= e_max proves
    the cover is NOT F-injective (decisive).  Exhausting the range is
    evidence only.  The parameters are checked by ``socle_lift``, whose
    errors this raises unchanged.

    ``socle_lift`` checks u = first*z, first in I, and (first, tail) regular.
    When defining and J are graded (``_graded``), the regular sequence may
    be permuted, so first**q cancels: the membership holds iff
    z**q * twist**((q-1)/2) lies in defining + I + tail^[q].  Otherwise it
    is asked of defining + J^[q]*I.  Both routes ask ``_bracket_kernel``,
    which decides modulo the basis of defining + I that the context holds
    when that ideal is homogeneous and the column has no term above the
    degree of a tail power, as for a socle generator of degree 1, linear
    parameters and the twist 1; otherwise the target's own basis decides.

    monotonicity_verified is true by construction whenever there is a
    witness: the membership at e, raised to the p-th power and multiplied
    by twist**((p-1)/2), gives the one at e + 1, as
    (defining + J^[q]*I)^[p] lies in defining + J^[q*p]*I (and likewise
    defining + I + tail^[q] on the graded route).
    """
    if context.p == 2:
        raise EvenCharacteristic("use the even-characteristic degeneracy check for p = 2")
    if not sop:
        raise InputAssumptionViolation("an empty system of parameters")
    if e_max < 0:
        raise InputAssumptionViolation(f"e_max must be nonnegative, got {e_max}")
    R = context.quotient
    ring = context.ring
    lifted = socle_lift(context, sop[0], sop[1:])
    u = lifted.lift
    f = context.twist
    I = context.coefficient
    p = context.p

    sub: dict = {
        "parameters_regular_on_ring": True,
        "first_parameter_in_coefficient_ideal": True,
        "nonzerodivisor": True,
        "tail_regular_mod_coefficient_ideal": True,
        "tail_regular_mod_first_parameter": True,
        "socle_dimension": 1,
        "socle_rep": str(lifted.socle_rep),
        "lift": str(u),
    }

    if _graded(R.defining, sop):
        base, column = context._membership, lifted.socle_rep
        bracket = Ideal(ring, tuple(sop[1:])).bracket_power
    else:
        J = Ideal(ring, tuple(sop))
        base, column = R.defining, u

        def bracket(e: int) -> Ideal:
            return J.bracket_power(e).product(I)

    memberships = []
    witness_e = None
    for e in range(1, e_max + 1):
        power = f ** ((p ** e - 1) // 2)
        target = column.frobenius_pow(e) * power
        hit = bool(_bracket_kernel(base, bracket(e), [target])[0])
        memberships.append({"e": e, "member": hit})
        if hit:
            witness_e = e
            break
    sub["memberships"] = memberships
    if witness_e is not None:
        sub["monotonicity_verified"] = True
    return CriterionReport(
        verdict=NO_FAILURE_UP_TO if witness_e is None else DECISIVE_NOT_F_INJECTIVE,
        e_max=e_max,
        witness_e=witness_e,
        assumptions=(ASSUMPTION_CM, ASSUMPTION_CANONICAL),
        sub_results=sub,
    )


def even_char_degeneracy_check(
    context: CoverContext, sop: Sequence[Polynomial]
) -> CriterionReport:
    """For p = 2 the cover is never F-injective.  With u = first*z modulo
    defining, the mechanism holds by construction and is reported, not
    tested: u lies in defining + J (first is in J), u*I in defining + J*I
    (first*z*I is in J*I), and u^2 in defining + J^[2] (u^2 - first^2*z^2
    is in defining).  The parameters are checked by ``socle_lift``, whose
    errors this raises unchanged."""
    if context.p != 2:
        raise OddCharacteristic("the degeneracy check only applies in characteristic 2")
    if not sop:
        raise InputAssumptionViolation("an empty system of parameters")
    lifted = socle_lift(context, sop[0], sop[1:])
    return CriterionReport(
        verdict=P2_DEGENERATE,
        e_max=None,
        witness_e=None,
        assumptions=(ASSUMPTION_CM, ASSUMPTION_CANONICAL),
        sub_results={
            "socle_rep": str(lifted.socle_rep),
            "lift": str(lifted.lift),
            "lift_multiplies_coefficient_ideal_into_JI": True,
            "lift_in_parameter_ideal": True,
            "lift_square_in_bracket_power": True,
        },
    )


def fedder_f_pure(presentation: QuotientPresentation) -> bool:
    """Fedder's criterion: R = S/A is F-pure iff (A^[p] : A) is not contained
    in the bracket power m^[p] of the maximal ideal.

    The verdict is True exactly when a certificate exists: an element h of
    S outside m^[p] with h*g in A^[p] for every generator g of A.  As m^[p]
    is a monomial ideal, h lies outside it iff some term of h has every
    exponent below p.  A principal A = (f) needs no Groebner run: S is a
    domain, so (f^p : f) = (f^(p-1)) and h = f^(p-1) is the only candidate,
    decided from f^(p-1) modulo m^[p] without expanding the full power.
    Otherwise, with c the height of A, a candidate comes first: for a
    complete intersection A = (f1..fc),
    (A^[p] : A) = A^[p] + ((f1...fc)^(p-1)) (Fedder 1983), so
    h = (product of c generators)^(p-1) is tried for a bounded number of
    c-subsets of the generators, by membership of h*g in A^[p] for the
    generators g outside the subset.  Only when every candidate misses is
    the colon built, one generator of A at a time, and after each step every
    generator h of the running colon outside m^[p] is tested against the
    generators still to come; the first h that passes ends the loop.  No
    finite certificate exists for False, so a False verdict builds the whole
    colon and finds none of its generators outside m^[p].
    """
    nonzero = [g for g in presentation.defining.generators if not g.is_zero]
    if len(nonzero) == 1:
        return not _power_below_p(nonzero[0], presentation.p - 1).is_zero
    return _fedder_certificate(presentation.defining) is not None


# how many c-subsets of the generators Fedder tries as product-power
# candidates before it builds the colon; a bound on speed, never on a verdict,
# and not tuned: no benchmark input has more c-subsets than this
_CANDIDATE_LIMIT = 64


def _fedder_certificate(A: Ideal) -> Polynomial | None:
    """An element of (A^[p] : A) outside m^[p], or None when there is none."""
    ring = A.ring
    p = ring.p
    nonzero = [g for g in A.generators if not g.is_zero]
    if not nonzero:
        return ring.one()  # the ring is regular
    A.groebner_basis(GREVLEX)  # its Frobenius image is the basis of A^[p]
    if A.is_unit():
        return ring.one()  # A^[p] is the unit ideal, and so is the colon
    bracket = A.bracket_power(1)
    # a product's lowest term degree is the sum of its factors'; above n,
    # every term of its (p-1)-th power has degree above n(p-1), so some
    # exponent reaches p and the power lies in m^[p]
    lowest = {g: min(sum(m) for m, _ in g.terms()) for g in nonzero}
    subsets = itertools.combinations(nonzero, ring.nvars - A.krull_dimension())
    for subset in itertools.islice(subsets, _CANDIDATE_LIMIT):
        if sum(lowest[g] for g in subset) > ring.nvars:
            continue
        product = math.prod(subset, start=ring.one())
        if _power_below_p(product, p - 1).is_zero:
            continue  # the candidate lies in m^[p]
        h = product ** (p - 1)
        # h*g lies in A^[p] already for every g in the subset
        if all(bracket.contains(h * g) for g in nonzero if g not in subset):
            return h
    for colon, rest in bracket.colon_steps(A):
        # only the step's cofactors: the bracket's own generators g^p lie in
        # m^[p], as A lies in m
        for h in colon.generators[len(bracket.generators):]:
            if _outside_bracket(h) and all(bracket.contains(h * g) for g in rest):
                return h
    return None


def _variable_generated(ideal: Ideal) -> list[str] | None:
    """The variable names when every generator is a scalar multiple of a
    distinct single variable, else None."""
    names = []
    for g in ideal.generators:
        terms = g.terms()
        if len(terms) != 1:
            return None
        ((m, _),) = terms
        nz = [i for i, e in enumerate(m) if e]
        if len(nz) != 1 or m[nz[0]] != 1:
            return None
        names.append(g.ring.variables[nz[0]])
    if len(set(names)) != len(names) or not names:
        return None
    return names


def run_cover_pipeline(
    presentation: QuotientPresentation,
    coefficient: Ideal,
    twist: Polynomial,
    sop: Sequence[Polynomial],
    e_max: int,
) -> PipelineReport:
    """Chain every check behind the main structural result: F-purity of R and
    of R/I (Fedder), the socle transfer, the bounded cover criterion with the
    given twist, and the Frobenius-closure probe of the tail parameters in
    R/I.

    When everything is consistent the conclusion (R is FH-finite with
    antinilpotent top local cohomology) is reported at evidence level; it
    follows from the hypotheses by the structural theory and is never
    recomputed here.
    """
    if presentation.p == 2:
        raise EvenCharacteristic("the pipeline requires p > 2")
    ring = presentation.ring
    context = CoverContext(presentation, coefficient, twist)

    ambient_pure = fedder_f_pure(presentation)

    tail = list(sop[1:])
    drop = _variable_generated(coefficient)
    quotient_full = context._membership
    tail_support = set().union(*(t.support_variables() for t in tail))
    if drop is not None and len(drop) < ring.nvars and not (tail_support & set(drop)):
        # (defining + I) ∩ k[keep] is the image of defining under x_d -> 0,
        # presented by its reduced grevlex basis in the small ring, which is
        # its own basis, so the presentation builds no second one
        keep = [v for v in ring.variables if v not in set(drop)]
        small_ring = PolyRing(ring.p, tuple(keep), GREVLEX)
        dropped = [ring.variables.index(v) for v in drop]
        image = Ideal(small_ring, tuple(
            sum((ring.monomial(m, c) for m, c in g.terms() if not any(m[i] for i in dropped)), ring.zero())
            .mapped_to(small_ring)
            for g in presentation.defining.generators
        ))
        basis = image.groebner_basis(GREVLEX)
        small = Ideal(small_ring, basis.polys)
        small._gb[GREVLEX] = basis
        quotient_pres = QuotientPresentation(small_ring, small)
        small_tail = [t.mapped_to(small_ring) for t in tail]
        route = "eliminated-presentation"
    else:
        quotient_pres = QuotientPresentation(ring, quotient_full)
        small_tail = tail
        route = "ambient-presentation"

    quotient_pure = fedder_f_pure(quotient_pres)

    criterion = cover_f_injectivity_criterion(context, sop, e_max)

    closure = quotient_pres.frobenius_closure_test(
        Ideal(quotient_pres.ring, tuple(small_tail)), e_max
    )

    decisive = criterion.verdict == DECISIVE_NOT_F_INJECTIVE or closure.decisive
    supported = (
        ambient_pure
        and quotient_pure
        and criterion.verdict == NO_FAILURE_UP_TO
        and closure.verdict == CLOSED_UP_TO
    )
    if decisive:
        status = "decisive-counterexample"
        statement = (
            "a decisive witness refutes F-injectivity of the cover or Frobenius "
            "closure of the tail parameters; the conclusion is withheld"
        )
    elif supported:
        status = "supported-by-evidence"
        statement = (
            "all hypotheses verified up to e_max; implied conclusion: the ring is "
            "FH-finite and its top local cohomology module is antinilpotent"
        )
    else:
        status = "hypotheses-not-met"
        statement = "a hypothesis failed its check; the conclusion is withheld"

    return PipelineReport(
        ambient_f_pure=ambient_pure,
        quotient_f_pure=quotient_pure,
        quotient_route=route,
        quotient_presentation=tuple(str(g) for g in quotient_pres.defining.generators),
        criterion=criterion,
        closure=closure,
        conclusion_status=status,
        conclusion=statement,
        assumptions=(ASSUMPTION_CM, ASSUMPTION_CANONICAL),
    )
