"""Ideal-level operations in F_p[x1..xn]: sums, products, Frobenius bracket
powers, intersections, colons, the part free of some variables, Krull
dimension, Hilbert numerators and standard monomial bases.

An Ideal keeps its generator list as given and caches one reduced Groebner
basis per monomial order.  A sum remembers its two summands, and its basis
is built from a summand's cached basis in the same order when there is one.
Intersections and colons come from tracked grevlex runs seeded with such a
cached basis (``groebner.syzygy_images``).  ``eliminate`` is the one lex
run.  Extensional equality always compares reduced grevlex bases.  Leading
monomials, Hilbert numerators and standard monomials are read off the
packed leads of a cached basis by ``GroebnerBasis`` methods: this module
reads no packed monomial.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import (
    ExponentOverflow,
    RingMismatch,
    UnitIdeal,
    ZeroColonDivisor,
)
from .groebner import GroebnerBasis, groebner_basis_of, syzygy_images
from .polyring import GREVLEX, LEX, Monomial, MonomialOrder, PolyRing, Polynomial


def _distinct_monic(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """The distinct nonzero polys made monic in grevlex, in first-seen order."""
    out: dict[Polynomial, None] = {}
    for f in polys:
        if not f.is_zero:
            p = f.ring.p
            out[f * pow(f.leading_term(GREVLEX)[1], p - 2, p)] = None
    return list(out)


class Ideal:
    """An ideal of a PolyRing, held by an explicit generator list."""

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatch("generator from a different ring")
        self.ring = ring
        self.generators = gens
        self._gb: dict[MonomialOrder, GroebnerBasis] = {}
        self._numerator: list[int] | None = None
        self._summands: tuple[Ideal, ...] = ()

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    def groebner_basis(self, order: MonomialOrder | None = None) -> GroebnerBasis:
        """The reduced basis in ``order``, cached.  A sum's basis is built
        from the larger basis in that order its summands have cached, if
        any: the Buchberger run then forms no pair inside that summand."""
        order = order or self.ring.order
        gb = self._gb.get(order)
        if gb is None:
            gb = groebner_basis_of(self.ring, self.generators, order, seed=self._seed(order))
            # setdefault keeps the first basis stored, so every caller shares it
            gb = self._gb.setdefault(order, gb)
        return gb

    def _seed(self, order: MonomialOrder) -> GroebnerBasis | None:
        """The larger basis in ``order`` that a summand has cached, if any."""
        cached = [s._gb[order] for s in self._summands if order in s._gb]
        return max(cached, key=lambda b: len(b.polys), default=None)

    def normal_form(self, g: Polynomial) -> Polynomial:
        return self.groebner_basis().normal_form(g)

    def contains(self, g: Polynomial) -> bool:
        return self.groebner_basis(GREVLEX).contains(g)

    def is_zero(self) -> bool:
        return not self.groebner_basis(GREVLEX).polys

    def is_unit(self) -> bool:
        return self.groebner_basis(GREVLEX).is_unit_ideal()

    def __add__(self, other: "Ideal") -> "Ideal":
        """The sum, generated by both generator lists.  It keeps both
        summands, so that its Groebner bases can start from theirs."""
        self._require_same(other)
        total = Ideal(self.ring, self.generators + other.generators)
        total._summands = (self, other)
        return total

    def product(self, other: "Ideal") -> "Ideal":
        self._require_same(other)
        return Ideal(
            self.ring,
            tuple(a * b for a in self.generators for b in other.generators),
        )

    __mul__ = product

    def bracket_power(self, e: int) -> "Ideal":
        """The Frobenius bracket power with generators g**(p**e).

        Every basis already cached on self carries over as its Frobenius
        image (``GroebnerBasis.frobenius_image``), which is the reduced basis
        of the bracket power in the same order.  A basis whose image leaves
        the exponent field is not carried over.
        """
        if e < 0:
            raise ValueError("negative bracket power")
        power = Ideal(self.ring, tuple(g.frobenius_pow(e) for g in self.generators))
        for order, gb in self._gb.items():
            try:
                power._gb[order] = gb.frobenius_image(e, power.generators)
            except ExponentOverflow:
                continue  # left to a Buchberger run, which raises as before
        return power

    def intersect(self, other: "Ideal") -> "Ideal":
        """self ∩ other, from one grevlex Buchberger run on self + other
        seeded with self's cached basis: each element carries its part in
        other, and the parts of the elements that reduce to zero generate
        the intersection modulo the product (``groebner.syzygy_images``)."""
        self._require_same(other)
        gb = self.groebner_basis(GREVLEX)
        images = syzygy_images(gb, other.generators)
        return Ideal(self.ring, tuple(images) + self.product(other).generators)

    def colon(self, other: "Ideal") -> "Ideal":
        """(self : other), the last step of ``colon_steps``."""
        for result, _ in self.colon_steps(other):
            pass
        return result

    def colon_steps(self, other: "Ideal") -> Iterator[tuple["Ideal", tuple[Polynomial, ...]]]:
        """The colon one nonzero generator g of ``other`` at a time: yields
        (self : the divisors so far) and the divisors still to come.  The
        last step yields (self : other) and ().

        Each step is one tracked grevlex run on self + (c*g), seeded with
        self's cached basis, where the cofactors c generate the previous
        step's colon modulo self (the first step has c = 1).  With each c*g
        tagged c, the elements that reduce to zero leave tags that generate
        {h in (c) : h*g in self} modulo self.  As self lies in (self : g),
        the previous colon self + (c) meets (self : g) in
        self + ((c) ∩ (self : g)), so the tags, reduced modulo self, are the
        new cofactors.  A step's colon is self + (its cofactors), so its
        basis is a run seeded with self's.  Its generators are self's
        followed by the cofactors, each a nonzero normal form modulo self's
        complete basis: no cofactor lies in self, so the colon equals self
        iff the step adds no generator.
        """
        self._require_same(other)
        divisors = tuple(g for g in other.generators if not g.is_zero)
        if not divisors:
            raise ZeroColonDivisor("colon by the zero ideal")
        gb = self.groebner_basis(GREVLEX)
        cofactors = [self.ring.one()]
        for k, g in enumerate(divisors, 1):
            images = syzygy_images(gb, cofactors, g)
            cofactors = _distinct_monic(gb.normal_form(h) for h in images)
            yield self + Ideal(self.ring, tuple(cofactors)), divisors[k:]

    def eliminate(self, drop: Iterable[str]) -> "Ideal":
        """Generators of self ∩ k[remaining variables], returned in the
        original ring: the elements free of the dropped variables in the
        reduced lex basis with those variables listed first (Cox, Little &
        O'Shea, section 3.1)."""
        ring = self.ring
        drop_set = set(drop)
        for name in drop_set:
            if name not in ring._index:
                raise ValueError(f"cannot eliminate unknown variable {name!r}")
        drop_idx = [i for i, n in enumerate(ring.variables) if n in drop_set]
        keep_idx = [i for i, n in enumerate(ring.variables) if n not in drop_set]
        if not keep_idx:
            raise ValueError("cannot eliminate every variable")
        ring2 = PolyRing(ring.p, tuple(ring.variables[i] for i in drop_idx + keep_idx), LEX)
        gens2 = [g.mapped_to(ring2) for g in self.generators]
        # under lex a lead free of the leading variables leaves them out of
        # every term
        gb = groebner_basis_of(ring2, gens2, LEX)
        free = [g for g, lead in zip(gb.polys, gb.leading_monomials) if not any(lead[:len(drop_idx)])]
        return Ideal(ring, tuple(g.mapped_to(ring) for g in free))

    def krull_dimension(self) -> int:
        """Dimension of R/self, which is that of S/in(self): the order of
        the pole at t = 1 of K(t)/(1 - t)^n, so n less the number of times
        (1 - t) divides the cached ``hilbert_numerator`` K (Bigatti 1997).
        While K(1) = 0, K is replaced by K/(1 - t), the prefix sums of K
        without its last coefficient."""
        numerator = self.hilbert_numerator()
        if not numerator:
            raise UnitIdeal("the unit ideal has no Krull dimension")
        dimension = self.ring.nvars
        while not sum(numerator):
            numerator = list(itertools.accumulate(numerator[:-1]))
            dimension -= 1
        return dimension

    def hilbert_numerator(self) -> list[int]:
        """The numerator K(t) of HS(S/in(self)) = K(t)/(1 - t)^n, as its
        coefficients from degree 0 up, by Bigatti's recursion on the packed
        leads of the grevlex basis, which are minimal
        (``GroebnerBasis._hilbert_numerator``); cached.  For a homogeneous
        ideal this is also the Hilbert series of S/self.  The zero ideal
        gives [1], the unit ideal []."""
        if self._numerator is None:
            self._numerator = self.groebner_basis(GREVLEX)._hilbert_numerator()
        return self._numerator

    def standard_monomials(self) -> list[Monomial]:
        """Monomial basis of R/self, ascending in the ring order: the order
        ideal of the grevlex basis's leads, walked up from 1 on packed
        monomials (``GroebnerBasis._standard``).

        Requires a pure power of every variable among the leading terms;
        otherwise the quotient is infinite-dimensional and NotArtinian is
        raised.
        """
        return self.groebner_basis(GREVLEX)._standard_monomials()

    def _require_same(self, other: "Ideal") -> None:
        if not isinstance(other, Ideal):
            raise TypeError(f"expected Ideal, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatch("ideals from different rings")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            return False
        return self.groebner_basis(GREVLEX).polys == other.groebner_basis(GREVLEX).polys

    __hash__ = None  # extensional equality is GB-backed; not hashable
