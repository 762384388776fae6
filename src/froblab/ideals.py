"""Ideal-level operations in F_p[x1..xn]: sums, products, Frobenius bracket
powers, colon and elimination ideals, Krull dimension and standard monomial
bases.

An Ideal keeps its generator list as given and caches one reduced Groebner
basis per monomial order.  Extensional equality always compares reduced
grevlex bases.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .errors import (
    ExponentOverflow,
    NotArtinian,
    RingMismatch,
    UnitIdeal,
    ZeroColonDivisor,
)
from .groebner import DEFAULT_PAIR_BUDGET, GroebnerBasis, _exact_div, groebner_basis_of
from .polyring import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    PolyRing,
    Polynomial,
    elimination_order,
    monomial_div,
)


def _aux_name(taken: Sequence[str]) -> str:
    name = "w"
    while name in taken:
        name = "_" + name
    return name


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

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    def groebner_basis(
        self, order: MonomialOrder | None = None, budget: int = DEFAULT_PAIR_BUDGET
    ) -> GroebnerBasis:
        order = order or self.ring.order
        gb = self._gb.get(order)
        if gb is None:
            # setdefault keeps the first basis stored, so every caller shares it
            gb = self._gb.setdefault(order, groebner_basis_of(self.ring, self.generators, order, budget))
        return gb

    def normal_form(self, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
        return self.groebner_basis(order).normal_form(g)

    def contains(self, g: Polynomial) -> bool:
        return self.groebner_basis(GREVLEX).contains(g)

    def is_zero(self) -> bool:
        return not self.groebner_basis(GREVLEX).polys

    def is_unit(self) -> bool:
        return self.groebner_basis(GREVLEX).is_unit_ideal()

    def __add__(self, other: "Ideal") -> "Ideal":
        self._require_same(other)
        return Ideal(self.ring, self.generators + other.generators)

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
        image, which is the reduced basis of the bracket power in the same
        order: Frobenius is additive and fixes F_p, and m -> m**(p**e)
        preserves the monomial order and divisibility of monomials.  A basis
        whose image leaves the exponent field is not carried over.
        """
        if e < 0:
            raise ValueError("negative bracket power")
        power = Ideal(self.ring, tuple(g.frobenius_pow(e) for g in self.generators))
        for order, gb in self._gb.items():
            try:
                polys = tuple(g.frobenius_pow(e) for g in gb.polys)
            except ExponentOverflow:
                continue  # left to a Buchberger run, which raises as before
            power._gb[order] = GroebnerBasis(self.ring, order, polys)
        return power

    def intersect(self, other: "Ideal") -> "Ideal":
        """A cap B via one auxiliary variable: eliminate w from w*A + (1-w)*B."""
        self._require_same(other)
        ring = self.ring
        aux = _aux_name(ring.variables)
        ring2 = PolyRing(ring.p, (aux,) + ring.variables, elimination_order(1))
        w = ring2.variable(aux)
        one = ring2.one()
        gens2 = [w * a.mapped_to(ring2) for a in self.generators if not a.is_zero]
        gens2 += [(one - w) * b.mapped_to(ring2) for b in other.generators if not b.is_zero]
        gb2 = groebner_basis_of(ring2, gens2, ring2.order, _eliminate=1)
        return Ideal(ring, tuple(g.mapped_to(ring) for g in gb2.polys))

    def colon(self, other: "Ideal") -> "Ideal":
        """(self : other), computed per generator g as intersect(self, (g)) / g
        and intersected across the generators of ``other``."""
        for result, _ in self.colon_steps(other):
            pass
        return result

    def colon_steps(self, other: "Ideal") -> Iterator[tuple["Ideal", tuple[Polynomial, ...]]]:
        """The loop of ``colon``, one step per nonzero generator g of
        ``other``: yields (self : the divisors so far) and the divisors still
        to come.  The last step yields (self : other) and ()."""
        self._require_same(other)
        divisors = tuple(g for g in other.generators if not g.is_zero)
        if not divisors:
            raise ZeroColonDivisor("colon by the zero ideal")
        result: Ideal | None = None
        for k, g in enumerate(divisors, 1):
            inter = self.intersect(Ideal(self.ring, (g,)))
            part = Ideal(self.ring, tuple(_exact_div(h, g) for h in inter.generators))
            result = part if result is None else result.intersect(part)
            yield result, divisors[k:]

    def eliminate(self, drop: Iterable[str]) -> "Ideal":
        """Generators of self ∩ k[remaining variables], returned in the
        original ring."""
        ring = self.ring
        drop_set = set(drop)
        for name in drop_set:
            if name not in ring._index:
                raise ValueError(f"cannot eliminate unknown variable {name!r}")
        drop_idx = [i for i, n in enumerate(ring.variables) if n in drop_set]
        keep_idx = [i for i, n in enumerate(ring.variables) if n not in drop_set]
        if not keep_idx:
            raise ValueError("cannot eliminate every variable")
        perm = drop_idx + keep_idx
        ring2 = PolyRing(
            ring.p,
            tuple(ring.variables[i] for i in perm),
            elimination_order(len(drop_idx)),
        )
        gens2 = [g.mapped_to(ring2) for g in self.generators if not g.is_zero]
        gb2 = groebner_basis_of(ring2, gens2, ring2.order, _eliminate=len(drop_idx))
        return Ideal(ring, tuple(g.mapped_to(ring) for g in gb2.polys))

    def krull_dimension(self) -> int:
        """Dimension of R/self, read combinatorially off the leading-term
        ideal as the largest variable set meeting no leading support."""
        gb = self.groebner_basis(GREVLEX)
        if gb.is_unit_ideal():
            raise UnitIdeal("the unit ideal has no Krull dimension")
        supports = [
            frozenset(i for i, e in enumerate(lm) if e)
            for lm in gb.leading_monomials
        ]
        n = self.ring.nvars
        for size in range(n, -1, -1):
            for combo in itertools.combinations(range(n), size):
                u = set(combo)
                if not any(s <= u for s in supports):
                    return size
        raise AssertionError("unreachable: the empty set is always independent")

    def standard_monomials(self) -> list[Monomial]:
        """Monomial basis of R/self, ascending in the ring order.

        Requires a pure power of every variable among the leading terms;
        otherwise the quotient is infinite-dimensional and NotArtinian is
        raised.
        """
        gb = self.groebner_basis(GREVLEX)
        if gb.is_unit_ideal():
            return []
        n = self.ring.nvars
        leads = gb.leading_monomials
        bounds: list[int | None] = [None] * n
        for lm in leads:
            nz = [i for i, e in enumerate(lm) if e]
            if len(nz) == 1:
                i = nz[0]
                if bounds[i] is None or lm[i] < bounds[i]:
                    bounds[i] = lm[i]
        if any(b is None for b in bounds):
            missing = [self.ring.variables[i] for i, b in enumerate(bounds) if b is None]
            raise NotArtinian(f"no pure power of {', '.join(missing)} in the leading-term ideal")
        out = [
            m
            for m in itertools.product(*(range(b) for b in bounds))
            if not any(monomial_div(m, lm) is not None for lm in leads)
        ]
        out.sort(key=self.ring.order.key)
        return out

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
