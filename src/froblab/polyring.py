"""Sparse multivariate polynomial arithmetic over prime fields.

Polynomials are immutable values attached to a PolyRing handle fixing the
characteristic, the variable names and a monomial order, lex or grevlex, used
for printing and Groebner computations.  Coefficients are plain ints in
[0, p), and a stored term never has coefficient 0.

A monomial is one packed int, in the layout of Monagan & Pearce ("Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  Each exponent has a 16-bit field topped by a guard bit; grevlex also
has a total-degree field, wide enough for the degree sum, topped by its own
guard bit.  The field layout depends on the order, from the most significant
field down:

- lex: x1, x2, ..., xn;
- grevlex: degree, xn, ..., x1.

Under grevlex ``mask`` holds the value bits of every exponent field (under
lex it is 0), so ``packed ^ mask`` compares exactly like
``MonomialOrder.key``.  The product of two monomials is the sum of their
packed ints, and a field never wraps silently: a product that sets a guard
bit raises ExponentOverflow.  One ``Packing`` serves each (order, number of
variables).  Every polynomial keeps its terms in the grevlex layout of its
number of variables, whatever its ring's order, so the total degree is a
field and a Frobenius power scales every monomial by one multiplication.
Exponent tuples appear only at the edge: printing, ``terms``, leading
terms, ``monomial`` and ``mapped_to``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, reduce
from operator import mul, or_
from typing import Iterable, Sequence, Union

from .errors import (
    BudgetExceeded,
    ExponentOverflow,
    ParseError,
    RingMismatch,
    UnknownVariable,
)

Monomial = tuple[int, ...]

# exponents must fit in 16 bits; overflow is a hard error, never a wraparound
MAX_EXPONENT = 0xFFFF
EXPONENT_BITS = MAX_EXPONENT.bit_length()
MAX_MODULUS = 1 << 31
# term products that the products and powers of one parsed text may form
_PARSE_BUDGET = 6_000_000

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_known_primes: set[int] = set()


def is_prime(n: int) -> bool:
    """Trial-division primality test, cached for repeat moduli."""
    if n in _known_primes:
        return True
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    _known_primes.add(n)
    return True


def check_modulus(p: int) -> None:
    if not isinstance(p, int) or not 2 <= p < MAX_MODULUS:
        raise ValueError(f"modulus must be an integer in [2, 2^31): {p!r}")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime: {p}")


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: ``lex`` or ``grevlex``.  Under lex, a polynomial
    whose lead is free of the first k variables is free of them entirely,
    which ``Ideal.eliminate`` relies on."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown order kind {self.kind!r}")

    def key(self, m: Monomial):
        if self.kind == "lex":
            return m
        return (sum(m), tuple(-e for e in reversed(m)))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class Packing:
    """The packed-monomial layout of one monomial order on ``nvars`` variables,
    with ``bits`` value bits in each exponent field."""

    __slots__ = ("bits", "largest", "units", "shifts", "mask", "guard", "exponents", "degree", "span", "ones", "top")

    def __init__(self, order: MonomialOrder, nvars: int, bits: int = EXPONENT_BITS):
        graded = order.kind == "grevlex"
        self.bits = bits
        self.largest = largest = (1 << bits) - 1  # the largest exponent a field holds
        width = bits + 1
        # exponent fields fill from the least significant end, each topped by
        # a guard bit: x1 first under grevlex, xn first under lex; grevlex
        # puts its degree field, wide enough for the degree sum, above them
        self.shifts = tuple(width * (i if graded else nvars - 1 - i) for i in range(nvars))
        self.exponents = sum(largest << s for s in self.shifts)
        self.guard = sum(1 << (s + bits) for s in self.shifts)
        self.mask = self.exponents if graded else 0
        # the degree field's shift and unit (0 under lex)
        self.span = width * nvars
        self.degree = degree = 1 << self.span if graded else 0
        self.units = tuple(1 << s | degree for s in self.shifts)
        if graded:
            self.guard |= degree << (bits + (nvars - 1).bit_length())
        # m * ones holds the sum of m's exponent fields in the field at top
        self.ones = sum(1 << s for s in self.shifts)
        self.top = width * (nvars - 1)

    def pack(self, m: Sequence[int]) -> int:
        return sum(map(mul, m, self.units))

    def unpack(self, packed: int) -> Monomial:
        largest = self.largest
        return tuple((packed >> s) & largest for s in self.shifts)

    def total_degree(self, packed: int) -> int:
        """The total degree of a packed monomial: its degree field under
        grevlex, the sum of its exponents under lex."""
        return packed >> self.span if self.degree else sum(self.unpack(packed))

    def bound(self, monomials: Iterable[int]) -> int:
        """The largest exponent of each variable over packed monomials, with
        zero degree fields: q + bound sets a guard bit iff some q + m does."""
        exponents, guard, bits, largest = self.exponents, self.guard, self.bits, self.largest
        bound = 0
        for m in monomials:
            m &= exponents
            # guard bits mark the fields where bound >= m; spread them over
            # the value bits below and keep bound there, m elsewhere (the
            # degree fields are zero on both sides)
            keep = ((((bound | guard) - m) & guard) >> bits) * largest
            bound = (bound & keep) | (m & ~keep)
        return bound

    def scaled(self, terms: dict, q: int, bound: int) -> dict:
        """terms with every monomial raised to the power q, given their
        ``bound`` or a larger one; raises ExponentOverflow when an exponent
        times q leaves its field.  The guard bits of (ceiling | guard) -
        bound mark the fields where bound is at most the ceiling."""
        guard = self.guard
        if (((self.largest // q) * self.ones | guard) - bound) & guard != guard:
            raise ExponentOverflow(f"an exponent times {q} exceeds {self.largest}")
        return {m * q: c for m, c in terms.items()}

    def lcm(self, a: int, b: int, degrees: int) -> tuple[int, int]:
        """(packed lcm, its total degree) of packed monomials a and b whose
        total degrees sum to ``degrees``.

        The guard bits of (a | guard) - b mark the fields where a >= b, as in
        ``bound``.  The degree of the lcm is the field at ``top`` of
        lcm * ones: each field of that product sums some exponent fields of
        the lcm, so below 2^(bits + 1) none carries into the next, and the
        lcm's degree is at most ``degrees``.  From there on it is summed from
        the unpacked exponents.
        """
        exponents, guard, bits = self.exponents, self.guard, self.bits
        a &= exponents
        b &= exponents
        keep = ((((a | guard) - b) & guard) >> bits) * self.largest
        lcm = (a & keep) | (b & ~keep)
        limit = 2 << bits  # one field with its guard bit overflows here
        if degrees < limit:
            d = (lcm * self.ones >> self.top) & (limit - 1)
        else:
            d = sum(map(max, self.unpack(a), self.unpack(b)))
        return lcm + d * self.degree, d

    def divisor(self, terms: dict, p: int) -> tuple:
        """(lead, bound, tail) of the monic multiple of a nonzero packed term
        dict.  The tail maps the other monomials to their coefficients, and
        ``bound`` is the tail's (see ``bound``).
        """
        lead = max(terms, key=self.mask.__xor__)
        inv = pow(terms[lead], p - 2, p)
        tail = {m: c * inv % p for m, c in terms.items() if m != lead}
        return lead, self.bound(tail), tail


# one Packing per (order, nvars): a Packing never changes once built
_packing = cache(Packing)


# ---------------------------------------------------------------------------


class PolyRing:
    """Handle for F_p[variables] with a default monomial order; ``packing``
    is the layout of its polynomials' monomials."""

    __slots__ = ("p", "variables", "order", "_index", "packing")

    def __init__(self, p: int, variables: Sequence[str], order: MonomialOrder = GREVLEX):
        check_modulus(p)
        names = tuple(variables)
        if not names:
            raise ValueError("a ring needs at least one variable")
        for name in names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "packing", _packing(GREVLEX, len(names)))

    def __setattr__(self, name, value):
        raise AttributeError("PolyRing is immutable")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.p, self.variables, self.order))

    def __repr__(self) -> str:
        return f"PolyRing(GF({self.p}), {list(self.variables)}, {self.order.kind})"

    def _poly(self, terms: dict) -> "Polynomial":
        # trusted constructor: terms already packed and reduced, zero
        # coefficients dropped
        return Polynomial(self, terms)

    def _key(self, order: MonomialOrder | None = None):
        """The sort key of a packed monomial in ``order``, by default the
        ring's."""
        pk = self.packing
        return pk.mask.__xor__ if (order or self.order).kind == "grevlex" else pk.unpack

    def zero(self) -> "Polynomial":
        return self._poly({})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        return self._poly({} if c == 0 else {0: c})

    def variable(self, name: str) -> "Polynomial":
        if name not in self._index:
            raise UnknownVariable(name)
        return self._poly({self.packing.units[self._index[name]]: 1})

    def monomial(self, exponents: Sequence[int], coefficient: int = 1) -> "Polynomial":
        exps = tuple(exponents)
        if len(exps) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exps)}")
        for e in exps:
            if e < 0:
                raise ValueError("negative exponent")
            if e > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {e} exceeds {MAX_EXPONENT}")
        c = coefficient % self.p
        return self._poly({} if c == 0 else {self.packing.pack(exps): c})

    def parse(self, text: str) -> "Polynomial":
        return _Parser(self, text).run()

    def format(self, poly: "Polynomial") -> str:
        if not poly._terms:
            return "0"
        parts = []
        for m, c in poly.terms():
            factors = []
            if c != 1 or not any(m):
                factors.append(str(c))
            for name, e in zip(self.variables, m):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


_PRODUCT_OVERFLOW = f"a product exponent exceeds {MAX_EXPONENT}"


def _product(a: dict, b: dict, p: int, guard: int) -> dict:
    """The packed term dict of a * b; a product exponent past its field sets
    its guard bit."""
    out: dict = {}
    get = out.get
    terms = b.items()
    for m1, c1 in a.items():
        for m2, c2 in terms:
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    if reduce(or_, out, 0) & guard:
        raise ExponentOverflow(_PRODUCT_OVERFLOW)
    return {m: c % p for m, c in out.items() if c % p}


def _power(terms: dict, n: int, ring: "PolyRing", product) -> dict:
    """The packed term dict of terms ** n in ``ring``, its products formed by
    ``product``.  From p on, n = sum d_i * p**i in base p, and terms ** n is
    the product of the (terms ** d_i) ** (p**i), where raising to p**i
    scales every monomial and keeps the coefficients, as c**p = c in F_p
    (``Polynomial.frobenius_pow``).  Below p, square-and-multiply."""
    p, pk = ring.p, ring.packing
    if n >= p:
        result, q = {0: 1}, 1
        while n:
            n, d = divmod(n, p)
            if d:
                piece = _power(terms, d, ring, product)
                try:
                    piece = pk.scaled(piece, q, pk.bound(piece))
                except ExponentOverflow:
                    # the product the power stands for overflows as well
                    raise ExponentOverflow(_PRODUCT_OVERFLOW) from None
                result = product(result, piece)
            q *= p
        return result
    result = {0: 1}
    while n:
        if n & 1:
            result = product(result, terms)
        n >>= 1
        if n:
            terms = product(terms, terms)
    return result


class Polynomial:
    """Immutable sparse polynomial over a PolyRing."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def _require_same(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatch("polynomials from different rings")

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending ring order, as (monomial, coefficient) pairs
        with each coefficient an int in [1, p)."""
        unpack = self.ring.packing.unpack
        return [(unpack(m), self._terms[m]) for m in sorted(self._terms, key=self.ring._key(), reverse=True)]

    def constant_coefficient(self) -> int:
        return self._terms.get(0, 0)

    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> self.ring.packing.span

    def term_degrees(self) -> set[int]:
        """The total degrees of the terms, each its monomial's degree field."""
        span = self.ring.packing.span
        return {m >> span for m in self._terms}

    def is_homogeneous(self) -> bool:
        """True when every term has the same total degree; the zero
        polynomial is homogeneous."""
        return len(self.term_degrees()) <= 1

    def leading_term(self, order: MonomialOrder | None = None) -> tuple[Monomial, int] | None:
        if not self._terms:
            return None
        m = max(self._terms, key=self.ring._key(order))
        return self.ring.packing.unpack(m), self._terms[m]

    def leading_monomial(self, order: MonomialOrder | None = None) -> Monomial | None:
        lt = self.leading_term(order)
        return lt[0] if lt else None

    def support_variables(self) -> set[str]:
        used = self.ring.packing.unpack(reduce(or_, self._terms, 0))
        return {name for name, e in zip(self.ring.variables, used) if e}

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same(other)
        p = self.ring.p
        out = dict(self._terms)
        for m, c in other._terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return self.ring._poly(out)

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return self.ring._poly({m: p - c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        if isinstance(other, int):
            p = self.ring.p
            c = other % p
            if c == 0:
                return self.ring.zero()
            return self.ring._poly({m: (cc * c) % p for m, cc in self._terms.items()})
        self._require_same(other)
        ring = self.ring
        return ring._poly(_product(self._terms, other._terms, ring.p, ring.packing.guard))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        ring = self.ring
        p, guard = ring.p, ring.packing.guard
        return ring._poly(_power(self._terms, n, ring, lambda a, b: _product(a, b, p, guard)))

    def frobenius_pow(self, e: int) -> "Polynomial":
        """self ** (p**e) via the additive shortcut, valid in characteristic
        p: scale every monomial by q = p**e, one multiplication of its packed
        int, and keep the coefficients, since c**q = c in F_p.  The exponents'
        bound is taken only when the total degree times q leaves the field;
        below that every exponent times q fits."""
        if e < 0:
            raise ValueError("negative Frobenius power")
        if e == 0:
            return self
        pk, q = self.ring.packing, self.ring.p ** e
        bound = 0 if self.total_degree() * q <= MAX_EXPONENT else pk.bound(self._terms)
        return self.ring._poly(pk.scaled(self._terms, q, bound))

    def mapped_to(self, other: PolyRing) -> "Polynomial":
        """Re-express in another ring with the same modulus, matching
        variables by name.  Variables carrying a positive exponent must
        exist in the target ring."""
        if other.p != self.ring.p:
            raise RingMismatch("target ring has a different modulus")
        used = self.support_variables()
        for name in self.ring.variables:
            if name in used and name not in other._index:
                raise UnknownVariable(name)
        units = [other.packing.units[other._index[n]] if n in other._index else 0 for n in self.ring.variables]
        unpack = self.ring.packing.unpack
        return other._poly({sum(map(mul, unpack(m), units)): c for m, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return self.ring.format(self)

    def __repr__(self) -> str:
        return f"<{self.ring.format(self)} over GF({self.ring.p})>"


# ---------------------------------------------------------------------------
# parser
#
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' nat)?
#   atom   := nat | ident | '(' expr ')'
#
# The optional leading sign is an accepted extension; the printer never emits
# one.  One pass builds one packed term dict: while a term's factors are
# single terms it is a running (monomial, coefficient) product, and only a
# parenthesised factor takes a dict product.  Token offsets are found on error.

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^()]")
_BAD_RE = re.compile(r"[^\s\dA-Za-z_+\-*^()]")


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        bad = _BAD_RE.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
        self.ring = ring
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [""]
        self.at = 0
        self.budget = _PARSE_BUDGET

    def product(self, a: dict, b: dict) -> dict:
        """a * b, its len(a) * len(b) term products charged before it is formed."""
        self.budget -= len(a) * len(b)
        if self.budget < 0:
            raise BudgetExceeded(f"the text takes more than {_PARSE_BUDGET} term products")
        return _product(a, b, self.ring.p, self.ring.packing.guard)

    def offset(self, at: int) -> int:
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        return starts[at] if at < len(starts) else len(self.text)

    def unexpected(self, at: int) -> ParseError:
        tok = self.tokens[at]
        return ParseError(f"unexpected {tok!r}" if tok else "unexpected end of input", self.offset(at))

    def run(self) -> Polynomial:
        terms = self.expr()
        if self.tokens[self.at]:
            raise self.unexpected(self.at)
        return self.ring._poly(terms)

    def expr(self) -> dict:
        out: dict = {}
        sign = self.tokens[self.at]
        if sign == "+" or sign == "-":
            self.at += 1
        while True:
            self.term(out, sign == "-")
            sign = self.tokens[self.at]
            if sign != "+" and sign != "-":
                return out
            self.at += 1

    def term(self, out: dict, negate: bool) -> None:
        """Parse one term and add it to out, negated when ``negate``."""
        ring, tokens = self.ring, self.tokens
        p, index, units, guard = ring.p, ring._index, ring.packing.units, ring.packing.guard
        m, c, terms = 0, 1, None  # the product (m, c), or its term dict once a factor is one
        at = self.at
        while True:
            tok = tokens[at]
            at += 1
            factor = None
            if tok in index:
                fm, fc = units[index[tok]], 1
            elif tok.isdecimal():
                fm, fc = 0, int(tok) % p
            elif tok == "(":
                self.at = at
                factor = self.expr()
                at = self.at
                if tokens[at] != ")":
                    raise ParseError("expected ')'", self.offset(at))
                at += 1
            elif tok and tok not in "+-*^()":
                raise UnknownVariable(tok, self.offset(at - 1))
            else:
                raise self.unexpected(at - 1)
            if tokens[at] == "^":
                n = tokens[at + 1]
                if not n.isdecimal():
                    raise ParseError("expected exponent", self.offset(at + 1))
                at += 2
                n = int(n)
                if n > MAX_EXPONENT:
                    raise ExponentOverflow(f"exponent {n} exceeds {MAX_EXPONENT}")
                if factor is None:
                    # one variable or constant: its power always fits
                    fm, fc = fm * n, pow(fc, n, p)
                else:
                    factor = _power(factor, n, ring, self.product)
            if factor is not None:
                terms = self.product(({m: c} if c else {}) if terms is None else terms, factor)
            elif terms is not None:
                terms = self.product(terms, {fm: fc} if fc else {})
            elif c:
                c = c * fc % p
                if c:
                    m += fm
                    if m & guard:
                        raise ExponentOverflow(_PRODUCT_OVERFLOW)
            if tokens[at] != "*":
                break
            at += 1
        self.at = at
        get = out.get
        for m, c in ((m, c),) if terms is None else terms.items():
            if c:
                v = (get(m, 0) + (p - c if negate else c)) % p
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
