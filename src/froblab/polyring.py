"""Sparse multivariate polynomial arithmetic over prime fields.

Polynomials are immutable values attached to a PolyRing handle fixing the
characteristic, the variable names and a monomial order, lex or grevlex, used
for printing and Groebner computations.  Monomials are plain exponent tuples;
coefficients are plain ints in [0, p), and a stored term never has
coefficient 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import (
    ExponentOverflow,
    ParseError,
    RingMismatch,
    UnknownVariable,
)

Monomial = tuple[int, ...]

# exponents must fit in 16 bits; overflow is a hard error, never a wraparound
MAX_EXPONENT = 0xFFFF
MAX_MODULUS = 1 << 31

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


# ---------------------------------------------------------------------------
# monomial helpers (monomials are exponent tuples)

def monomial_div(num: Monomial, den: Monomial) -> Monomial | None:
    """num / den, or None when den does not divide num."""
    out = []
    for x, y in zip(num, den):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x if x > y else y for x, y in zip(a, b))


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


# ---------------------------------------------------------------------------


class PolyRing:
    """Handle for F_p[variables] with a default monomial order."""

    __slots__ = ("p", "variables", "order", "_index")

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
        # trusted constructor: terms already reduced, zero coefficients dropped
        return Polynomial(self, terms)

    def zero(self) -> "Polynomial":
        return self._poly({})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        return self._poly({} if c == 0 else {(0,) * self.nvars: c})

    def variable(self, name: str) -> "Polynomial":
        if name not in self._index:
            raise UnknownVariable(name)
        exps = [0] * self.nvars
        exps[self._index[name]] = 1
        return self._poly({tuple(exps): 1})

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
        return self._poly({} if c == 0 else {exps: c})

    def parse(self, text: str) -> "Polynomial":
        return _Parser(self, text).run()

    def format(self, poly: "Polynomial") -> str:
        if not poly._terms:
            return "0"
        key = self.order.key
        parts = []
        for m in sorted(poly._terms, key=key, reverse=True):
            c = poly._terms[m]
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
        key = self.ring.order.key
        return [(m, self._terms[m]) for m in sorted(self._terms, key=key, reverse=True)]

    def constant_coefficient(self) -> int:
        return self._terms.get((0,) * self.ring.nvars, 0)

    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def is_homogeneous(self) -> bool:
        """True when every term has the same total degree; the zero
        polynomial is homogeneous."""
        return len({sum(m) for m in self._terms}) <= 1

    def leading_term(self, order: MonomialOrder | None = None) -> tuple[Monomial, int] | None:
        if not self._terms:
            return None
        key = (order or self.ring.order).key
        m = max(self._terms, key=key)
        return m, self._terms[m]

    def leading_monomial(self, order: MonomialOrder | None = None) -> Monomial | None:
        lt = self.leading_term(order)
        return lt[0] if lt else None

    def support_variables(self) -> set[str]:
        used = set()
        for m in self._terms:
            for name, e in zip(self.ring.variables, m):
                if e:
                    used.add(name)
        return used

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

    def _max_exponents(self) -> Monomial:
        out = [0] * self.ring.nvars
        for m in self._terms:
            for i, e in enumerate(m):
                if e > out[i]:
                    out[i] = e
        return tuple(out)

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        if isinstance(other, int):
            p = self.ring.p
            c = other % p
            if c == 0:
                return self.ring.zero()
            return self.ring._poly({m: (cc * c) % p for m, cc in self._terms.items()})
        self._require_same(other)
        if not self._terms or not other._terms:
            return self.ring.zero()
        for a, b in zip(self._max_exponents(), other._max_exponents()):
            if a + b > MAX_EXPONENT:
                raise ExponentOverflow(f"product exponent {a + b} exceeds {MAX_EXPONENT}")
        p = self.ring.p
        out: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return self.ring._poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def frobenius_pow(self, e: int) -> "Polynomial":
        """self ** (p**e) via the additive shortcut: scale exponents by p**e
        and raise coefficients, valid in characteristic p."""
        if e < 0:
            raise ValueError("negative Frobenius power")
        if e == 0:
            return self
        p = self.ring.p
        q = p ** e
        out = {}
        for m, c in self._terms.items():
            scaled = []
            for x in m:
                xq = x * q
                if xq > MAX_EXPONENT:
                    raise ExponentOverflow(f"exponent {xq} exceeds {MAX_EXPONENT}")
                scaled.append(xq)
            out[tuple(scaled)] = pow(c, q, p)
        return self.ring._poly(out)

    def mapped_to(self, other: PolyRing) -> "Polynomial":
        """Re-express in another ring with the same modulus, matching
        variables by name.  Variables carrying a positive exponent must
        exist in the target ring."""
        if other.p != self.ring.p:
            raise RingMismatch("target ring has a different modulus")
        positions: list[int | None] = [other._index.get(n) for n in self.ring.variables]
        out = {}
        for m, c in self._terms.items():
            exps = [0] * other.nvars
            for i, e in enumerate(m):
                if not e:
                    continue
                j = positions[i]
                if j is None:
                    raise UnknownVariable(self.ring.variables[i])
                exps[j] = e
            out[tuple(exps)] = c
        return other._poly(out)

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
# one.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()])"
)


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.at = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.at]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def run(self) -> Polynomial:
        poly = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", offset)
        return poly

    def expr(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.advance()
            negate = value == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly - rhs if value == "-" else poly + rhs
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> Polynomial:
        poly = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.advance()
            if kind != "nat":
                raise ParseError("expected exponent", offset)
            n = int(value)
            if n > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {n} exceeds {MAX_EXPONENT}")
            poly = poly ** n
        return poly

    def atom(self) -> Polynomial:
        kind, value, offset = self.advance()
        if kind == "nat":
            return self.ring.constant(int(value))
        if kind == "ident":
            if value not in self.ring._index:
                raise UnknownVariable(value, offset)
            return self.ring.variable(value)
        if kind == "op" and value == "(":
            poly = self.expr()
            kind, value, offset = self.advance()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", offset)
            return poly
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", offset)
