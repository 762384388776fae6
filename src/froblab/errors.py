"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` (the class name) that
the CLI passes through into error reports.
"""


class FroblabError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class RingMismatch(FroblabError):
    """Operands belong to different ring handles."""


class UnknownVariable(FroblabError):
    def __init__(self, name: str, offset: int = -1):
        super().__init__(f"unknown variable {name!r}" + (f" at offset {offset}" if offset >= 0 else ""))
        self.name = name
        self.offset = offset


class ParseError(FroblabError):
    """Polynomial text that does not match the grammar; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ExponentOverflow(FroblabError):
    """An exponent left the 16-bit storage range."""


class BudgetExceeded(FroblabError):
    """A work limit was hit: one Buchberger run (tracked and lex runs too)
    formed more pairs, the pair loop's S-pairs or the signature loop's
    J-pairs, than ``froblab.groebner.DEFAULT_PAIR_BUDGET``, an oracle box
    was too large, or the products and powers of one parsed text would
    take more term products than the parser's budget."""


class ZeroColonDivisor(FroblabError):
    """Colon by the zero ideal."""


class UnitIdeal(FroblabError):
    """The operation requires a proper ideal."""


class NotArtinian(FroblabError):
    """The quotient is not finite-dimensional over the ground field."""


class ZeroElement(FroblabError):
    """The element is zero in the quotient ring."""


class NotNZD(FroblabError):
    """The element is a zerodivisor on the quotient ring."""


class NotRegularSequence(FroblabError):
    """The given elements fail the iterated nonzerodivisor test."""


class TypeNotOne(FroblabError):
    """The Artinian reduction has socle dimension different from 1."""


class InjectivityFailure(FroblabError):
    """The lifted socle element died in J*I; contradicts the transfer argument,
    so some input assumption (typically canonicity of I) is wrong."""


class EvenCharacteristic(FroblabError):
    """Operation requires p > 2."""


class OddCharacteristic(FroblabError):
    """Operation requires p = 2."""


class InputAssumptionViolation(FroblabError):
    """A stated precondition failed a runtime check."""


class ContextMismatch(FroblabError):
    """Cover elements from different cover contexts were combined."""


class SpecFileError(FroblabError):
    """Malformed ring-spec file; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int = -1):
        super().__init__(f"{message}" + (f" (line {line})" if line >= 1 else ""))
        self.line = line


class MissingField(FroblabError):
    """A ring-spec field required by the command is absent."""


class BadMatrixShape(FroblabError):
    """The matrix in the ring-spec is not 2 x n."""
