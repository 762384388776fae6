"""Typed verdict reports shared by the quotient and cover layers.

Two evidence levels run through everything: a *decisive* verdict is backed by
an explicit witness and refutes a hypothesis outright; an *evidence* verdict
only says nothing failed within the searched exponent range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

# closure-test verdicts
NOT_FROBENIUS_CLOSED = "NOT_FROBENIUS_CLOSED"
CLOSED_UP_TO = "CLOSED_UP_TO"

# cover criterion verdicts
DECISIVE_NOT_F_INJECTIVE = "DECISIVE_NOT_F_INJECTIVE"
NO_FAILURE_UP_TO = "NO_FAILURE_UP_TO"
P2_DEGENERATE = "P2_DEGENERATE"

LEVEL_DECISIVE = "decisive"
LEVEL_EVIDENCE = "evidence"


@dataclass(frozen=True)
class ClosureWitness:
    """A socle combination whose Frobenius power fell into the bracket power."""

    element: str
    e: int
    combination_index: int
    coefficients: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "element": self.element,
            "e": self.e,
            "combination_index": self.combination_index,
            "coefficients": list(self.coefficients),
        }


@dataclass(frozen=True)
class ClosureReport:
    verdict: str
    e_max: int
    witness: ClosureWitness | None
    regular_sequence_verified: bool
    socle_dimension: int
    # combinations an exhaustive sweep in itertools.product order decides up
    # to and including the witness (its base-p index), or all p**r - 1 of
    # them when there is none; 0 when the socle is zero or e_max is 0
    combinations_tested: int
    monotonicity_verified: bool | None

    def __post_init__(self):
        if (self.verdict == NOT_FROBENIUS_CLOSED) != (self.witness is not None):
            raise ValueError("witness must be present exactly for the decisive verdict")

    @property
    def decisive(self) -> bool:
        return self.verdict == NOT_FROBENIUS_CLOSED

    @property
    def level(self) -> str:
        return LEVEL_DECISIVE if self.decisive else LEVEL_EVIDENCE

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "level": self.level,
            "e_max": self.e_max,
            "witness": self.witness.to_dict() if self.witness else None,
            # every socle combination is decided, so no report is partial;
            # schema froblab-report/1 lists the field
            "partial": False,
            "regular_sequence_verified": self.regular_sequence_verified,
            "socle_dimension": self.socle_dimension,
            "combinations_tested": self.combinations_tested,
            "monotonicity_verified": self.monotonicity_verified,
        }


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of a bounded cover F-injectivity criterion run."""

    verdict: str
    e_max: int | None
    witness_e: int | None
    assumptions: tuple[str, ...] = ()
    sub_results: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        decisive = self.verdict == DECISIVE_NOT_F_INJECTIVE
        if decisive != (self.witness_e is not None):
            raise ValueError("witness_e must be present exactly for the decisive verdict")

    @property
    def decisive(self) -> bool:
        return self.verdict in (DECISIVE_NOT_F_INJECTIVE, P2_DEGENERATE)

    @property
    def level(self) -> str:
        return LEVEL_DECISIVE if self.decisive else LEVEL_EVIDENCE

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "level": self.level,
            "e_max": self.e_max,
            "witness_e": self.witness_e,
            "assumptions": list(self.assumptions),
            "details": _plain(self.sub_results),
        }


@dataclass(frozen=True)
class PipelineReport:
    """Chained verdicts for the cover pipeline over one presentation."""

    ambient_f_pure: bool
    quotient_f_pure: bool
    quotient_route: str
    quotient_presentation: tuple[str, ...]
    criterion: CriterionReport
    closure: ClosureReport
    conclusion_status: str  # supported-by-evidence | hypotheses-not-met | decisive-counterexample
    conclusion: str
    assumptions: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "ambient_f_pure": self.ambient_f_pure,
            "quotient_f_pure": self.quotient_f_pure,
            "quotient_route": self.quotient_route,
            "quotient_presentation": list(self.quotient_presentation),
            "criterion": self.criterion.to_dict(),
            "closure": self.closure.to_dict(),
            "conclusion": {
                "status": self.conclusion_status,
                "statement": self.conclusion,
            },
            "assumptions": list(self.assumptions),
        }


def _plain(value: Any) -> Any:
    """Recursively strip report objects down to JSON-ready values."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value
