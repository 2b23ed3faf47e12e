"""Level schedules ``c * j^g * 2^(-e*j)`` and their exact asymptotics, and
the truncation modes (`Infinite`, `Regression`) that fix a draw's top level.

Both hyperparameter sequences of the prior live in this family: the scale
``tau_j`` and the nonzero probability ``pi_j`` (the latter clamped to
[0, 1] when used as a probability).  Restricting to this family makes the
relevant series and suprema exactly decidable from the exponents, which
the membership classifiers rely on; nothing in the package ever decides
convergence by numerically summing a sequence.  `series_verdict` and
`sup_verdict` are the only code that states the rule; `growth_regime`
and the classifiers in `theory` call them.

Conventions: ``j^g := 1`` at ``j = 0``; all schedules are over integer
levels ``j >= 0``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .fields import ConfigError

__all__ = [
    "LevelSchedule",
    "Infinite",
    "Regression",
    "GrowthKind",
    "growth_regime",
    "series_verdict",
    "sup_verdict",
    "clamped_exponents",
]


@dataclass(frozen=True)
class LevelSchedule:
    """Sequence ``value_at(j) = c * j^g * 2^(-e*j)``.

    ``c`` is the leading constant (nonnegative), ``e`` the dyadic decay
    exponent and ``g`` the polynomial exponent.
    """

    c: float
    e: float = 0.0
    g: float = 0.0

    def __post_init__(self) -> None:
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ValueError(f"schedule constant must be finite and >= 0, got {self.c}")
        if not (math.isfinite(self.e) and math.isfinite(self.g)):
            raise ValueError("schedule exponents must be finite")

    def value_at(self, j: int) -> float:
        """The value at level ``j``; ``inf`` when it overflows a float."""
        if j < 0:
            raise ValueError(f"level must be >= 0, got {j}")
        try:
            poly = 1.0 if j == 0 else float(j) ** self.g
            return self.c * poly * 2.0 ** (-self.e * j)
        except OverflowError:
            # a factor overflows (j >= 1): add the base-2 exponents instead
            if self.c == 0:
                return 0.0
            log2_value = math.log2(self.c) + self.g * math.log2(j) - self.e * j
            return math.inf if log2_value >= 1024 else 2.0**log2_value

    def clamped_at(self, j: int) -> float:
        """``min(1, value_at(j))`` — the probability reading of the schedule;
        a value that overflows a float reads as 1."""
        return min(1.0, self.value_at(j))


@dataclass(frozen=True)
class Infinite:
    """Truncate the infinite model at top level ``j_max`` (inclusive)."""

    j_max: int


@dataclass(frozen=True)
class Regression:
    """Finite-n regression prior: top level ``floor(log2 n) - 1`` and a
    global ``n^(-1/2)`` scale on coefficients."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError("n", f"regression needs n >= 2, got {self.n}")


Mode = Infinite | Regression


def series_verdict(e: float, g: float) -> bool:
    """Whether ``sum_j j^g 2^(-e*j)`` converges: iff ``e > 0`` or
    (``e = 0`` and ``g < -1``)."""
    return e > 0 or (e == 0 and g < -1)


def sup_verdict(e: float, g: float) -> bool:
    """Whether ``sup_j j^g 2^(-e*j)`` is finite: iff ``e > 0`` or
    (``e = 0`` and ``g <= 0``)."""
    return e > 0 or (e == 0 and g <= 0)


class GrowthKind(enum.Enum):
    INCREASES_TO_INFINITY = "IncreasesToInfinity"
    TENDS_TO_CONSTANT = "TendsToConstant"
    SUMMABLE = "Summable"
    NOT_COVERED = "NotCovered"


def clamped_exponents(pi: LevelSchedule) -> tuple[float, float, float]:
    """Asymptotic ``(c, e, g)`` of ``min(1, pi_j)`` for large ``j``.

    Clamping only matters when the raw schedule stays at or above 1:
    with ``e < 0``, or ``e = 0`` and ``g > 0``, the clamped sequence is
    eventually identically 1; with ``e = 0``, ``g = 0`` the constant is
    capped at 1.
    """
    c, e, g = pi.c, pi.e, pi.g
    if c == 0:
        return 0.0, 0.0, 0.0
    if e > 0:
        return c, e, g
    if e == 0:
        if g < 0:
            return c, 0.0, g
        if g == 0:
            return min(1.0, c), 0.0, 0.0
        return 1.0, 0.0, 0.0
    return 1.0, 0.0, 0.0


def growth_regime(pi: LevelSchedule) -> GrowthKind:
    """Regime of ``n_j = 2^j * min(1, pi_j)``, the expected nonzero count.

    ``n_j ~ c j^g 2^(-(e-1) j)`` for the clamped exponents, so the
    predicates at ``(e - 1, g)`` give Summable, IncreasesToInfinity,
    TendsToConstant, or NotCovered for the gap where ``n_j -> 0`` but
    ``sum n_j`` diverges (the theory has no statement there).
    """
    c, e, g = clamped_exponents(pi)
    if c == 0 or series_verdict(e - 1, g):
        return GrowthKind.SUMMABLE
    if not sup_verdict(e - 1, g):
        return GrowthKind.INCREASES_TO_INFINITY
    return GrowthKind.TENDS_TO_CONSTANT if g == 0 else GrowthKind.NOT_COVERED
