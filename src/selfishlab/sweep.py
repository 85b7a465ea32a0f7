"""Profitability thresholds and tenure/difficulty resistance sweeps.

``profit_threshold`` finds the smallest attacker power share at which the
analytic revenue share exceeds the power share itself.  No monotonicity is
assumed: a coarse scan over the admissible range locates the lowest alpha
that ``markov.share_verdict`` calls profitable, and bisection refines it.
``resistance_sweep`` maps that threshold over a grid of protocol
parameters, since tenure length and header difficulty determine the round
intensity and therefore the whole attack model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParam
from .markov import share_verdict
from .probmodel import MiningParams, ProtocolParams, lambda_from_protocol

__all__ = [
    "GRID_POINTS",
    "ALPHA_GUARD",
    "ThresholdResult",
    "SweepGrid",
    "SweepCell",
    "profit_threshold",
    "resistance_sweep",
]

GRID_POINTS = 64
# alpha_star = 0 means profitable already at this share (the share is regular
# as alpha -> 0, with limit gamma); the top stays off the divergent alpha -> 1/2
ALPHA_GUARD = 1e-4


@dataclass(frozen=True)
class ThresholdResult:
    """Smallest profitable attacker share for a fixed (lam, gamma).

    alpha_star is 0 when every probed share is already profitable and 0.5
    when none is; in both degenerate cases the bracket collapses onto the
    returned value.  Otherwise the bracket is the final bisection interval
    (width <= tol) containing the crossing, and ``evaluations`` counts the
    share evaluations spent.
    """

    alpha_star: float
    bracket: tuple[float, float]
    evaluations: int


@dataclass(frozen=True)
class SweepGrid:
    """Axes of a tenure x difficulty sweep at fixed hashrate and tie-break."""

    tenures: tuple[float, ...]
    difficulties: tuple[float, ...]
    hashrate: float
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenures", tuple(self.tenures))
        object.__setattr__(self, "difficulties", tuple(self.difficulties))
        for name in ("tenures", "difficulties"):
            values = getattr(self, name)
            if not values:
                raise InvalidParam(f"{name} must not be empty")
            if any(not (math.isfinite(v) and v > 0.0) for v in values):
                raise InvalidParam(f"{name} must contain positive reals, got {values}")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise InvalidParam(f"{name} must be strictly increasing, got {values}")
        if not (math.isfinite(self.hashrate) and self.hashrate > 0.0):
            raise InvalidParam(f"hashrate must be positive, got {self.hashrate}")
        if not (math.isfinite(self.gamma) and 0.0 <= self.gamma <= 1.0):
            raise InvalidParam(f"gamma must be in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class SweepCell:
    """One row of the sweep table."""

    tenure: float
    difficulty: float
    lam: float
    alpha_star: float


def profit_threshold(lam: float, gamma: float, tol: float = 1e-6) -> ThresholdResult:
    """Locate the smallest alpha in (0, 1/2) where withholding is profitable."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidParam(f"lam must be positive, got {lam}")
    if not (math.isfinite(gamma) and 0.0 <= gamma <= 1.0):
        raise InvalidParam(f"gamma must be in [0, 1], got {gamma}")
    if not (math.isfinite(tol) and tol >= 1e-8):
        raise InvalidParam(f"tol must be at least 1e-8, got {tol}")

    def profitable(alpha: float) -> bool:
        return share_verdict(MiningParams(alpha=alpha, lam=lam, gamma=gamma))[1]

    low, high = ALPHA_GUARD, 0.5 - ALPHA_GUARD
    step = (high - low) / (GRID_POINTS - 1)
    grid = [low + i * step for i in range(GRID_POINTS)]
    values = [profitable(alpha) for alpha in grid]
    evaluations = GRID_POINTS

    if values[0]:
        # already profitable at the smallest probed share
        return ThresholdResult(alpha_star=0.0, bracket=(0.0, 0.0), evaluations=evaluations)

    crossing = next((i for i in range(1, GRID_POINTS) if values[i]), None)
    if crossing is None:
        return ThresholdResult(alpha_star=0.5, bracket=(0.5, 0.5), evaluations=evaluations)

    lo, hi = grid[crossing - 1], grid[crossing]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if profitable(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdResult(alpha_star=0.5 * (lo + hi), bracket=(lo, hi),
                           evaluations=evaluations)


def resistance_sweep(grid: SweepGrid) -> list[SweepCell]:
    """Threshold table over the grid, row-major with tenure outermost.

    Each threshold is found by ``profit_threshold`` at its default tolerance.
    The round intensity is a sufficient statistic for the threshold, so
    cells sharing a lam value share their alpha_star bit for bit.
    """
    thresholds: dict[float, float] = {}
    cells = []
    for tenure in grid.tenures:
        for difficulty in grid.difficulties:
            lam = lambda_from_protocol(ProtocolParams(
                tenure=tenure, difficulty=difficulty, hashrate=grid.hashrate))
            if lam not in thresholds:
                thresholds[lam] = profit_threshold(lam, grid.gamma).alpha_star
            cells.append(SweepCell(tenure=tenure, difficulty=difficulty,
                                   lam=lam, alpha_star=thresholds[lam]))
    return cells
