"""Scalar reference for the threshold search.

``profit_threshold`` searches one (lam, gamma) at a time with one
``markov.is_profitable`` call per probe: a 64-point scan over the
admissible range, then bisection of the first profitable bracket.  The
package's lock-step search (``sweep._thresholds``) runs the same probes on
arrays of lambdas, and the tests pin it to this reference bit for bit.
"""

import math

from selfishlab.errors import InvalidParam
from selfishlab.markov import is_profitable
from selfishlab.probmodel import MiningParams, _require_gamma, _require_lam
from selfishlab.sweep import ALPHA_GUARD, GRID_POINTS, ThresholdResult


def profit_threshold(lam: float, gamma: float, tol: float = 1e-6) -> ThresholdResult:
    """Locate the smallest alpha in (0, 1/2) where withholding is profitable."""
    _require_lam(lam)
    _require_gamma(gamma)
    if not (math.isfinite(tol) and tol >= 1e-8):
        raise InvalidParam(f"tol must be at least 1e-8, got {tol}")

    def profitable(alpha: float) -> bool:
        return is_profitable(MiningParams(alpha=alpha, lam=lam, gamma=gamma)).profitable

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
