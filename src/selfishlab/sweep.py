"""Profitability thresholds and tenure/difficulty resistance sweeps.

``profit_threshold`` finds the smallest attacker power share at which the
analytic revenue share exceeds the power share itself.  No monotonicity is
assumed: a coarse scan over the admissible range locates the lowest probed
alpha that is profitable, and bisection refines the bracket below it.
``resistance_sweep`` maps that threshold over a grid of protocol
parameters, since tenure length and header difficulty determine the round
intensity and therefore the whole attack model, and returns the rows that
``selfishlab sweep`` writes, one dict per cell.  It checks its two axes
and gamma itself, and takes its whole lambda grid from one call of
``probmodel.lambda_from_protocol`` on the broadcast axes, which checks
every protocol triple.

Both run one search, ``_thresholds``, over an array of lambdas at once; it
returns arrays, and ``profit_threshold`` builds the one ``ThresholdResult``.
The scan evaluates the share on a (GRID_POINTS, lambdas) array, and the
open brackets are bisected in lock step, each until its width is at most
``tol``.  Each probe evaluates the share with ``probmodel.lead_ratio`` and
``markov.revenue_ratio``, the same rho and share as ``is_profitable``, so
a probe and ``analyze`` at the same point give the same verdict.  The tests
pin ``alpha_star``, the bracket and the evaluation count bit for bit to a
one-lambda-at-a-time search through ``is_profitable``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam
from .markov import revenue_ratio
from .probmodel import _require_gamma, _require_lam, lambda_from_protocol, lead_ratio

__all__ = [
    "GRID_POINTS",
    "ALPHA_GUARD",
    "ThresholdResult",
    "profit_threshold",
    "resistance_sweep",
]

GRID_POINTS = 64
# alpha_star = 0 means profitable already at this share (the share is regular
# as alpha -> 0, with limit gamma); the top stays off the divergent alpha -> 1/2
ALPHA_GUARD = 1e-4
_TOL = 1e-6  # bracket width of profit_threshold's default and of every sweep cell


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


def _thresholds(lams: np.ndarray, gamma: float,
                tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(alpha_star, bracket low, bracket high, evaluations), one entry per lambda.

    The threshold search for a float64 array of lambdas at once; the callers
    validate its inputs.
    """
    def profitable(alpha: np.ndarray, lam: np.ndarray) -> np.ndarray:
        # no probe comes within ALPHA_GUARD of 1/2, so rho stays below 0.9997
        return revenue_ratio(lead_ratio(alpha, lam)[0], gamma) > alpha

    low, high = ALPHA_GUARD, 0.5 - ALPHA_GUARD
    step = (high - low) / (GRID_POINTS - 1)
    grid = low + np.arange(GRID_POINTS) * step
    values = profitable(grid[:, None], lams)    # (GRID_POINTS, len(lams))
    crossing = values.argmax(axis=0)            # first profitable row, 0 if none
    evaluations = np.full(lams.size, GRID_POINTS)

    # an open bracket ends at the first profitable probe above the smallest one
    lo, hi = grid[crossing - 1], grid[crossing]
    active = (crossing > 0) & (hi - lo > tol)
    while active.any():
        at = np.flatnonzero(active)
        mid = 0.5 * (lo[at] + hi[at])
        evaluations[at] += 1
        above = profitable(mid, lams[at])
        hi[at[above]] = mid[above]
        lo[at[~above]] = mid[~above]
        active[at] = hi[at] - lo[at] > tol

    # a closed bracket sits on 0 (profitable at the smallest probe) or on 1/2 (nowhere)
    closed = crossing == 0
    edge = np.where(values[0], 0.0, 0.5)
    lo, hi = np.where(closed, edge, lo), np.where(closed, edge, hi)
    return 0.5 * (lo + hi), lo, hi, evaluations


def profit_threshold(lam: float, gamma: float, tol: float = _TOL) -> ThresholdResult:
    """Locate the smallest alpha in (0, 1/2) where withholding is profitable."""
    _require_lam(lam)
    _require_gamma(gamma)
    if not (math.isfinite(tol) and tol >= 1e-8):
        raise InvalidParam(f"tol must be at least 1e-8, got {tol}")
    alpha_star, lo, hi, evaluations = _thresholds(np.array([lam], dtype=float), gamma, tol)
    return ThresholdResult(alpha_star=alpha_star.item(), bracket=(lo.item(), hi.item()),
                           evaluations=evaluations.item())


def resistance_sweep(tenures: Sequence[float], difficulties: Sequence[float],
                     hashrate: float, gamma: float) -> list[dict[str, float]]:
    """The rows of the ``sweep`` table, row-major with tenure outermost.

    One dict per cell with the keys ``tenure``, ``difficulty``, ``lambda``
    and ``alpha_star``, in that order, and Python-float values.  Each axis
    must be nonempty and strictly increasing, and gamma in [0, 1]; one
    ``lambda_from_protocol`` call checks every (tenure, difficulty,
    hashrate) triple and the lambda it gives, and raises InvalidParam for
    the first bad cell in table order, such as one whose lambda overflows or
    underflows.  The round intensity is a sufficient statistic for the
    threshold, so one lock-step search runs over the sorted distinct
    lambdas, at ``profit_threshold``'s default tolerance; rows with the same
    lambda share their alpha_star bit for bit.
    """
    for name, axis in (("tenures", tenures), ("difficulties", difficulties)):
        if len(axis) == 0:
            raise InvalidParam(f"{name} must not be empty")
        if any(b <= a for a, b in zip(axis, axis[1:])):
            raise InvalidParam(f"{name} must be strictly increasing, got {axis}")
    _require_gamma(gamma)
    tenures, difficulties = np.asarray(tenures, dtype=float), np.asarray(difficulties, dtype=float)
    lams = lambda_from_protocol(tenures[:, None], difficulties, hashrate).ravel()
    distinct, cell_lam = np.unique(lams, return_inverse=True)
    alpha_star = _thresholds(distinct, gamma, _TOL)[0][cell_lam]
    return [{"tenure": tenure, "difficulty": difficulty, "lambda": lam, "alpha_star": star}
            for (tenure, difficulty), lam, star in zip(
                itertools.product(tenures.tolist(), difficulties.tolist()),
                lams.tolist(), alpha_star.tolist())]
