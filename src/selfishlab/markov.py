"""Stationary analysis of the private-lead state machine and its revenue algebra.

For transition probabilities ``(p1, p2, p3)`` the lead process is a
birth-death chain on the nonnegative integers: ``p2``, the attacker-only
round, opens a lead from state 0 or extends one, ``p3`` shrinks it by one,
and all remaining mass is a self-loop.  When ``p2 < p3`` the chain is
positive recurrent with the geometric law

    q_k = (1 - rho) * rho**k,   rho = p2 / p3,   k >= 0

which satisfies ``p2*q_k = p3*q_{k+1}`` and which :class:`StationaryDist`
holds as rho alone.  If ``p2 >= p3`` the lead drifts upward - the attacker
out-mines the rest of the network - and no stationary distribution exists
(:class:`~selfishlab.errors.DivergentLead`).

Revenue is tallied per resolution event in units of one block reward:

* a same-height race at lead 1 pays the winner one reward; the withheld
  branch wins with probability ``gamma``,
* a collapse from lead 2 pays the attacker two rewards,
* each further step down from lead >= 3 pays the attacker one reward
  (the block is committed even though it is cashed in later).

Since ``1 - q0 = q1 / (1 - rho)``, the attacker's share of the counted
revenue depends on rho and gamma alone, rising from gamma at rho = 0 to 1:

    share = (gamma*(1 - rho) + rho*(2 - rho)) / (1 + rho*(1 - rho))

In this stylized accounting honest miners are credited only for won
races, so the share never falls below its rho -> 0 limit gamma: an
attacker smaller than gamma always profits, and the threshold search
returns 0 for any gamma above its first probe ``sweep.ALPHA_GUARD``.  A
nonzero threshold needs gamma = 0 (below ``ALPHA_GUARD``) and a lambda
above lambda_c ~ 1.2564, the root of e**lambda - 1 = 2*lambda, where the
small-attacker share 2*alpha*lambda/(e**lambda - 1) drops below alpha.

``stationary_truncated_oracle`` checks the law without reusing its
algebra: it builds the rate matrix of the chain truncated at state K and
solves its balance equations, with one replaced by the normalization, in
a single linear solve.  ``verify`` compares it with the law ``analyze`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DivergentLead, InvalidParam
from .probmodel import (MiningParams, TransitionProbs, _require_gamma, _require_minority,
                        derive_transition_probs, lead_ratio)

__all__ = [
    "StationaryDist",
    "RevenueReport",
    "stationary",
    "q_at",
    "revenue_rates",
    "revenue_ratio",
    "is_profitable",
    "stationary_truncated_oracle",
]


@dataclass(frozen=True)
class StationaryDist:
    """Stationary distribution of the lead chain, held by rho alone.

    q0 = 1 - rho and q1 = rho*(1 - rho) carry the first two states; every
    deeper state follows the geometric decay ``q_k = q1 * rho**(k-1)``.
    """

    rho: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.rho < 1.0):
            raise InvalidParam(f"rho must be in [0, 1), got {self.rho}")

    @property
    def q0(self) -> float:
        return 1.0 - self.rho

    @property
    def q1(self) -> float:
        return self.rho * (1.0 - self.rho)


@dataclass(frozen=True)
class RevenueReport:
    """Revenue rates per round (in block rewards), verdict, and the distribution used."""

    r_a: float
    r_b: float
    ratio: float
    profitable: bool
    dist: StationaryDist


def _require_recurrent(probs: TransitionProbs) -> None:
    if probs.p3 == 0.0:
        raise InvalidParam("p3 must be positive: the lead could never shrink")
    if probs.p2 >= probs.p3:
        raise DivergentLead(
            f"lead extension outpaces recovery (p2={probs.p2} >= p3={probs.p3}): "
            "attacker majority, no stationary lead distribution")


def stationary(probs: TransitionProbs) -> StationaryDist:
    """Solve the balance equations of the lead chain.

    Raises InvalidParam when p3 = 0 (the lead can never shrink) and
    DivergentLead when p2 >= p3.
    """
    _require_recurrent(probs)
    return StationaryDist(rho=probs.p2 / probs.p3)


def q_at(dist: StationaryDist, k: int) -> float:
    """Stationary probability of lead ``k``, a nonnegative integer."""
    if isinstance(k, bool) or not isinstance(k, Integral):
        raise InvalidParam(f"state index must be an integer, got {k!r}")
    if k < 0:
        raise InvalidParam(f"state index must be nonnegative, got {k}")
    if k == 0:
        return dist.q0
    return dist.q1 * dist.rho ** (k - 1)


def _payouts(rho: float | np.ndarray, gamma: float) -> tuple:
    # the paper ledger's (attacker, honest) revenue in units of q1*p3/(1 - rho);
    # their sum 1 + rho*(1 - rho), written this way, keeps the share in [0, 1]
    return gamma * (1.0 - rho) + rho * (2.0 - rho), (1.0 - gamma) * (1.0 - rho)


def revenue_rates(dist: StationaryDist, probs: TransitionProbs,
                  gamma: float) -> tuple[float, float]:
    """Per-round revenue rates (attacker, honest) in units of one reward.

    r_a = (gamma*q1 + 2*q2 + sum_{k>=3} q_k) * p3
    r_b = (1 - gamma) * q1 * p3

    with q_k = q1 * rho**(k-1): the ``revenue_ratio`` payouts times q1*p3/(1 - rho).
    """
    _require_gamma(gamma)
    scale = dist.q1 * probs.p3 / (1.0 - dist.rho)
    attacker, honest = _payouts(dist.rho, gamma)
    return attacker * scale, honest * scale


def revenue_ratio(rho: float | np.ndarray, gamma: float) -> float | np.ndarray:
    """Attacker's share of all counted revenue, r_a / (r_a + r_b), at a float or array rho.

    At rho = 0 it takes its limit gamma, the share of an attacker that mines
    however rarely.  Raises InvalidParam unless every rho is in [0, 1).
    """
    _require_gamma(gamma)
    if not np.all((0.0 <= rho) & (rho < 1.0)):
        raise InvalidParam(f"rho must be in [0, 1), got {rho}")
    attacker, honest = _payouts(rho, gamma)
    return attacker / (attacker + honest)


def is_profitable(params: MiningParams) -> RevenueReport:
    """Full analytic pipeline: params -> probabilities -> revenue verdict.

    Profitable means the attacker's revenue share exceeds its power share
    ``alpha``, i.e. withholding beats mining honestly.  The distribution is
    built from rho alone, so it keeps its digits where p2 underflows.
    Raises DivergentLead when alpha >= 1/2, or when rho rounds to 1 or
    above just below 1/2.
    """
    _require_minority(params.alpha)
    rho = float(lead_ratio(params.alpha, params.lam))
    if rho >= 1.0:
        raise DivergentLead(f"rho = p2/p3 rounds to {rho!r} at alpha={params.alpha!r}, "
                            f"lam={params.lam!r}: no stationary lead distribution in "
                            "floating point")
    ratio = revenue_ratio(rho, params.gamma)
    dist = StationaryDist(rho=rho)
    r_a, r_b = revenue_rates(dist, derive_transition_probs(params), params.gamma)
    return RevenueReport(r_a=r_a, r_b=r_b, ratio=ratio, profitable=ratio > params.alpha,
                         dist=dist)


def stationary_truncated_oracle(probs: TransitionProbs, K: int) -> np.ndarray:
    """Stationary vector of the K-truncated lead chain by one direct solve.

    Builds the (K+1)-state rate matrix Q from the moves alone: p2 opens or
    extends a lead, p3 shrinks it, and state K has no upward move.  Each
    diagonal entry is minus its row's off-diagonal sum, so no ``1 - p`` is
    ever formed.  State 0's balance equation in ``vQ = 0`` is replaced by
    the normalization ``sum(v) = 1``, and the system is solved once
    (Stewart, *Introduction to the Numerical Solution of Markov Chains*,
    1994, ch. 2).

    The truncation error relative to the infinite chain is bounded by the
    geometric tail rho**K, so callers pick K from their target accuracy.
    """
    if K < 2:
        raise InvalidParam(f"K must be at least 2, got {K}")
    _require_recurrent(probs)
    Q = np.zeros((K + 1, K + 1))
    up = np.arange(K)
    Q[up, up + 1] = probs.p2
    Q[up + 1, up] = probs.p3
    np.fill_diagonal(Q, -Q.sum(axis=1))
    A = Q.T  # row j is state j's balance equation; row 0 becomes sum(v) = 1
    A[0] = 1.0
    b = np.zeros(K + 1)
    b[0] = 1.0
    return np.linalg.solve(A, b)
