"""Round-level mining probabilities for a tenure-based bilayer PoW protocol.

The protocol under study elects one leader per round through a header
proof-of-work; a round spans one leader tenure plus a fixed propagation
window, which is also the timeout after which honest miners restart the
election when a leader withholds its constructed block.  Header
discoveries across the whole network are modelled as a Poisson process
with per-round intensity ``lam``, split between an attacker pool holding a
fraction ``alpha`` of the total power and the honest remainder.  Within a
round only the first discovery per side matters (extra solutions confer no
additional height), so each side's round outcome is Bernoulli:

    p_attacker = 1 - exp(-alpha * lam)
    p_honest   = 1 - exp(-(1 - alpha) * lam)

Treating the two sides' discoveries as independent within a round yields
the three transition probabilities of the private-lead state machine:

    p1 = p_attacker * p_honest                  both find; lead unchanged
    p2 = p_attacker * exp(-(1 - alpha) * lam)   lead opens from 0 or extends by one
    p3 = exp(-alpha * lam) * p_honest           honest side closes the lead by one

An attacker-only round opens a lead as often as it extends one, so the
lead law is geometric, ``q_k = (1 - rho) * rho**k``.  The leftover mass
``(1 - p_attacker) * (1 - p_honest)`` is the idle self-loop.
``lead_ratio`` gives ``rho = p2 / p3`` and ``d = 1 - rho``, which set the
lead law and the revenue share even where p2 and p3 underflow or alpha -> 1/2.

The Poisson split is the one modelling assumption added here on top of the
protocol parameters: proof-of-work inter-solution times are exponential,
so solution counts over a fixed tenure are Poisson and thin independently
by power share.  Everything downstream (stationary analysis, simulation,
sweeps) consumes only ``(alpha, lam, gamma)``.  The protocol knobs enter
only through ``lambda_from_protocol(tenure, difficulty, hashrate)``, the
one place that checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergentLead, InvalidParam

__all__ = [
    "MiningParams",
    "TransitionProbs",
    "lambda_from_protocol",
    "round_success_probs",
    "derive_transition_probs",
    "lead_ratio",
    "apply_fix",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParam(message)


def _require_lam(lam: float) -> None:
    _require(math.isfinite(lam), f"lam must be finite, got {lam}")
    _require(lam > 0.0, f"lam must be positive, got {lam}")


def _require_gamma(gamma: float) -> None:
    _require(math.isfinite(gamma) and 0.0 <= gamma <= 1.0,
             f"gamma must be in [0, 1], got {gamma}")


def _require_minority(alpha: float) -> None:
    """An attacker with half the power or more out-mines the rest: its lead drifts up."""
    if alpha >= 0.5:
        raise DivergentLead(f"alpha={alpha} >= 1/2: attacker majority, no stationary lead")


@dataclass(frozen=True)
class MiningParams:
    """Attack-model parameters.

    alpha: attacker's share of total mining power, in (0, 1).
    lam:   expected header discoveries network-wide per round, > 0.
    gamma: probability that the withheld branch wins a same-height fork
           race under the diversity tie-break, in [0, 1].  0.5 models an
           even race; 0 models a diversity rule that always prefers the
           public branch.
    """

    alpha: float
    lam: float
    gamma: float = 0.5

    def __post_init__(self) -> None:
        _require(math.isfinite(self.alpha) and 0.0 < self.alpha < 1.0,
                 f"alpha must be in (0, 1), got {self.alpha}")
        _require_lam(self.lam)
        _require_gamma(self.gamma)


@dataclass(frozen=True)
class TransitionProbs:
    """The three named transition probabilities of the lead state machine.

    p1: both sides find in the same round (lead unchanged).
    p2: attacker finds while honest side does not (lead opens or extends).
    p3: honest side finds while attacker does not (lead shrinks).

    p1 + p2 + p3 must not exceed 1: they partition the outcomes of one
    round together with the unnamed idle event.  Stationarity additionally
    needs p2 < p3, which is checked at use sites rather than at
    construction.
    """

    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3"):
            value = getattr(self, name)
            _require(math.isfinite(value) and 0.0 <= value <= 1.0,
                     f"{name} must be a probability, got {value}")
        # 1e-12 slack absorbs float rounding of independently computed products.
        _require(self.p1 + self.p2 + self.p3 <= 1.0 + 1e-12,
                 f"p1 + p2 + p3 must not exceed 1, got {self.p1 + self.p2 + self.p3}")


def lambda_from_protocol(tenure: float, difficulty: float, hashrate: float) -> float:
    """Expected header discoveries per round: tenure * hashrate / difficulty.

    tenure is the leader tenure in seconds, difficulty the expected hashes per
    header solution and hashrate the network's hashes per second.  Each must
    be a positive real, and the lambda they give must be finite and positive.
    """
    for name, value in (("tenure", tenure), ("difficulty", difficulty), ("hashrate", hashrate)):
        _require(math.isfinite(value) and value > 0.0,
                 f"{name} must be a positive real, got {value}")
    lam = tenure * hashrate / difficulty
    _require_lam(lam)
    return lam


def round_success_probs(params: MiningParams) -> tuple[float, float]:
    """(p_attacker, p_honest): each side's chance to find a header in a round, in [0, 1]."""
    return (-math.expm1(-params.alpha * params.lam),
            -math.expm1(-(1.0 - params.alpha) * params.lam))


def derive_transition_probs(params: MiningParams) -> TransitionProbs:
    """Map mining parameters to the lead machine's transition probabilities."""
    p_attacker, p_honest = round_success_probs(params)
    return TransitionProbs(
        p1=p_attacker * p_honest,
        p2=p_attacker * math.exp(-(1.0 - params.alpha) * params.lam),
        p3=math.exp(-params.alpha * params.lam) * p_honest,
    )


def lead_ratio(alpha: float | np.ndarray, lam: float | np.ndarray) -> tuple:
    """(rho, d): rho = p2/p3 = expm1(a)/expm1(b), d = 1 - rho, a = alpha*lam, b = (1-alpha)*lam.

    Takes floats or broadcast arrays, unvalidated; returns numpy scalars or
    arrays.  With f(x) = (1 - exp(-x)) / x, which cannot overflow, rho =
    exp(a - b) * (a / b) * f(a) / f(b) keeps its digits when a is subnormal
    and d = ((b - a) / b) * f(b - a) / f(b).  The one below 1/2 comes from its
    form and the other is 1 minus it, so rho < 1 and d > 0 for all alpha < 1/2.
    """
    def f(x: np.ndarray) -> np.ndarray:
        return np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0.0)

    # f's temporaries are freed before the next call, which holds down the peak of a large scan
    f_b = f((1.0 - alpha) * lam)
    rho = np.exp((2.0 * alpha - 1.0) * lam) * alpha / (1.0 - alpha) * f(alpha * lam) / f_b
    d = (1.0 - 2.0 * alpha) / (1.0 - alpha) * f((1.0 - 2.0 * alpha) * lam) / f_b
    low = rho < 0.5
    return np.where(low, rho, 1.0 - d), np.where(low, 1.0 - rho, d)


def apply_fix(params: MiningParams, header_multiplier: float) -> MiningParams:
    """Mitigation: publish several leader headers per round.

    Honest miners can then keep building on an alternative header when a
    leader withholds its block, so the withheld branch never gains free
    height and loses every same-height diversity race.  Modelled as
    multiplying the round intensity and forcing the tie-break to 0.
    """
    _require(math.isfinite(header_multiplier) and header_multiplier >= 1.0,
             f"header_multiplier must be >= 1, got {header_multiplier}")
    lam = params.lam * header_multiplier
    _require(math.isfinite(lam), f"lam * header_multiplier overflows: "
                                 f"{params.lam} * {header_multiplier} = {lam}")
    return replace(params, lam=lam, gamma=0.0)
