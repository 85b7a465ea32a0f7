"""Selfish-mining analysis lab for a tenure-based bilayer Nakamoto consensus.

Closed-form stationary analysis of the withheld-branch lead, revenue-share
algebra with a configurable fork tie-break, a seeded Monte Carlo round
simulator that validates and extends the closed forms, and sweeps that map
the smallest profitable attacker power across protocol parameters.
"""

__version__ = "0.1.0"

from .errors import (
    DivergentLead,
    InvalidConfig,
    InvalidParam,
    SelfishLabError,
)
from .markov import (
    RevenueReport,
    StationaryDist,
    is_profitable,
    q_at,
    revenue_rates,
    revenue_ratio,
    stationary,
    stationary_truncated_oracle,
)
from .probmodel import (
    MiningParams,
    ProtocolParams,
    RoundProbs,
    TransitionProbs,
    apply_fix,
    derive_transition_probs,
    lambda_from_protocol,
    round_success_probs,
)
from .simulator import (
    CHUNK_ROUNDS,
    ComparisonReport,
    SimConfig,
    SimResult,
    compare_to_analytic,
    simulate,
)
from .sweep import (
    SweepCell,
    SweepGrid,
    ThresholdResult,
    profit_threshold,
    resistance_sweep,
)

__all__ = [
    "__version__",
    "SelfishLabError",
    "InvalidParam",
    "InvalidConfig",
    "DivergentLead",
    "MiningParams",
    "ProtocolParams",
    "RoundProbs",
    "TransitionProbs",
    "lambda_from_protocol",
    "round_success_probs",
    "derive_transition_probs",
    "apply_fix",
    "StationaryDist",
    "RevenueReport",
    "stationary",
    "q_at",
    "revenue_rates",
    "revenue_ratio",
    "is_profitable",
    "stationary_truncated_oracle",
    "CHUNK_ROUNDS",
    "SimConfig",
    "SimResult",
    "ComparisonReport",
    "simulate",
    "compare_to_analytic",
    "ThresholdResult",
    "SweepGrid",
    "SweepCell",
    "profit_threshold",
    "resistance_sweep",
]
