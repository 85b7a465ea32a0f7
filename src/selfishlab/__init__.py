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
from .markov import is_profitable
from .probmodel import MiningParams
from .simulator import SimConfig, simulate
from .sweep import profit_threshold

__all__ = [
    "__version__",
    "SelfishLabError",
    "InvalidParam",
    "InvalidConfig",
    "DivergentLead",
    "MiningParams",
    "SimConfig",
    "simulate",
    "is_profitable",
    "profit_threshold",
]
