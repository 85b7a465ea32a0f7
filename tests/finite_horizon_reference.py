"""Expected paper-ledger share of one chunk that opens at lead 0.

The simulator starts every chunk at lead 0 and drops the fork pending at
its end, so over chunks of n rounds its share tends to the expected share
of one n-round chunk, not to the stationary share of
:mod:`selfishlab.markov`.  ``chunk_share`` gives that finite-horizon
expectation by forward recursion of the lead law: pi_t, the lead
distribution before round t, starts at lead 0, and each round moves p2 of
lead i up to i + 1 and p3 of it down to max(i - 1, 0).  An honest-only
round (p3) credits the attacker gamma*p3 and the honest side
(1 - gamma)*p3 at lead 1, the attacker 2*p3 at lead 2 and p3 at lead 3 and
above, so the expected revenues are sums of these credits over pi_t.  The
leads run over 0..K, K the smallest integer with rho**K <= 1e-13 (at
least 3); lead K has no upward move, and the stationary mass above it is
below 1e-13.
"""

import math

import numpy as np

from selfishlab.probmodel import MiningParams, derive_transition_probs


def chunk_share(alpha: float, lam: float, gamma: float, rounds: int) -> float:
    """Attacker share of the expected paper-ledger revenue over one chunk from lead 0."""
    probs = derive_transition_probs(MiningParams(alpha=alpha, lam=lam, gamma=gamma))
    p2, p3 = probs.p2, probs.p3
    K = max(3, math.ceil(math.log(1e-13) / math.log(p2 / p3)))
    pi = np.zeros(K + 1)
    pi[0] = 1.0
    attacker = honest = 0.0
    for _ in range(rounds):
        # each credit's factor p3 is common to both sides and cancels in the share
        attacker += gamma * pi[1] + 2.0 * pi[2] + pi[3:].sum()
        honest += (1.0 - gamma) * pi[1]
        moved = pi * (1.0 - p2 - p3)
        moved[1:] += p2 * pi[:-1]
        moved[-1] += p2 * pi[-1]
        moved[:-1] += p3 * pi[1:]
        moved[0] += p3 * pi[0]
        pi = moved
    return float(attacker / (attacker + honest))
