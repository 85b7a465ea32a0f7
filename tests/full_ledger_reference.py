"""Closed-form attacker share under full accounting, for both variants.

Each block is credited, at the round it is mined, with the probability
that its fork pays its side; the payouts are linear in the fork counts, so
the expected payouts per round are sums of these credits over the
stationary lead distribution (the per-state revenue accounting of Eyal &
Sirer, "Majority is not enough", 2014).  With p1, p2 and p3 as in
``TransitionProbs``, rho = p2/p3 and theta = p3/(p2 + p3), the chance that
a lead of 1 ties before it grows:

decrement  From lead >= 2 a fork always collapses and pays a flat 2, so its
           blocks earn nothing more; a collapse restarts a one-block fork.
           A lead-1 fork pays its private blocks with probability
           theta*gamma and its public ones with theta*(1 - gamma).  The
           lead chain is the paper chain, q_k = rho**k * (1 - rho).
reset      From lead >= 2 a fork always collapses and pays the whole private
           chain, so a private block earns 1 there and w = theta*gamma + 1 -
           theta at lead 1.  q0 = (1 - rho**2)/(1 + rho - rho**2) and
           q_k = rho**(k-1) * q1 with q1 = rho*(1 - rho)/(1 + rho - rho**2).

Every term is a sum of nonnegative products, so the share cannot cancel.
"""

from selfishlab.probmodel import MiningParams, derive_transition_probs


def full_share(alpha: float, lam: float, gamma: float, variant: str) -> float:
    """Attacker share r_a / (r_a + r_b) of the full ledger's expected payouts."""
    probs = derive_transition_probs(MiningParams(alpha=alpha, lam=lam, gamma=gamma))
    p1, p2, p3 = probs.p1, probs.p2, probs.p3
    rho = p2 / p3
    theta = p3 / (p2 + p3)
    if variant == "decrement":
        q0, q1 = 1.0 - rho, rho * (1.0 - rho)
        q2 = rho * q1
        r_a = (q0 * (gamma * p1 + theta * gamma * p2) + theta * gamma * q1 * p1
               + q2 * p3 * (2.0 + theta * gamma))
    else:  # reset
        norm = 1.0 + rho - rho * rho
        q0, q1 = (1.0 - rho * rho) / norm, rho * (1.0 - rho) / norm
        w = theta * gamma + 1.0 - theta
        r_a = (q0 * (gamma * p1 + w * p2) + q1 * (p2 + w * p1)
               + q1 * rho / (1.0 - rho) * (p1 + p2))
    r_b = q0 * ((1.0 - gamma) * p1 + p3) + (1.0 - gamma) * q1 * (theta * p1 + p3)
    return r_a / (r_a + r_b)
