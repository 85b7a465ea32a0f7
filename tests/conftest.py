import numpy as np
import pytest

from selfishlab.probmodel import TransitionProbs


def _random_transition_probs(rng: np.random.Generator, rho_max: float) -> TransitionProbs:
    rho = rng.uniform(0.0, rho_max)
    # p2 + p3 = p3 * (1 + rho) must leave room for p1
    p3 = rng.uniform(0.05, min(0.95, 1.0 / (1.0 + rho)))
    p2 = rho * p3
    p1 = rng.uniform(0.0, 1.0 - p2 - p3)
    return TransitionProbs(p1=p1, p2=p2, p3=p3)


@pytest.fixture
def make_probs():
    """Draw ``make_probs(rng, rho_max)``: transition probabilities with rho = p2/p3
    uniform on [0, rho_max).

    These cases check ``stationary`` and the revenue algebra for any
    recurrent chain, not only those ``derive_transition_probs`` gives.
    """
    return _random_transition_probs
