import pytest

from selfishlab.cli import _random_transition_probs


@pytest.fixture
def make_probs():
    """Valid transition probabilities with a stationary lead (p2 < p3)."""
    return _random_transition_probs
