import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chunk_reference import _chunk_loop
from selfishlab.errors import InvalidConfig
from selfishlab.markov import q_at, revenue_ratio, stationary
from selfishlab.probmodel import MiningParams, derive_transition_probs, round_success_probs
from selfishlab.simulator import (
    CHUNK_ROUNDS,
    SimConfig,
    _account,
    _lead_before,
    compare_to_analytic,
    simulate,
)

REFERENCE = MiningParams(alpha=0.3, lam=1.0, gamma=0.5)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SimConfig(params=REFERENCE, rounds=0, seed=1)
    with pytest.raises(InvalidConfig):
        SimConfig(params=REFERENCE, rounds=10, seed=-1)
    with pytest.raises(InvalidConfig):
        SimConfig(params=REFERENCE, rounds=10, seed=2 ** 64)
    with pytest.raises(InvalidConfig):
        SimConfig(params=REFERENCE, rounds=10, seed=1, accounting="other")
    with pytest.raises(InvalidConfig):
        SimConfig(params=REFERENCE, rounds=10, seed=1, variant="other")
    with pytest.raises(InvalidConfig):
        SimConfig(params=REFERENCE, rounds=10, seed=1,
                  accounting="paper", variant="reset")


def test_simulate_rejects_majority_attacker():
    config = SimConfig(params=MiningParams(alpha=0.5, lam=1.0), rounds=10, seed=1)
    with pytest.raises(InvalidConfig):
        simulate(config)


def test_reproducibility_bit_identical():
    config = SimConfig(params=REFERENCE, rounds=120_000, seed=9)
    assert simulate(config) == simulate(config)


def test_chunk_scheduling_independence():
    config = SimConfig(params=REFERENCE, rounds=260_000, seed=9)
    sequential = simulate(config)
    assert simulate(config, workers=3) == sequential
    assert simulate(config, workers=8) == sequential


@pytest.mark.parametrize("variant", ["decrement", "reset"])
def test_full_accounting_scheduling_independence(variant):
    config = SimConfig(params=REFERENCE, rounds=160_000, seed=9,
                       accounting="full", variant=variant)
    assert simulate(config, workers=3) == simulate(config)


PAIRS = [("paper", "decrement"), ("full", "decrement"), ("full", "reset")]


def _assert_matches_loop(a, b, tie, gamma, accounting, variant):
    fast = _account(a, b, tie, _lead_before(a, b, variant), gamma, accounting, variant)
    slow = _chunk_loop(a, b, tie, gamma, accounting, variant)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]
    assert np.array_equal(fast[2], slow[2])


@pytest.mark.parametrize("accounting,variant", PAIRS)
@pytest.mark.parametrize("alpha,lam,gamma", [
    (0.45, 0.5, 1.0),
    (0.1, 5.0, 0.0),
    (0.3, 1.0, 0.5),
    (0.05, 0.2, 0.25),
])
def test_chunk_path_matches_loop(alpha, lam, gamma, accounting, variant):
    rp = round_success_probs(MiningParams(alpha=alpha, lam=lam, gamma=gamma))
    rng = np.random.default_rng(77)
    a = rng.random(CHUNK_ROUNDS) < rp.p_attacker
    b = rng.random(CHUNK_ROUNDS) < rp.p_honest
    tie = rng.random(CHUNK_ROUNDS)
    _assert_matches_loop(a, b, tie, gamma, accounting, variant)


@pytest.mark.parametrize("accounting,variant", PAIRS)
@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_chunk_path_matches_loop_on_every_short_chunk(rounds, accounting, variant):
    # every sequence of (attacker finds, honest finds, tie-break below 1/2)
    for outcomes in itertools.product(itertools.product((False, True), repeat=3),
                                      repeat=rounds):
        a, b, low = (np.array(column) for column in zip(*outcomes))
        tie = np.where(low, 0.25, 0.75)
        _assert_matches_loop(a, b, tie, 0.5, accounting, variant)


# round codes: 0 nobody finds, 1 honest only, 2 attacker only, 3 both
RUNS = [[2], [3], [1], [0], [2, 1], [2, 3], [2, 2, 1], [2, 1, 1], [3, 1]]
ROUND_CODES = st.lists(
    st.one_of(st.integers(0, 3).map(lambda code: [code]),
              st.tuples(st.sampled_from(RUNS), st.integers(1, 300))
              .map(lambda run: run[0] * run[1])),
    min_size=1, max_size=40,
).map(lambda runs: np.array([code for run in runs for code in run][:2_000], dtype=np.int8))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(codes=ROUND_CODES, gamma=st.floats(0.0, 1.0), data=st.data())
def test_chunk_path_matches_loop_on_arbitrary_rounds(codes, gamma, data):
    """Long runs of one outcome drive long leads and back-to-back resets."""
    tie = data.draw(arrays(np.float64, len(codes),
                           elements=st.floats(0.0, 1.0, exclude_max=True)))
    for accounting, variant in PAIRS:
        _assert_matches_loop(codes >= 2, codes % 2 == 1, tie, gamma, accounting, variant)


def test_ratio_and_occupancy_match_closed_form():
    config = SimConfig(params=REFERENCE, rounds=1_000_000, seed=42)
    result = simulate(config)
    dist = stationary(derive_transition_probs(REFERENCE))
    analytic = revenue_ratio(dist, REFERENCE.gamma)
    assert abs(result.ratio - analytic) <= 0.005
    linf = max(abs(result.occupancy[k] - q_at(dist, k))
               for k in range(len(result.occupancy)))
    assert linf <= 0.005


def test_occupancy_is_a_distribution():
    config = SimConfig(params=REFERENCE, rounds=80_000, seed=3)
    result = simulate(config)
    assert sum(result.occupancy) == pytest.approx(1.0, abs=1e-9)
    assert all(f >= 0.0 for f in result.occupancy)
    assert result.occupancy[-1] > 0.0


def test_stderr_needs_two_batches():
    small = simulate(SimConfig(params=REFERENCE, rounds=CHUNK_ROUNDS, seed=3))
    assert small.ratio_stderr == 0.0
    larger = simulate(SimConfig(params=REFERENCE, rounds=4 * CHUNK_ROUNDS, seed=3))
    assert larger.ratio_stderr > 0.0


def test_compare_to_analytic_within_noise():
    for params in (REFERENCE, MiningParams(alpha=0.1, lam=2.0, gamma=0.0)):
        config = SimConfig(params=params, rounds=1_000_000, seed=42)
        report = compare_to_analytic(config)
        assert abs(report.z_score) <= 4.0
        assert report.occupancy_linf <= 0.005


def test_compare_to_analytic_degenerate_zero():
    # p_attacker = 1e-303: the pool mines, so the closed form takes its
    # rho -> 0 limit gamma, but ten thousand rounds never sample the event
    config = SimConfig(params=MiningParams(alpha=1e-300, lam=1e-3, gamma=0.5),
                       rounds=10_000, seed=5)
    report = compare_to_analytic(config)
    assert report.ratio_mc == 0.0
    assert report.ratio_analytic == 0.5
    assert report.z_score == -math.inf

    # rho = e^-980 rounds to 0 and the honest side finds in every round, so
    # no lead ever opens: both shares are exactly zero and agree
    config = SimConfig(params=MiningParams(alpha=0.01, lam=1000.0, gamma=0.0),
                       rounds=10_000, seed=5)
    report = compare_to_analytic(config)
    assert report.ratio_mc == 0.0
    assert report.ratio_analytic == 0.0
    assert report.z_score == 0.0


def test_compare_to_analytic_zero_stderr_mismatch_is_infinite():
    config = SimConfig(params=REFERENCE, rounds=5_000, seed=5)
    report = compare_to_analytic(config)
    assert math.isinf(report.z_score)


def test_compare_to_analytic_requires_paper_accounting():
    config = SimConfig(params=REFERENCE, rounds=1_000, seed=1, accounting="full")
    with pytest.raises(InvalidConfig):
        compare_to_analytic(config)


def test_full_accounting_never_exceeds_stylized_share():
    for alpha in (0.1, 0.2, 0.3):
        for lam in (0.5, 1.0, 2.0):
            params = MiningParams(alpha=alpha, lam=lam, gamma=0.5)
            paper = simulate(SimConfig(params=params, rounds=300_000, seed=7))
            full = simulate(SimConfig(params=params, rounds=300_000, seed=7,
                                      accounting="full"))
            slack = 3.0 * (paper.ratio_stderr + full.ratio_stderr)
            assert full.ratio <= paper.ratio + slack


def test_full_accounting_small_attacker_unprofitable():
    params = MiningParams(alpha=0.05, lam=2.0, gamma=0.0)
    result = simulate(SimConfig(params=params, rounds=300_000, seed=7,
                                accounting="full"))
    assert result.ratio + 3.0 * result.ratio_stderr < 0.05


def test_reset_variant_full_accounting():
    params = MiningParams(alpha=0.3, lam=1.0, gamma=0.5)
    config = SimConfig(params=params, rounds=200_000, seed=7,
                       accounting="full", variant="reset")
    result = simulate(config)
    assert 0.0 < result.ratio < 1.0
    assert sum(result.occupancy) == pytest.approx(1.0, abs=1e-9)
    assert simulate(config) == result
    decrement = simulate(SimConfig(params=params, rounds=200_000, seed=7,
                                   accounting="full"))
    assert decrement != result


def test_revenue_rates_per_round_match_closed_form():
    from selfishlab.markov import revenue_rates

    config = SimConfig(params=REFERENCE, rounds=1_000_000, seed=42)
    result = simulate(config)
    probs = derive_transition_probs(REFERENCE)
    dist = stationary(probs)
    r_a, r_b = revenue_rates(dist, probs, REFERENCE.gamma)
    assert result.revenue_a / result.rounds_run == pytest.approx(r_a, abs=0.005)
    assert result.revenue_b / result.rounds_run == pytest.approx(r_b, abs=0.005)
