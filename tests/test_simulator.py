import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chunk_reference import _chunk_loop
from full_ledger_reference import full_share
import selfishlab.simulator
from selfishlab.errors import DivergentLead, InvalidConfig
from selfishlab.markov import is_profitable, q_at, revenue_ratio, stationary
from selfishlab.probmodel import MiningParams, derive_transition_probs, round_success_probs
from selfishlab.simulator import (
    CHUNK_ROUNDS,
    SimConfig,
    _chunk,
    _chunk_rng,
    _lead_before,
    _outcomes,
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
    with pytest.raises(InvalidConfig, match="rounds must be an integer"):
        SimConfig(params=REFERENCE, rounds=1e6, seed=42)
    with pytest.raises(InvalidConfig, match="seed must be an integer"):
        SimConfig(params=REFERENCE, rounds=10, seed=1.5)
    # bool subclasses int, but True rounds or a False seed is a mistake
    with pytest.raises(InvalidConfig, match="rounds must be an integer, got True"):
        SimConfig(params=REFERENCE, rounds=True, seed=1)
    with pytest.raises(InvalidConfig, match="seed must be an integer, got False"):
        SimConfig(params=REFERENCE, rounds=10, seed=False)
    assert SimConfig(params=REFERENCE, rounds=np.int64(10), seed=np.uint64(1)).rounds == 10


@pytest.mark.parametrize("workers", [0, -2, 2.5, "2", True, None])
def test_simulate_rejects_bad_worker_counts(workers):
    config = SimConfig(params=REFERENCE, rounds=10, seed=1)
    with pytest.raises(InvalidConfig, match="workers must be a positive integer"):
        simulate(config, workers=workers)


def test_simulate_takes_numpy_worker_counts():
    config = SimConfig(params=REFERENCE, rounds=10, seed=1)
    assert simulate(config, workers=np.int64(2)) == simulate(config)


def test_simulate_rejects_majority_attacker():
    config = SimConfig(params=MiningParams(alpha=0.5, lam=1.0), rounds=10, seed=1)
    with pytest.raises(DivergentLead, match="attacker majority"):
        simulate(config)


def test_simulator_imports_nothing_from_the_closed_form():
    # importing the module cannot show this: the package __init__ loads markov
    tree = ast.parse(Path(selfishlab.simulator.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "markov" in name.split(".")]


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


def _assert_matches_loop(a, b, uniforms, gamma, accounting, variant):
    """The loop-free path matches the loop and reads the same race uniforms."""
    fast_stream, slow_stream = iter(uniforms), iter(uniforms)
    fast = _chunk(a, b, lambda n: np.fromiter(fast_stream, np.float64, n),
                  gamma, accounting, variant)
    slow = _chunk_loop(a, b, slow_stream, gamma, accounting, variant)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]
    assert np.array_equal(fast[2], slow[2])
    assert list(fast_stream) == list(slow_stream)
    return fast


@pytest.mark.parametrize("accounting,variant", PAIRS)
@pytest.mark.parametrize("alpha,lam,gamma", [
    (0.45, 0.5, 1.0),
    (0.1, 5.0, 0.0),
    (0.3, 1.0, 0.5),
    (0.05, 0.2, 0.25),
])
def test_chunk_path_matches_loop(alpha, lam, gamma, accounting, variant):
    rp = round_success_probs(MiningParams(alpha=alpha, lam=lam, gamma=gamma))
    rng = _chunk_rng(77, 0)
    a, b = _outcomes(rng.random(CHUNK_ROUNDS), *rp)
    _assert_matches_loop(a, b, rng.random(CHUNK_ROUNDS), gamma, accounting, variant)


@pytest.mark.parametrize("accounting,variant", PAIRS)
@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
def test_chunk_path_matches_loop_on_every_short_chunk(rounds, accounting, variant):
    # every sequence of (attacker finds, honest finds, tie-break below 1/2); a
    # chunk has at most one race per round, so the i-th race reads the i-th flag
    for outcomes in itertools.product(itertools.product((False, True), repeat=3),
                                      repeat=rounds):
        a, b, low = (np.array(column) for column in zip(*outcomes))
        _assert_matches_loop(a, b, np.where(low, 0.25, 0.75), 0.5, accounting, variant)


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
    uniforms = data.draw(arrays(np.float64, len(codes),
                                elements=st.floats(0.0, 1.0, exclude_max=True)))
    for accounting, variant in PAIRS:
        _assert_matches_loop(codes >= 2, codes % 2 == 1, uniforms, gamma,
                             accounting, variant)


@pytest.mark.parametrize("accounting,variant", PAIRS)
@pytest.mark.parametrize("lam", [1e-9, 60.0])
def test_chunk_path_matches_loop_without_steps(lam, accounting, variant):
    """Every round idle (tiny lambda) or both-find (large lambda): the lead never moves."""
    rp = round_success_probs(MiningParams(alpha=0.3, lam=lam, gamma=0.5))
    rng = _chunk_rng(77, 0)
    a, b = _outcomes(rng.random(CHUNK_ROUNDS), *rp)
    assert not np.any(a ^ b)
    assert np.count_nonzero(a & b) == (CHUNK_ROUNDS if lam > 1.0 else 0)
    fast = _assert_matches_loop(a, b, rng.random(CHUNK_ROUNDS), 0.5, accounting, variant)
    assert fast[2].tolist() == [CHUNK_ROUNDS]


@pytest.mark.parametrize("accounting,variant", PAIRS)
def test_chunk_ending_on_a_step_to_a_new_top_lead(accounting, variant):
    """No round starts at the lead the last step reaches, so it gets no occupancy bin."""
    rp = round_success_probs(MiningParams(alpha=0.45, lam=0.5, gamma=0.5))
    rng = _chunk_rng(77, 1)
    a, b = _outcomes(rng.random(CHUNK_ROUNDS - 200), *rp)
    a = np.append(a, np.ones(200, dtype=bool))  # 200 attacker-only rounds to close
    b = np.append(b, np.zeros(200, dtype=bool))
    fast = _assert_matches_loop(a, b, rng.random(CHUNK_ROUNDS), 0.5, accounting, variant)
    end_lead = _lead_before(a[a ^ b], variant)[-1]
    assert len(fast[2]) == end_lead  # the top bin is the lead before the last round
    assert fast[2][-1] == 1


def _lead_loop(up, variant):
    """The lead before each step, then at the end, one step at a time from lead 0."""
    leads = [0]
    for attacker in up:
        lead = leads[-1]
        if attacker:
            leads.append(lead + 1)
        elif lead == 2 and variant == "reset":
            leads.append(0)  # the collapse publishes the whole private chain
        else:
            leads.append(max(lead - 1, 0))
    return leads


@settings(max_examples=300, derandomize=True, deadline=None)
@given(steps=st.integers(0, 300), share=st.sampled_from([0.1, 0.3, 0.5, 0.6, 0.7]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lead_walk_matches_a_step_loop(steps, share, seed):
    """Every lead of the walk, the end lead included, under both variants."""
    up = np.random.default_rng(seed).random(steps) < share
    for variant in ("decrement", "reset"):
        assert _lead_before(up, variant).tolist() == _lead_loop(up, variant)
    # under reset the lead reaches 1 from 0 alone, never from 2, so a collapse
    # is a down step of 2 and the walk stays one reflected sum
    lead = np.array(_lead_loop(up, "reset"))
    assert np.all(lead[:-1][lead[1:] == 1] == 0)


@pytest.mark.parametrize("share", [0.45, 0.5, 0.55])
def test_reset_walk_matches_a_step_loop_on_a_whole_chunk(share):
    """Whole-chunk walks near a fair coin: at share 0.55 an excursion spans thousands of levels."""
    up = np.random.default_rng(7).random(CHUNK_ROUNDS) < share
    assert _lead_before(up, "reset").tolist() == _lead_loop(up, "reset")


@pytest.mark.parametrize("steps,decrement,reset", [
    ("", [0], [0]),
    ("uuu", [0, 1, 2, 3], [0, 1, 2, 3]),
    ("ddd", [0, 0, 0, 0], [0, 0, 0, 0]),
    ("uudu", [0, 1, 2, 1, 2], [0, 1, 2, 0, 1]),  # ends inside an excursion at lead 1
    ("uuduu", [0, 1, 2, 1, 2, 3], [0, 1, 2, 0, 1, 2]),  # and at lead 2
    ("uuudd", [0, 1, 2, 3, 2, 1], [0, 1, 2, 3, 2, 0]),  # a collapse on the last step
    ("uuuuddddu", [0, 1, 2, 3, 4, 3, 2, 1, 0, 1], [0, 1, 2, 3, 4, 3, 2, 0, 0, 1]),
    ("uudud", [0, 1, 2, 1, 2, 1], [0, 1, 2, 0, 1, 0]),  # a tie right after a collapse
    # a climb at lead 0 while the decrement lead is 1
    ("duuduud", [0, 0, 1, 2, 1, 2, 3, 2], [0, 0, 1, 2, 0, 1, 2, 0]),
    # a lone up step inside an excursion, which is not a climb
    ("uuuudduddd", [0, 1, 2, 3, 4, 3, 2, 3, 2, 1, 0], [0, 1, 2, 3, 4, 3, 2, 3, 2, 0, 0]),
])
def test_lead_walk_on_hand_picked_steps(steps, decrement, reset):
    up = np.array([step == "u" for step in steps], dtype=bool)
    for variant, leads in (("decrement", decrement), ("reset", reset)):
        assert _lead_loop(up, variant) == leads
        assert _lead_before(up, variant).tolist() == leads


# distinct race uniforms that alternate below and above gamma = 0.5, so any
# reordering of two races that pay different amounts changes a revenue
RACE_UNIFORMS = [(k + 0.5) / 12 for k in (0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6)]


def _full_chunk(codes, variant):
    codes = np.array(codes, dtype=np.int8)
    return _assert_matches_loop(codes >= 2, codes % 2 == 1, RACE_UNIFORMS, 0.5,
                                "full", variant)


@pytest.mark.parametrize("variant,revenue", [("decrement", (8.0, 5.0)), ("reset", (9.0, 6.0))])
def test_full_fork_pays_from_the_last_collapse(variant, revenue):
    """Under decrement three collapses pay 2 each, and the tie pays the fork since the last."""
    # race, open, up, both, collapse, up, up, down, collapse, both, up, collapse,
    # both, both, tie (a fork of 3 blocks a side), honest, race, idle, race
    codes = [3, 2, 2, 3, 1, 2, 2, 1, 1, 3, 2, 1, 3, 3, 1, 1, 3, 0, 3]
    assert _full_chunk(codes, variant)[:2] == revenue


@pytest.mark.parametrize("variant", ["decrement", "reset"])
def test_full_chunk_ending_inside_an_excursion_pays_nothing_for_it(variant):
    # race, open, tie, race, then an excursion with three both-find rounds left open
    codes = [3, 2, 1, 3, 2, 3, 2, 2, 3, 1, 3]
    up = np.array(codes)[np.isin(codes, (1, 2))] == 2
    assert _lead_before(up, variant)[-1] == 2
    assert _full_chunk(codes, variant)[:2] == (2.0, 1.0)


@pytest.mark.parametrize("variant,revenue", [("decrement", (8.0, 8.0)), ("reset", (9.0, 8.0))])
def test_full_lead_zero_races_interleave_with_ties(variant, revenue):
    """Lead-0 races before the first open, between excursions and after the last close."""
    # race, race, idle, open, both, tie (2 a side), race, idle, race, open, both,
    # both, tie (3 a side), honest, race, open, up, both, collapse, down, race, race
    codes = [3, 3, 0, 2, 3, 1, 3, 0, 3, 2, 3, 3, 1, 1, 3, 2, 2, 3, 1, 1, 3, 3]
    assert _full_chunk(codes, variant)[:2] == revenue


@pytest.mark.parametrize("accounting,variant", PAIRS)
def test_walk_spans_a_whole_chunk(accounting, variant):
    """A chunk of attacker-only rounds, then of honest-only ones: the walk spans
    CHUNK_ROUNDS levels, which the reset search's uint16 levels must hold."""
    for top in (CHUNK_ROUNDS, CHUNK_ROUNDS // 2):
        a = np.arange(CHUNK_ROUNDS) < top
        fast = _assert_matches_loop(a, ~a, np.zeros(2), 0.5, accounting, variant)
        assert len(fast[2]) == min(top + 1, CHUNK_ROUNDS)  # leads 0 to top


@pytest.mark.parametrize("accounting,variant", PAIRS)
def test_simulate_one_round_past_a_chunk_matches_loop(accounting, variant):
    """A full chunk and a one-round chunk, each replayed through the loop, then merged."""
    config = SimConfig(params=REFERENCE, rounds=CHUNK_ROUNDS + 1, seed=5,
                       accounting=accounting, variant=variant)
    rp = round_success_probs(REFERENCE)
    revenue_a = revenue_b = 0.0
    counts = np.zeros(1, dtype=np.int64)
    for index, rounds in enumerate((CHUNK_ROUNDS, 1)):
        rng = _chunk_rng(5, index)
        a, b = _outcomes(rng.random(rounds), *rp)
        ra, rb, occupancy = _chunk_loop(a, b, _counted(rng, []), REFERENCE.gamma,
                                        accounting, variant)
        revenue_a, revenue_b = revenue_a + ra, revenue_b + rb
        counts = np.pad(counts, (0, max(0, len(occupancy) - len(counts))))
        counts[:len(occupancy)] += occupancy
    result = simulate(config)
    assert (result.revenue_a, result.revenue_b) == (revenue_a, revenue_b)
    assert result.occupancy == tuple((counts / config.rounds).tolist())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(codes=ROUND_CODES)
def test_the_step_before_a_tie_began_its_fork(codes):
    """A tie, an honest-only step at lead 1, follows an open (attacker-only at
    lead 0) or, under decrement only, a collapse (honest-only at lead 2), so it
    is never a chunk's first step.  The full ledger starts a tie's fork at the
    step before it under both variants, which holds only for a chunk that opens
    at lead 0."""
    up = codes[(codes == 1) | (codes == 2)] == 2
    for variant in ("decrement", "reset"):
        lead = _lead_before(up, variant)[:len(up)]
        before = np.flatnonzero(~up & (lead == 1)) - 1
        assert np.all(before >= 0)
        opened = up[before] & (lead[before] == 0)
        collapsed = ~up[before] & (lead[before] == 2)
        assert np.all(opened | collapsed if variant == "decrement" else opened)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(codes=ROUND_CODES)
def test_chunk_occupancy_counts_every_round_once(codes):
    for accounting, variant in PAIRS:
        occupancy = _chunk(codes >= 2, codes % 2 == 1, np.zeros, 0.5, accounting, variant)[2]
        assert occupancy.dtype == np.int64
        assert occupancy.sum() == len(codes)
        assert occupancy[-1] > 0


def _counted(rng, drawn):
    """Uniforms from rng one at a time, each recorded in drawn."""
    while True:
        drawn.append(rng.random())
        yield drawn[-1]


@pytest.mark.parametrize("accounting,variant", PAIRS)
@pytest.mark.parametrize("rounds", [1, 999, CHUNK_ROUNDS])
def test_chunk_draws_one_uniform_per_round_and_one_per_race(rounds, accounting, variant):
    rp = round_success_probs(REFERENCE)
    rng = _chunk_rng(5, 2)
    a, b = _outcomes(rng.random(rounds), *rp)
    fast = _chunk(a, b, rng.random, REFERENCE.gamma, accounting, variant)

    replay, races = _chunk_rng(5, 2), []
    a, b = _outcomes(replay.random(rounds), *rp)
    slow = _chunk_loop(a, b, _counted(replay, races), REFERENCE.gamma, accounting, variant)
    assert fast[:2] == slow[:2]
    assert np.array_equal(fast[2], slow[2])
    assert len(races) > 0 or rounds == 1

    expected = _chunk_rng(5, 2)
    expected.random(rounds + len(races))
    assert rng.bit_generator.state == expected.bit_generator.state


# a 2**20-point grid is exact in binary, so k / GRID has no rounding
GRID = 2 ** 20
EDGE_U = np.append(np.arange(GRID) / GRID, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("p_attacker,p_honest", [
    (0.3, 0.6), (0.5, 0.5), (0.01, 0.99), (1e-5, 0.7), (0.2592, 0.5034),
    (-math.expm1(-0.3), -math.expm1(-0.7)),  # REFERENCE's round probabilities
])
def test_outcomes_are_independent_bernoullis_on_a_grid(p_attacker, p_honest):
    u = np.arange(GRID) / GRID
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        a, b = _outcomes(u, p_attacker, p_honest)
    # each of these columns is one interval of u, so its count is within 1 of N p
    for column, p in ((a, p_attacker), (a & b, p_attacker * p_honest),
                      (b & ~a, p_honest - p_attacker * p_honest)):
        assert abs(np.count_nonzero(column) / GRID - p) <= 1 / GRID
    # b is the union of two of them
    assert abs(np.count_nonzero(b) / GRID - p_honest) <= 2 / GRID


@pytest.mark.parametrize("p_attacker,p_honest", [
    (0.0, 0.0), (0.0, 0.4), (0.0, 1.0), (1.0, 0.0), (1.0, 0.4), (1.0, 1.0),
    (0.3, 0.0), (0.3, 1.0), (0.7, 1.0), (1e-300, 1.0), (1e-300, 0.0),
])
def test_outcomes_at_impossible_and_certain_finds(p_attacker, p_honest):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        a, b = _outcomes(EDGE_U, p_attacker, p_honest)
    for column, p in ((a, p_attacker), (b, p_honest)):
        if p == 0.0:
            assert not column.any()
        elif p == 1.0:
            assert column.all()


def test_outcomes_at_extreme_intensities():
    saturated = round_success_probs(MiningParams(alpha=0.3, lam=1e3))
    assert saturated[1] == 1.0
    faint = round_success_probs(MiningParams(alpha=0.1, lam=1e-12))
    assert faint == pytest.approx((1e-13, 9e-13), rel=1e-9)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        a, b = _outcomes(EDGE_U, *saturated)
        assert a.all() and b.all()
        a, b = _outcomes(EDGE_U, *faint)
    # only u = 0 lies below p_a p_b; every other grid point is above p_a and p_b
    assert np.flatnonzero(a).tolist() == [0]
    assert np.flatnonzero(b).tolist() == [0]


def test_ratio_and_occupancy_match_closed_form():
    config = SimConfig(params=REFERENCE, rounds=1_000_000, seed=42)
    result = simulate(config)
    dist = stationary(derive_transition_probs(REFERENCE))
    analytic = revenue_ratio(dist.rho, REFERENCE.gamma)
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


def test_stderr_barely_moves_with_a_short_last_batch():
    # a one-round last chunk has no revenue; it weighs by its revenue, not as a share of 0
    full, one_more = (simulate(SimConfig(params=REFERENCE, rounds=rounds, seed=7))
                      for rounds in (20 * CHUNK_ROUNDS, 20 * CHUNK_ROUNDS + 1))
    assert one_more.ratio == full.ratio
    assert one_more.ratio_stderr == pytest.approx(full.ratio_stderr, rel=0.05)


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


def test_full_accounting_small_attacker_can_profit():
    # lead-0 both-find races pay the attacker gamma of them with no private branch,
    # so at a larger lambda and gamma > 0 a small attacker beats its power share
    params = MiningParams(alpha=0.01, lam=5.0, gamma=0.25)
    result = simulate(SimConfig(params=params, rounds=300_000, seed=7,
                                accounting="full"))
    assert result.ratio - 3.0 * result.ratio_stderr > 0.01


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


def _share_z(alpha, lam, gamma, rounds, seed, accounting="paper", variant="decrement"):
    """z of the simulated share against its closed form: paper, or full_share."""
    params = MiningParams(alpha=alpha, lam=lam, gamma=gamma)
    result = simulate(SimConfig(params=params, rounds=rounds, seed=seed,
                                accounting=accounting, variant=variant))
    exact = (is_profitable(params).ratio if accounting == "paper"
             else full_share(alpha, lam, gamma, variant))
    return (result.ratio - exact) / result.ratio_stderr


@pytest.mark.parametrize("variant", ["decrement", "reset"])
@pytest.mark.parametrize("alpha,lam,gamma", [
    (0.1, 0.5, 0.0), (0.3, 1.0, 0.25), (0.2, 2.0, 0.5), (0.4, 0.3, 0.9),
    # most rounds both-find: fork sizes and lead-0 races carry the revenue
    (0.2, 6.0, 0.5), (0.35, 5.0, 0.25),
])
def test_full_accounting_matches_closed_form(alpha, lam, gamma, variant):
    assert abs(_share_z(alpha, lam, gamma, 1_000_000, 11, "full", variant)) <= 4.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: each chunk starts at lead 0 and drops the fork "
                          "pending at its end, which biases the share down")
@pytest.mark.parametrize("alpha,gamma,seed,accounting,variant", [
    (0.49, 0.0, 7, "paper", "decrement"),
    (0.48, 0.5, 1, "full", "reset"),
])
def test_share_is_unbiased_across_chunk_boundaries(monkeypatch, alpha, gamma, seed,
                                                   accounting, variant):
    # short chunks cut many long forks, so the boundary bias shows at 2e6 rounds
    monkeypatch.setattr(selfishlab.simulator, "CHUNK_ROUNDS", 5_000)
    assert abs(_share_z(alpha, 1.0, gamma, 2_000_000, seed, accounting, variant)) <= 4.0


def test_revenue_rates_per_round_match_closed_form():
    from selfishlab.markov import revenue_rates

    config = SimConfig(params=REFERENCE, rounds=1_000_000, seed=42)
    result = simulate(config)
    probs = derive_transition_probs(REFERENCE)
    dist = stationary(probs)
    r_a, r_b = revenue_rates(dist, probs, REFERENCE.gamma)
    assert result.revenue_a / config.rounds == pytest.approx(r_a, abs=0.005)
    assert result.revenue_b / config.rounds == pytest.approx(r_b, abs=0.005)
