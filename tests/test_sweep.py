import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfishlab.sweep
from selfishlab.errors import InvalidParam
from selfishlab.markov import is_profitable
from selfishlab.probmodel import MiningParams
from selfishlab.sweep import _thresholds, profit_threshold, resistance_sweep
from threshold_reference import profit_threshold as reference_threshold

GAMMAS = (0.0, 0.1, 0.25, 0.4, 0.5, 0.7, 1.0)
TOLS = (1e-8, 1e-6, 1e-3)
EXTREME_LAMS = (5e-324, 1e-300, 1e-12, 1e5, 1e300)


def _log_uniform(rng, low, high, size):
    return np.exp(rng.uniform(math.log(low), math.log(high), size))


def test_sweep_imports_no_private_name_from_markov():
    tree = ast.parse(Path(selfishlab.sweep.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "markov"
                for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("_")]


def test_even_tiebreak_profitable_everywhere():
    # the share never falls below gamma, so any gamma above the first probe
    # ALPHA_GUARD is profitable there, at every lambda
    for gamma in (1e-3, 0.01, 0.1, 0.25, 0.5):
        for lam in (0.1, 0.5, 1.0, 2.0, 4.0, 30.0):
            found = profit_threshold(lam, gamma=gamma)
            assert found.alpha_star == 0.0
            assert found.bracket == (0.0, 0.0)
    # a gamma below ALPHA_GUARD leaves a nonzero threshold above lambda_c
    assert profit_threshold(30.0, gamma=5e-5).alpha_star > 0.48


def test_threshold_reference_point():
    found = profit_threshold(2.0, gamma=0.0, tol=1e-6)
    assert abs(found.alpha_star - 0.175) <= 0.01
    assert found.bracket[1] - found.bracket[0] <= 1e-6
    assert found.bracket[0] <= found.alpha_star <= found.bracket[1]
    assert found.evaluations > 64

    # the bracket straddles the profitability crossing
    low = is_profitable(MiningParams(alpha=found.bracket[0], lam=2.0, gamma=0.0))
    high = is_profitable(MiningParams(alpha=found.bracket[1], lam=2.0, gamma=0.0))
    assert low.ratio <= found.bracket[0]
    assert high.ratio > found.bracket[1]

    # spot values around the crossing
    assert is_profitable(MiningParams(alpha=0.15, lam=2.0, gamma=0.0)).ratio < 0.15
    assert is_profitable(MiningParams(alpha=0.18, lam=2.0, gamma=0.0)).ratio > 0.18


def test_more_headers_raise_the_threshold():
    assert (profit_threshold(6.0, gamma=0.0).alpha_star
            > profit_threshold(2.0, gamma=0.0).alpha_star)


def test_threshold_determinism():
    assert profit_threshold(2.0, 0.0) == profit_threshold(2.0, 0.0)


def test_threshold_validation():
    with pytest.raises(InvalidParam):
        profit_threshold(0.0, 0.5)
    with pytest.raises(InvalidParam):
        profit_threshold(1.0, 1.5)
    with pytest.raises(InvalidParam):
        profit_threshold(1.0, 0.5, tol=1e-9)


def test_grid_validation():
    with pytest.raises(InvalidParam, match="tenures must not be empty"):
        resistance_sweep((), (6e7,), 1e6, 0.5)
    with pytest.raises(InvalidParam, match="tenures must be strictly increasing"):
        resistance_sweep((60.0, 60.0), (6e7,), 1e6, 0.5)
    with pytest.raises(InvalidParam, match="tenures must be strictly increasing"):
        resistance_sweep((120.0, 60.0), (6e7,), 1e6, 0.5)
    with pytest.raises(InvalidParam, match="difficulty must be a positive real"):
        resistance_sweep((60.0,), (-6e7,), 1e6, 0.5)
    with pytest.raises(InvalidParam, match="hashrate must be a positive real"):
        resistance_sweep((60.0,), (6e7,), 0.0, 0.5)
    with pytest.raises(InvalidParam, match="gamma must be in"):
        resistance_sweep((60.0,), (6e7,), 1e6, 1.5)


def test_single_cell_reproduces_direct_threshold():
    cells = resistance_sweep((120.0,), (6e7,), 1e6, 0.0)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.lam == pytest.approx(2.0, rel=1e-12)
    assert cell.alpha_star == profit_threshold(2.0, 0.0).alpha_star


def test_sweep_order_and_lambda_sufficiency():
    cells = resistance_sweep((60.0, 120.0), (6e7, 1.2e8), 1e6, 0.0)
    assert [(c.tenure, c.difficulty) for c in cells] == [
        (60.0, 6e7), (60.0, 1.2e8), (120.0, 6e7), (120.0, 1.2e8)]
    by_pair = {(c.tenure, c.difficulty): c for c in cells}
    # (60, 6e7) and (120, 1.2e8) share lam = 1 and must share the threshold
    assert by_pair[(60.0, 6e7)].lam == by_pair[(120.0, 1.2e8)].lam == 1.0
    assert by_pair[(60.0, 6e7)].alpha_star == by_pair[(120.0, 1.2e8)].alpha_star


def test_sweep_even_tiebreak_all_zero():
    assert all(cell.alpha_star == 0.0
               for cell in resistance_sweep((30.0, 60.0), (3e7, 6e7), 1e6, 0.5))


def test_sweep_determinism():
    grid = ((60.0, 120.0), (6e7,), 1e6, 0.0)
    assert resistance_sweep(*grid) == resistance_sweep(*grid)


def test_sweep_rejects_lambda_out_of_range():
    with pytest.raises(InvalidParam):   # lam overflows to inf
        resistance_sweep((1e300,), (1e-300,), 1e6, 0.0)
    with pytest.raises(InvalidParam):   # lam underflows to 0
        resistance_sweep((1e-300,), (1e300,), 1e-30, 0.0)


# -- the lock-step search against the scalar reference, bit for bit ------------

@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_search_matches_reference_on_log_uniform_lambdas(gamma, tol):
    lams = _log_uniform(np.random.default_rng([5, TOLS.index(tol)]), 1e-12, 1e3, 40).tolist()
    assert _thresholds(lams, gamma, tol) == [reference_threshold(lam, gamma, tol)
                                             for lam in lams]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_search_matches_reference_at_extreme_lambdas(gamma):
    for tol in TOLS:
        assert _thresholds(EXTREME_LAMS, gamma, tol) == [
            reference_threshold(lam, gamma, tol) for lam in EXTREME_LAMS]
        for lam in EXTREME_LAMS:
            assert profit_threshold(lam, gamma, tol) == reference_threshold(lam, gamma, tol)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(lams=st.lists(st.floats(min_value=-12.0, max_value=3.0).map(lambda e: 10.0 ** e),
                     min_size=1, max_size=6),
       gamma=st.floats(min_value=0.0, max_value=1.0),
       tol=st.floats(min_value=1e-8, max_value=1e-2))
def test_search_matches_reference_on_arbitrary_inputs(lams, gamma, tol):
    assert _thresholds(lams, gamma, tol) == [reference_threshold(lam, gamma, tol)
                                             for lam in lams]


@pytest.mark.parametrize("gamma", (0.0, 0.3))
def test_every_sweep_cell_matches_reference(gamma):
    # lambda from 1.67e-4 to 5000, then a seeded 8 x 8 grid
    rng = np.random.default_rng(9)
    grids = [((1.0, 60.0, 3000.0), (6e5, 6e7, 6e9)),
             (np.sort(_log_uniform(rng, 1.0, 3000.0, 8)),
              np.sort(_log_uniform(rng, 6e5, 6e9, 8)))]
    for tenures, difficulties in grids:
        for cell in resistance_sweep(tenures, difficulties, 1e6, gamma):
            assert cell.alpha_star == reference_threshold(cell.lam, gamma).alpha_star


@pytest.mark.parametrize("tol", (1e-8, 1e-6))
def test_analyze_agrees_with_the_search_at_the_bracket_ends(tol):
    # the search and is_profitable evaluate one rho and one share, so they
    # agree at the probes closest to the crossing; gamma >= 1e-4 closes
    # every bracket at alpha_star = 0, hence the tiny and zero gammas
    rng = np.random.default_rng(23)
    lams = _log_uniform(rng, 1.0, 100.0, 30).tolist()
    gammas = [0.0] * 10 + _log_uniform(rng, 1e-9, 1e-4, 20).tolist()
    crossings = 0
    for lam, gamma in zip(lams, gammas):
        low, high = profit_threshold(lam, gamma, tol).bracket
        if low == high:
            continue
        crossings += 1
        assert not is_profitable(MiningParams(alpha=low, lam=lam, gamma=gamma)).profitable
        assert is_profitable(MiningParams(alpha=high, lam=lam, gamma=gamma)).profitable
    assert crossings >= 25
