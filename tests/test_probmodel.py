import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfishlab.errors import InvalidParam
from selfishlab.probmodel import (
    MiningParams,
    TransitionProbs,
    apply_fix,
    derive_transition_probs,
    lambda_from_protocol,
    lead_ratio,
    round_success_probs,
)


@pytest.mark.parametrize("tenure,hashrate,difficulty,expected", [
    (60.0, 1e6, 6e7, 1.0),
    (120.0, 1e6, 6e7, 2.0),
    (60.0, 2e6, 6e7, 2.0),
])
def test_lambda_from_protocol(tenure, hashrate, difficulty, expected):
    assert lambda_from_protocol(tenure=tenure, difficulty=difficulty,
                                hashrate=hashrate) == pytest.approx(expected, rel=1e-12)


GOOD_TRIPLE = dict(tenure=60.0, difficulty=6e7, hashrate=1e6)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(GOOD_TRIPLE))
def test_lambda_from_protocol_rejects_nonpositive(name, value):
    with pytest.raises(InvalidParam, match=f"{name} must be a positive real"):
        lambda_from_protocol(**(GOOD_TRIPLE | {name: value}))


@pytest.mark.parametrize("kwargs,message", [
    (dict(tenure=1e300, difficulty=1e-300, hashrate=1e6), "lam must be finite, got inf"),
    (dict(tenure=1e-300, difficulty=1e300, hashrate=1e-30), "lam must be positive, got 0.0"),
])
def test_lambda_from_protocol_rejects_overflow_and_underflow(kwargs, message):
    with pytest.raises(InvalidParam, match=message):
        lambda_from_protocol(**kwargs)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _float_reference(tenure: float, difficulty: float, hashrate: float) -> float:
    """lambda_from_protocol written for Python floats alone: the checks in order, then lam."""
    for name, value in (("tenure", tenure), ("difficulty", difficulty), ("hashrate", hashrate)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidParam(f"{name} must be a positive real, got {value}")
    lam = tenure * hashrate / difficulty
    if not math.isfinite(lam):
        raise InvalidParam(f"lam must be finite, got {lam}")
    if not lam > 0.0:
        raise InvalidParam(f"lam must be positive, got {lam}")
    return lam


def _outcome(call, *triple):
    """A call's float result or its InvalidParam message, tagged so the two cannot meet."""
    try:
        return "value", call(*triple)
    except InvalidParam as error:
        return "error", str(error)


def _scalar_triples(n: int, seed: int) -> list[tuple[float, float, float]]:
    """Seeded triples log-uniform over [1e-300, 1e300], so products over- and underflow,
    with about one entry in six replaced by 0, a negative, nan or +-inf."""
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (n, 3)))
    odd = np.array([0.0, -0.0, -1.0, -1e300, -5e-324, math.nan, math.inf, -math.inf])
    replace = rng.random((n, 3)) < 1 / 6
    values[replace] = rng.choice(odd, replace.sum())
    return [tuple(row) for row in values.tolist()]


def test_scalar_triples_keep_the_float_formula_and_its_checks():
    triples = _scalar_triples(4000, seed=30)
    outcomes = [_outcome(_float_reference, *triple) for triple in triples]
    kinds = {outcome[1].split(" must")[0] if outcome[0] == "error" else "value"
             for outcome in outcomes}
    # every branch of the reference is taken
    assert kinds == {"value", "tenure", "difficulty", "hashrate", "lam"}
    assert any("finite" in outcome[1] for outcome in outcomes if outcome[0] == "error")
    assert any("positive, got 0.0" in outcome[1] for outcome in outcomes if outcome[0] == "error")
    for triple, expected in zip(triples, outcomes):
        got = _outcome(lambda_from_protocol, *triple)
        assert got[0] == expected[0], triple
        if expected[0] == "value":
            assert type(got[1]) is float and _bits(got[1]) == _bits(expected[1]), triple
        else:
            assert got[1] == expected[1], triple


@pytest.mark.parametrize("wrap", [np.float64, np.array])
def test_numpy_scalar_triples_give_a_python_float(wrap):
    lam = lambda_from_protocol(wrap(60.0), wrap(6e7), wrap(1e6))
    assert type(lam) is float and lam == _float_reference(60.0, 6e7, 1e6)


def test_lambda_from_protocol_array_matches_float_calls():
    rng = np.random.default_rng(29)
    tenures = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), (20, 1)))
    difficulties = np.exp(rng.uniform(math.log(1e3), math.log(1e15), 20))
    hashrates = np.exp(rng.uniform(math.log(1e-3), math.log(1e12), (20, 20)))
    lam = lambda_from_protocol(tenures, difficulties, hashrates)
    assert lam.shape == (20, 20) and lam.dtype == np.float64
    expected = [[_float_reference(t, d, h) for d, h in zip(difficulties.tolist(), row)]
                for t, row in zip(tenures[:, 0].tolist(), hashrates.tolist())]
    assert _bits(lam) == _bits(expected)


def _first_float_error(tenures, difficulties, hashrate) -> str:
    """The message of the first float reference call that raises, in row-major order."""
    for tenure in tenures:
        for difficulty in difficulties:
            try:
                _float_reference(tenure, difficulty, hashrate)
            except InvalidParam as error:
                return str(error)
    raise AssertionError("no cell of the grid is bad")


# each grid has later bad cells of another kind, so only the first one may
# name the error
@pytest.mark.parametrize("tenures,difficulties,hashrate,message", [
    # (1, 1) overflows; tenure -1 is bad too
    ([1.0, 1e300, -1.0], [1.0, 1e-300, 2.0], 1e6, "lam must be finite, got inf"),
    # (0, 1) underflows; tenure 0 is bad too
    ([1.0, 1e-300, 0.0], [1.0, 1e300, 2.0], 1e-30, "lam must be positive, got 0.0"),
    # (0, 1) has a negative difficulty; (1, 2) overflows
    ([1.0, 1e300], [1.0, -2.0, 1e-300], 1e6, "difficulty must be a positive real, got -2.0"),
    # (0, 0) has two negative inputs, whose lam is positive; (1, 0) has tenure 0
    ([-1.0, 0.0], [-2.0], 1e6, "tenure must be a positive real, got -1.0"),
])
def test_lambda_from_protocol_array_raises_first_float_error(tenures, difficulties, hashrate,
                                                            message):
    assert _first_float_error(tenures, difficulties, hashrate) == message
    with pytest.raises(InvalidParam) as raised:
        lambda_from_protocol(np.array(tenures)[:, None], np.array(difficulties), hashrate)
    assert str(raised.value) == message


def _lead_ratio_masked(alpha, lam):
    """lead_ratio with f written as a masked divide, which sets f(0) = 1 explicitly."""
    def f(x):
        return np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0.0)

    f_b = f((1.0 - alpha) * lam)
    rho = np.exp((2.0 * alpha - 1.0) * lam) * alpha / (1.0 - alpha) * f(alpha * lam) / f_b
    d = (1.0 - 2.0 * alpha) / (1.0 - alpha) * f((1.0 - 2.0 * alpha) * lam) / f_b
    low = rho < 0.5
    return np.where(low, rho, 1.0 - d), np.where(low, 1.0 - rho, d)


def _assert_same_lead_ratio(alpha, lam):
    # far above alpha = 1/2, exp((2 alpha - 1) lam) overflows to inf in both forms
    with np.errstate(over="ignore"):
        got, want = lead_ratio(alpha, lam), _lead_ratio_masked(alpha, lam)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       lam=st.floats(min_value=-12.0, max_value=3.0).map(lambda e: 10.0 ** e))
def test_lead_ratio_matches_masked_divide(alpha, lam):
    _assert_same_lead_ratio(alpha, lam)


@pytest.mark.parametrize("alpha,lam", [
    (5e-324, 1e-12),   # alpha * lam underflows to 0
    (1e-310, 1.0),     # alpha * lam is subnormal
])
def test_lead_ratio_matches_masked_divide_below_the_smallest_normal(alpha, lam):
    assert 0.0 <= alpha * lam < np.finfo(float).tiny
    _assert_same_lead_ratio(alpha, lam)


def test_lead_ratio_matches_masked_divide_on_arrays():
    rng = np.random.default_rng(31)
    alpha = np.concatenate([rng.uniform(0.0, 1.0, 20_000),
                            rng.uniform(0.0, 1.0, 1_000) * np.finfo(float).tiny])
    lam = 10.0 ** rng.uniform(-12.0, 3.0, alpha.size)
    _assert_same_lead_ratio(alpha, lam)


@pytest.mark.parametrize("kwargs", [
    dict(alpha=0.0, lam=1.0),
    dict(alpha=1.0, lam=1.0),
    dict(alpha=0.3, lam=0.0),
    dict(alpha=0.3, lam=1.0, gamma=-0.1),
    dict(alpha=0.3, lam=1.0, gamma=1.5),
    dict(alpha=math.inf, lam=1.0),
])
def test_mining_params_rejects_out_of_domain(kwargs):
    with pytest.raises(InvalidParam):
        MiningParams(**kwargs)


def test_round_success_probs_quarter_power():
    p_attacker, p_honest = round_success_probs(MiningParams(alpha=0.25, lam=1.0))
    assert p_attacker == pytest.approx(0.221199, abs=5e-7)
    assert p_honest == pytest.approx(0.527633, abs=5e-7)


def test_round_success_probs_symmetric():
    p_attacker, p_honest = round_success_probs(MiningParams(alpha=0.5, lam=2.0))
    assert p_attacker == p_honest
    assert p_attacker == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_round_success_probs_vanish_with_intensity():
    p_attacker, p_honest = round_success_probs(MiningParams(alpha=0.5, lam=1e-12))
    assert 0.0 < p_attacker < 1e-11
    assert 0.0 < p_honest < 1e-11


def test_round_success_probs_poisson_split_oracle():
    # independent oracle: draw per-round discovery counts and attribute
    # each to the attacker with probability alpha
    alpha, lam, n = 0.25, 1.0, 10**7
    rng = np.random.default_rng(123)
    totals = rng.poisson(lam, n)
    attacker = rng.binomial(totals, alpha)
    empirical_a = float(np.mean(attacker >= 1))
    empirical_b = float(np.mean(totals - attacker >= 1))
    p_attacker, p_honest = round_success_probs(MiningParams(alpha=alpha, lam=lam))
    se_a = math.sqrt(p_attacker * (1 - p_attacker) / n)
    se_b = math.sqrt(p_honest * (1 - p_honest) / n)
    assert abs(empirical_a - p_attacker) < 5 * se_a
    assert abs(empirical_b - p_honest) < 5 * se_b


def test_transition_probs_quarter_power():
    probs = derive_transition_probs(MiningParams(alpha=0.25, lam=1.0))
    assert probs.p1 == pytest.approx(0.116712, abs=5e-7)
    assert probs.p2 == pytest.approx(0.104487, abs=5e-7)
    # consistent with the stated p_honest and p1: p3 = p_honest - p1
    assert probs.p3 == pytest.approx(0.410921, abs=5e-7)


def test_transition_probs_symmetric_power_balances():
    probs = derive_transition_probs(MiningParams(alpha=0.5, lam=2.0))
    assert probs.p2 == probs.p3
    assert probs.p2 == pytest.approx(0.232544, abs=5e-7)


def test_transition_probs_vanish_with_intensity():
    probs = derive_transition_probs(MiningParams(alpha=0.5, lam=1e-12))
    for value in (probs.p1, probs.p2, probs.p3):
        assert 0.0 <= value < 1e-11


def test_transition_probs_validation():
    with pytest.raises(InvalidParam):
        TransitionProbs(p1=0.5, p2=0.4, p3=0.4)  # p1+p2+p3 > 1
    with pytest.raises(InvalidParam):
        TransitionProbs(p1=-0.1, p2=0.1, p3=0.2)


def test_events_partition_the_round():
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = MiningParams(alpha=rng.uniform(0.01, 0.99),
                              lam=float(10 ** rng.uniform(-2, 1)))
        p_attacker, p_honest = round_success_probs(params)
        probs = derive_transition_probs(params)
        idle = (1.0 - p_attacker) * (1.0 - p_honest)
        assert probs.p1 + probs.p2 + probs.p3 + idle == pytest.approx(1.0, abs=1e-12)


def test_lead_drift_sign_matches_power_split():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        alpha = rng.uniform(0.01, 0.99)
        lam = float(10 ** rng.uniform(-2, 1))
        probs = derive_transition_probs(MiningParams(alpha=alpha, lam=lam))
        assert (probs.p2 < probs.p3) == (alpha < 0.5)


def test_success_probs_monotone():
    rng = np.random.default_rng(13)
    for _ in range(300):
        alpha = rng.uniform(0.05, 0.95)
        lam_low, lam_high = sorted(10 ** rng.uniform(-2, 1, size=2))
        if lam_low == lam_high:
            continue
        low = round_success_probs(MiningParams(alpha=alpha, lam=float(lam_low)))
        high = round_success_probs(MiningParams(alpha=alpha, lam=float(lam_high)))
        assert low[0] < high[0]  # p_attacker
        assert low[1] < high[1]  # p_honest

        a_low, a_high = sorted(rng.uniform(0.01, 0.99, size=2))
        if a_low == a_high:
            continue
        lam = float(10 ** rng.uniform(-2, 1))
        first = round_success_probs(MiningParams(alpha=float(a_low), lam=lam))
        second = round_success_probs(MiningParams(alpha=float(a_high), lam=lam))
        assert first[0] < second[0]


def test_apply_fix_identity_multiplier():
    fixed = apply_fix(MiningParams(alpha=0.3, lam=1.0, gamma=0.5), 1.0)
    assert fixed == MiningParams(alpha=0.3, lam=1.0, gamma=0.0)


def test_apply_fix_scales_intensity_and_zeroes_tiebreak():
    fixed = apply_fix(MiningParams(alpha=0.3, lam=1.0, gamma=0.5), 3.0)
    assert fixed.lam == pytest.approx(3.0, rel=1e-12)
    assert fixed.gamma == 0.0
    assert fixed.alpha == 0.3


def test_apply_fix_rejects_small_multiplier():
    with pytest.raises(InvalidParam):
        apply_fix(MiningParams(alpha=0.3, lam=1.0), 0.5)
