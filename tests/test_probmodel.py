import math

import numpy as np
import pytest

from selfishlab.errors import InvalidParam
from selfishlab.probmodel import (
    MiningParams,
    TransitionProbs,
    apply_fix,
    derive_transition_probs,
    lambda_from_protocol,
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
    assert probs.p0 == pytest.approx(0.104487, abs=5e-7)
    assert probs.p1 == pytest.approx(0.116712, abs=5e-7)
    assert probs.p2 == probs.p0
    # consistent with the stated p_honest and p1: p3 = p_honest - p1
    assert probs.p3 == pytest.approx(0.410921, abs=5e-7)


def test_transition_probs_symmetric_power_balances():
    probs = derive_transition_probs(MiningParams(alpha=0.5, lam=2.0))
    assert probs.p2 == probs.p3
    assert probs.p2 == pytest.approx(0.232544, abs=5e-7)


def test_transition_probs_vanish_with_intensity():
    probs = derive_transition_probs(MiningParams(alpha=0.5, lam=1e-12))
    for value in (probs.p0, probs.p1, probs.p2, probs.p3):
        assert 0.0 <= value < 1e-11


def test_transition_probs_validation():
    with pytest.raises(InvalidParam):
        TransitionProbs(p0=0.2, p1=0.5, p2=0.4, p3=0.4)  # p1+p2+p3 > 1
    with pytest.raises(InvalidParam):
        TransitionProbs(p0=1.2, p1=0.1, p2=0.1, p3=0.2)
    with pytest.raises(InvalidParam):
        TransitionProbs(p0=0.2, p1=-0.1, p2=0.1, p3=0.2)


def test_events_partition_the_round():
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = MiningParams(alpha=rng.uniform(0.01, 0.99),
                              lam=float(10 ** rng.uniform(-2, 1)))
        p_attacker, p_honest = round_success_probs(params)
        probs = derive_transition_probs(params)
        idle = (1.0 - p_attacker) * (1.0 - p_honest)
        assert probs.p1 + probs.p2 + probs.p3 + idle == pytest.approx(1.0, abs=1e-12)
        assert probs.p0 == probs.p2


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
