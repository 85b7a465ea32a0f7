import math
import sys

import numpy as np
import pytest

from selfishlab.errors import DivergentLead, InvalidParam
from selfishlab.markov import (
    StationaryDist,
    is_profitable,
    q_at,
    revenue_rates,
    revenue_ratio,
    stationary,
    stationary_truncated_oracle,
)
from selfishlab.probmodel import MiningParams, TransitionProbs, derive_transition_probs

GOLDEN = TransitionProbs(p1=0.1, p2=0.2, p3=0.4)


def test_stationary_golden_case():
    dist = stationary(GOLDEN)
    assert dist.q0 == pytest.approx(0.5, abs=1e-12)
    assert dist.q1 == pytest.approx(0.25, abs=1e-12)
    assert dist.rho == pytest.approx(0.5, abs=1e-12)
    assert q_at(dist, 2) == pytest.approx(0.125, abs=1e-12)
    assert q_at(dist, 3) == pytest.approx(0.0625, abs=1e-12)


def test_stationary_at_equal_opening_reads_one_minus_rho_exactly():
    # p2/p3 keeps rho's digits, so stationary gives is_profitable's
    # q0 = 1 - rho and q1 = rho*(1 - rho) bit for bit
    rng = np.random.default_rng(11)
    rhos = np.concatenate([rng.uniform(0.0, 1.0, 2000),
                           10.0 ** rng.uniform(-300.0, 0.0, 2000),
                           1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 2000)])
    for rho in rhos:
        x, y = rho * 0.5, 0.5  # x/y == rho exactly: halving is exact above the subnormals
        dist = stationary(TransitionProbs(p1=0.0, p2=x, p3=y))
        assert dist.rho == rho
        assert dist.q0 == 1.0 - rho
        assert dist.q1 == rho * (1.0 - rho)


def test_stationary_no_lead_without_openings():
    # p2 both opens and extends a lead, so p2 = 0 is the one chain without openings
    dist = stationary(TransitionProbs(p1=0.1, p2=0.0, p3=0.4))
    assert dist.q0 == 1.0
    assert dist.q1 == 0.0


def test_stationary_divergent_boundary():
    with pytest.raises(DivergentLead):
        stationary(TransitionProbs(p1=0.1, p2=0.4, p3=0.4))
    with pytest.raises(DivergentLead):
        stationary(TransitionProbs(p1=0.1, p2=0.5, p3=0.4))


def test_stationary_requires_recovery():
    with pytest.raises(InvalidParam):
        stationary(TransitionProbs(p1=0.1, p2=0.0, p3=0.0))


def test_q_at_definition_and_tail():
    dist = stationary(GOLDEN)
    assert q_at(dist, 0) == dist.q0
    assert q_at(dist, 1) == dist.q1
    assert q_at(dist, 60) <= 0.5 * 2.0 ** -59
    assert q_at(dist, 60) < 1e-15
    assert q_at(dist, np.int64(2)) == q_at(dist, 2)
    with pytest.raises(InvalidParam):
        q_at(dist, -1)
    for k in (1.5, 1.0, True, "1"):
        with pytest.raises(InvalidParam, match="state index must be an integer"):
            q_at(dist, k)


def test_revenue_rates_golden_case():
    dist = stationary(GOLDEN)
    r_a, r_b = revenue_rates(dist, GOLDEN, gamma=0.5)
    assert r_a == pytest.approx(0.2, abs=1e-12)
    assert r_b == pytest.approx(0.05, abs=1e-12)
    r_a0, r_b0 = revenue_rates(dist, GOLDEN, gamma=0.0)
    assert r_a0 == pytest.approx(0.15, abs=1e-12)
    assert r_b0 == pytest.approx(0.1, abs=1e-12)


def test_revenue_rates_zero_without_lead_mass():
    probs = TransitionProbs(p1=0.1, p2=0.0, p3=0.4)
    dist = stationary(probs)
    assert revenue_rates(dist, probs, gamma=0.7) == (0.0, 0.0)


def test_revenue_ratio_golden_case():
    dist = stationary(GOLDEN)
    assert revenue_ratio(dist.rho, 0.5) == pytest.approx(0.8, abs=1e-12)
    assert revenue_ratio(dist.rho, 0.0) == pytest.approx(0.6, abs=1e-12)


def test_revenue_ratio_convention_at_degenerate_dist():
    # the share depends on rho alone, and gamma is its only continuous value
    # at rho = 0: an attacker that mines however rarely wins gamma of its races
    dist = StationaryDist(rho=0.0, q0=1.0)
    assert revenue_ratio(dist.rho, 0.5) == 0.5
    assert revenue_ratio(dist.rho, 0.0) == 0.0


def test_revenue_ratio_matches_rates(make_probs):
    rng = np.random.default_rng(5)
    for _ in range(2000):
        probs = make_probs(rng, rho_max=0.99)
        dist = stationary(probs)
        gamma = rng.uniform(0.0, 1.0)
        r_a, r_b = revenue_rates(dist, probs, gamma)
        ratio = revenue_ratio(dist.rho, gamma)
        assert abs(ratio * (r_a + r_b) - r_a) <= 1e-12


def test_printed_rates_agree_with_the_share_where_their_sum_is_normal():
    # alpha on (0, 1/2), half of it at 1/2 - 10^-u; lambda log-uniform on
    # [1e-12, 1e3].  Past lambda ~ 700 the rates go subnormal and their
    # quotient loses digits, so only a normal sum is held to the share.
    rng = np.random.default_rng(31)
    n = 20000
    alphas = np.where(np.arange(n) % 2 == 0, 0.5 * (1.0 - rng.random(n)),
                      0.5 - 10.0 ** -rng.uniform(1.0, 16.0, n))
    lams = np.exp(rng.uniform(math.log(1e-12), math.log(1e3), n))
    gammas = rng.random(n)
    normal = 0
    for alpha, lam, gamma in zip(alphas.tolist(), lams.tolist(), gammas.tolist()):
        if alpha >= 0.5:
            continue
        report = is_profitable(MiningParams(alpha, lam, gamma))
        total = report.r_a + report.r_b
        if total >= sys.float_info.min:
            normal += 1
            assert abs(report.r_a / total - report.ratio) <= 1e-15 * report.ratio
    assert normal > 0.9 * n
    # a subnormal pair: r_a = 1.1e-322, r_b = 1e-323, quotient 1.2% off the share
    report = is_profitable(MiningParams(0.10630117314224885, 829.373459912315, 0.90881489639468))
    assert 0.0 < report.r_a + report.r_b < sys.float_info.min
    assert abs(report.r_a / (report.r_a + report.r_b) - report.ratio) > 0.01 * report.ratio


def test_revenue_sum_identity(make_probs):
    rng = np.random.default_rng(6)
    for _ in range(2000):
        probs = make_probs(rng, rho_max=0.99)
        dist = stationary(probs)
        gamma = rng.uniform(0.0, 1.0)
        r_a, r_b = revenue_rates(dist, probs, gamma)
        q2 = dist.q1 * dist.rho
        assert abs((r_a + r_b) - (1.0 - dist.q0 + q2) * probs.p3) <= 1e-12


def test_revenue_ratio_lower_bound_even_tiebreak(make_probs):
    rng = np.random.default_rng(8)
    for _ in range(2000):
        dist = stationary(make_probs(rng, rho_max=0.99))
        assert revenue_ratio(dist.rho, 0.5) >= 0.5


def test_revenue_ratio_monotone_in_tiebreak(make_probs):
    rng = np.random.default_rng(9)
    for _ in range(500):
        dist = stationary(make_probs(rng, rho_max=0.99))
        shares = [revenue_ratio(dist.rho, gamma) for gamma in (0.0, 0.5, 1.0)]
        assert shares == sorted(shares)


def test_balance_and_normalization(make_probs):
    rng = np.random.default_rng(10)
    for _ in range(2000):
        probs = make_probs(rng, rho_max=0.99)
        dist = stationary(probs)
        assert abs(probs.p2 * dist.q0 - probs.p3 * dist.q1) <= 1e-12
        for k in range(1, 20):
            assert abs(probs.p2 * q_at(dist, k) - probs.p3 * q_at(dist, k + 1)) <= 1e-12
        assert abs(dist.q0 + dist.q1 / (1.0 - dist.rho) - 1.0) <= 1e-12


def test_is_profitable_reference_point():
    report = is_profitable(MiningParams(alpha=0.3, lam=1.0, gamma=0.5))
    assert report.ratio == pytest.approx(0.7329, abs=5e-5)
    assert report.ratio == pytest.approx(0.7329191907938145, rel=1e-12)
    assert report.profitable is True
    assert abs(report.ratio * (report.r_a + report.r_b) - report.r_a) <= 1e-12


def test_is_profitable_small_attacker_zero_tiebreak():
    report = is_profitable(MiningParams(alpha=0.15, lam=2.0, gamma=0.0))
    assert report.ratio == pytest.approx(0.1402, abs=5e-5)
    assert report.profitable is False


def test_is_profitable_rejects_majority():
    with pytest.raises(DivergentLead):
        is_profitable(MiningParams(alpha=0.5, lam=1.0, gamma=0.5))


def test_oracle_matches_golden_case():
    dist = stationary(GOLDEN)
    vector = stationary_truncated_oracle(GOLDEN)
    linf = max(abs(vector[k] - q_at(dist, k)) for k in range(len(vector)))
    assert linf <= 1e-12


def test_oracle_degenerate_chain():
    probs = TransitionProbs(p1=0.1, p2=0.0, p3=0.4)
    vector = stationary_truncated_oracle(probs)
    assert vector[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(vector[1:] <= 1e-12)


def test_oracle_heavy_tail():
    probs = TransitionProbs(p1=0.0, p2=0.36, p3=0.4)  # rho = 0.9
    dist = stationary(probs)
    vector = stationary_truncated_oracle(probs)
    linf = max(abs(vector[k] - q_at(dist, k)) for k in range(len(vector)))
    assert linf <= 1e-10


def _oracle_error(alpha, lam):
    # the law from p2/p3 and the one analyze prints from lead_ratio, against one oracle solve
    params = MiningParams(alpha=alpha, lam=lam)
    probs = derive_transition_probs(params)
    dist = stationary(probs)
    vector = stationary_truncated_oracle(probs)
    assert abs(vector.sum() - 1.0) <= 1e-12
    assert vector.min() >= -1e-15
    return max(abs(vector[k] - q_at(law, k))
               for law in (dist, is_profitable(params).dist) for k in range(len(vector)))


@pytest.mark.parametrize("alpha, lam", [
    (0.3, 1e-12),  # every rate near 1e-12, where an absolute residual test stops at once
    (0.3618384036491435, 750.1545622025869),  # rho ~ 1e-90
])
def test_oracle_at_domain_edges(alpha, lam):
    assert _oracle_error(alpha, lam) <= 1e-12


def test_oracle_over_domain():
    # alpha ~ U(0, 1/2) and lambda log-uniform on [1e-12, 1e3], kept where rho <= 0.9
    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 300:
        alpha, lam = rng.uniform(0.0, 0.5), 10.0 ** rng.uniform(-12.0, 3.0)
        probs = derive_transition_probs(MiningParams(alpha=alpha, lam=lam))
        if probs.p3 == 0.0 or probs.p2 > 0.9 * probs.p3:
            continue
        checked += 1
        assert _oracle_error(alpha, lam) <= 1e-12, (alpha, lam)


def test_oracle_validation_errors():
    with pytest.raises(InvalidParam):
        stationary_truncated_oracle(TransitionProbs(p1=0.1, p2=0.0, p3=0.0))
    with pytest.raises(DivergentLead):
        stationary_truncated_oracle(TransitionProbs(p1=0.1, p2=0.4, p3=0.4))


@pytest.mark.parametrize("rho, entries", [
    (0.0, 9), (1e-7, 9), (1e-3, 9), (0.5, 45), (0.9, 286), (0.95, 401),
])
def test_oracle_truncation_rule(rho, entries):
    # the smallest K >= 8 with rho**K <= 1e-13, capped at K = 400
    vector = stationary_truncated_oracle(TransitionProbs(p1=0.1, p2=0.4 * rho, p3=0.4))
    K = len(vector) - 1
    assert len(vector) == entries
    assert abs(vector.sum() - 1.0) <= 1e-12
    if K < 400:
        assert rho ** K <= 1e-13


@pytest.mark.parametrize("rho, q0", [
    (1.0, 0.0), (-0.1, 1.1), (float("nan"), 0.5),
    (0.3, 0.6),                # does not sum to 1
    (1.0 - 2.0 ** -53, 0.0),   # sums to 1 within 2**-52, but leaves state 0 no mass
    (0.0, 1.0 + 2.0 ** -52),   # sums to 1 within 2**-52, but q0 exceeds 1
    (0.5, float("nan")),
])
def test_stationary_dist_validation(rho, q0):
    with pytest.raises(InvalidParam, match="rho must be in"):
        StationaryDist(rho=rho, q0=q0)


def test_revenue_gamma_validation():
    dist = stationary(GOLDEN)
    with pytest.raises(InvalidParam):
        revenue_rates(dist, GOLDEN, gamma=1.5)
    with pytest.raises(InvalidParam):
        revenue_ratio(dist.rho, gamma=-0.2)


@pytest.mark.parametrize("rho", [1.0, -0.1, float("nan")])
def test_revenue_ratio_refuses_rho_outside_unit_interval(rho):
    with pytest.raises(InvalidParam, match="rho must be in"):
        revenue_ratio(rho, 0.5)
    with pytest.raises(InvalidParam, match="rho must be in"):
        revenue_ratio(np.array([0.0, 0.5, rho]), 0.5)


def test_revenue_ratio_takes_arrays():
    rho = np.array([[0.0, 0.25], [0.5, 0.99]])
    shares = revenue_ratio(rho, 0.3)
    assert shares.shape == rho.shape
    assert shares.tolist() == [[revenue_ratio(float(r), 0.3) for r in row] for row in rho]
