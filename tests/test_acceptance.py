"""Acceptance suite: one test per release criterion, each printing a verdict line."""

import json
import math
import time

import numpy as np
import pytest

from selfishlab import MiningParams, SimConfig, is_profitable, profit_threshold, simulate
from selfishlab.cli import _simulation_gap, run
from selfishlab.markov import (q_at, revenue_rates, revenue_ratio, stationary,
                               stationary_truncated_oracle)
from selfishlab.probmodel import TransitionProbs, apply_fix


def _report(name, detail):
    print(f"[PASS] {name}: {detail}")


def test_criterion_1_closed_form_golden_case():
    probs = TransitionProbs(p1=0.1, p2=0.2, p3=0.4)
    dist = stationary(probs)
    assert abs(dist.q0 - 0.5) <= 1e-12
    assert abs(dist.q1 - 0.25) <= 1e-12
    assert abs(dist.rho - 0.5) <= 1e-12
    ratio = revenue_ratio(dist.rho, 0.5)
    assert abs(ratio - 0.8) <= 1e-12
    _report("criterion 1", f"q0={dist.q0} q1={dist.q1} rho={dist.rho} ratio={ratio}")


def test_criterion_2_oracle_equivalence(make_probs):
    rng = np.random.default_rng(20260808)
    worst = 0.0
    started = time.perf_counter()
    for _ in range(100):
        probs = make_probs(rng, rho_max=0.9)
        dist = stationary(probs)
        vector = stationary_truncated_oracle(probs)
        linf = max(abs(vector[k] - q_at(dist, k)) for k in range(len(vector)))
        worst = max(worst, linf)
        assert linf <= 1e-10
    _report("criterion 2",
            f"100 cases at the oracle's own truncation, worst Linf={worst:.3e} "
            f"({time.perf_counter() - started:.1f}s)")


def test_criterion_3_balance_and_normalization(make_probs):
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10_000):
        probs = make_probs(rng, rho_max=0.99)
        dist = stationary(probs)
        errors = [abs(probs.p2 * dist.q0 - probs.p3 * dist.q1),
                  abs(dist.q0 + dist.q1 / (1.0 - dist.rho) - 1.0)]
        errors += [abs(probs.p2 * q_at(dist, k) - probs.p3 * q_at(dist, k + 1))
                   for k in range(1, 51)]
        worst = max(worst, max(errors))
        assert max(errors) <= 1e-12
    _report("criterion 3", f"10^4 cases, worst identity error {worst:.3e}")


def test_criterion_4_ratio_lower_bound(make_probs):
    rng = np.random.default_rng(41)
    violations = 0
    lowest = 1.0
    for _ in range(10_000):
        dist = stationary(make_probs(rng, rho_max=0.99))
        ratio = revenue_ratio(dist.rho, 0.5)
        lowest = min(lowest, ratio)
        violations += ratio < 0.5
    assert violations == 0
    _report("criterion 4", f"10^4 cases, min ratio {lowest:.6f} >= 0.5")


def test_criterion_5_monte_carlo_vs_analytic():
    started = time.perf_counter()
    worst_z = 0.0
    worst_occ = 0.0
    for alpha in (0.1, 0.2, 0.3):
        for lam in (0.5, 1.0, 2.0):
            for gamma in (0.0, 0.5):
                z, occupancy_gap = _simulation_gap(MiningParams(alpha, lam, gamma),
                                                   1_000_000, 42)
                assert abs(z) <= 4.0, (alpha, lam, gamma, z)
                assert occupancy_gap <= 0.005, (alpha, lam, gamma, occupancy_gap)
                worst_z = max(worst_z, abs(z))
                worst_occ = max(worst_occ, occupancy_gap)
    elapsed = time.perf_counter() - started
    _report("criterion 5",
            f"18 configs x 10^6 rounds: worst |z|={worst_z:.2f}, "
            f"worst occupancy Linf={worst_occ:.4f}, {elapsed:.1f}s (target <10s)")


def test_criterion_6_threshold_reproduction():
    found = profit_threshold(2.0, gamma=0.0, tol=1e-4)
    assert abs(found.alpha_star - 0.175) <= 0.01
    assert is_profitable(MiningParams(alpha=0.15, lam=2.0, gamma=0.0)).ratio < 0.15
    assert is_profitable(MiningParams(alpha=0.18, lam=2.0, gamma=0.0)).ratio > 0.18
    for lam in (0.5, 1.0, 2.0, 4.0):
        assert profit_threshold(lam, gamma=0.5).alpha_star == 0.0
    _report("criterion 6",
            f"alpha*(lam=2, gamma=0)={found.alpha_star:.4f} in 0.175+-0.01; "
            "even tie-break threshold identically 0")


def test_criterion_7_mitigation_direction():
    base = MiningParams(alpha=0.3, lam=1.0, gamma=0.5)
    fixed = apply_fix(base, 3.0)
    ratio_before = is_profitable(base).ratio
    ratio_after = is_profitable(fixed).ratio
    assert ratio_after < ratio_before
    star_low = profit_threshold(2.0, gamma=0.0).alpha_star
    star_high = profit_threshold(6.0, gamma=0.0).alpha_star
    assert star_high > star_low
    _report("criterion 7",
            f"ratio {ratio_before:.4f} -> {ratio_after:.4f} under x3 headers; "
            f"alpha* {star_low:.4f} -> {star_high:.4f} as lam 2 -> 6")


def test_criterion_8_reproducibility():
    config = SimConfig(params=MiningParams(0.25, 1.5, 0.5), rounds=260_000, seed=99)
    first = simulate(config)
    assert simulate(config) == first
    assert simulate(config, workers=4) == first
    assert simulate(config, workers=7) == first
    _report("criterion 8", "bit-identical across repeat, 4-worker, and 7-worker runs")


def test_criterion_9_cli_contract(capsys):
    code = run(["analyze", "--alpha", "0.3", "--lambda", "1", "--format", "json"])
    assert code == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["results"]["ratio"] == pytest.approx(0.7329191907938145, abs=1e-9)

    assert run(["analyze", "--alpha", "0.6", "--lambda", "1"]) == 3
    err = capsys.readouterr().err
    assert "attacker majority" in err

    assert run(["simulate", "--alpha", "0.3", "--lambda", "1",
                "--rounds", "0", "--seed", "1"]) == 2
    capsys.readouterr()

    assert run(["verify", "--cases", "120", "--seed", "7"]) == 0
    capsys.readouterr()
    with capsys.disabled():
        _report("criterion 9", "exit codes 0/3/2 as specified; verify returns 0")
