"""Tests of the benchmark itself: op generation, the reference checker, tracing.

Run with ``python3 -m pytest benchmarks`` from the repository root.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import mpmath
import pytest

import reference
import run
import tracer
import workloads
from selfishlab import cli


def _run(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(op.argv))
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_and_seeded(workload):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    second_pass = workloads.generate(workload, 7, 1)
    assert [op.argv for op in first] == [op.argv for op in again]
    assert [op.argv for op in first] != [op.argv for op in other]
    assert not {op.argv for op in first} & {op.argv for op in second_pass}
    assert sorted(op.kind for op in first) == sorted(op.kind for op in second_pass)


def test_analytic_mix_and_domains():
    ops = workloads.generate("analytic", 3)
    kinds = [op.kind for op in ops]
    assert kinds.count("analyze") == workloads.ANALYZE_OPS
    assert kinds.count("sweep") == workloads.SWEEP_OPS
    for op in ops:
        if op.kind == "analyze":
            assert 0.01 <= op.params["alpha"] <= 0.49
            assert 1e-12 <= op.params["lam"] <= workloads.ANALYZE_MAX_LAMBDA
        if op.kind == "sweep":
            assert op.thresholds == workloads.SWEEP_SIDE ** 2


def test_paper_draws_expect_enough_rewards_per_batch():
    for op in workloads.generate("mc-paper", 4):
        rates = reference.revenue_rates(op.params["alpha"], op.params["lam"],
                                        op.params["gamma"])
        assert min(rates) * reference.BATCH_ROUNDS >= workloads.MC_PAPER_MIN_BATCH_REWARDS


@pytest.mark.parametrize("alpha,lam,gamma", [
    (0.3, 1.0, 0.5), (0.1, 0.2, 0.0), (0.45, 3.0, 1.0), (0.2, 10.0, 0.25), (0.01, 0.5, 0.7)])
def test_rho_form_matches_balance_equations(alpha, lam, gamma):
    with mpmath.workdps(reference.DIGITS):
        rho_form = reference.share(alpha, lam, gamma)
        balance = reference.balance_share(alpha, lam, gamma)
        assert abs(rho_form - balance) <= mpmath.mpf(10) ** -45 * balance


def test_reference_matches_known_share():
    # the seed's golden closed-form case, alpha=0.3, lambda=1, gamma=0.5
    assert float(reference.share(0.3, 1.0, 0.5)) == pytest.approx(0.7329191907938145,
                                                                  rel=1e-12)


def _analyze_op(alpha=0.3, lam=1.0, gamma=0.5):
    p = {"alpha": alpha, "lam": lam, "gamma": gamma}
    return workloads.Op("analyze", ("analyze", "--alpha", repr(alpha), "--lambda", repr(lam),
                                    "--gamma", repr(gamma), "--format", "json"), p)


def test_checker_accepts_correct_output():
    op = _analyze_op()
    code, text = _run(op)
    assert reference.check(op, code, text) is None


def test_checker_flags_corrupted_share():
    op = _analyze_op()
    code, text = _run(op)
    envelope = json.loads(text)
    envelope["results"]["ratio"] *= 1.0 + 1e-6
    assert "relative error" in reference.check(op, code, json.dumps(envelope))


def test_checker_flags_wrong_exit_code():
    op = _analyze_op()
    _, text = _run(op)
    assert "exit code 2" in reference.check(op, 2, text)
    rejected = workloads.Op("rejected", ("analyze", "--alpha", "0.7", "--lambda", "1"),
                            expect_exit=3)
    assert reference.check(rejected, *_run(rejected)) is None
    assert "exit code 3, expected 0" in reference.check(op, *_run(rejected))


def test_checker_flags_unparsable_output():
    assert reference.check(_analyze_op(), 0, "not json").startswith("unparsable")


def test_checker_flags_simulation_far_from_reference():
    op = workloads.generate("mc-paper", 1)[0]
    code, text = _run(op)
    assert reference.check(op, code, text) is None
    envelope = json.loads(text)
    envelope["results"]["ratio"] += 20 * envelope["results"]["ratio_stderr"]
    assert "z=" in reference.check(op, code, json.dumps(envelope))


def test_z_gate_spreads_a_four_sigma_tail_over_a_run():
    assert reference.z_gate(20) == pytest.approx(8.53, abs=0.01)
    # near the normal quantile of a two-sided 4-sigma tail over RUN_SIMULATIONS ops, 5.41
    assert 5.41 < reference.z_gate(2000) < 5.44


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if module is not None and (name == "selfishlab" or name.startswith("selfishlab."))
            for attr, value in vars(module).items() if callable(value)}


def test_wrappers_are_gone_after_traced_pass():
    before = _bindings()
    ops = [op for op in workloads.generate("analytic", 2) if op.kind == "threshold"][:3]
    spans = tracer.Tracer()
    with spans:
        assert _bindings() != before
        outcomes, wall = run.run_pass(cli, ops, spans)
    assert _bindings() == before
    seconds, calls = spans.self_times()
    assert calls["cli"] == len(ops)
    assert calls["sweep"] == len(ops)
    assert calls["probmodel"] > 0 and calls["markov.closed_form"] > 0
    roots = sum(elapsed for _, _, elapsed in outcomes)
    assert sum(seconds.values()) == pytest.approx(roots, rel=0.05)
    assert sum(seconds.values()) <= wall


def test_wrappers_are_gone_after_a_failing_traced_call():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            raise ZeroDivisionError
    assert _bindings() == before


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
