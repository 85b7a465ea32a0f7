"""Seeded op lists for the three benchmark workloads.

A pass of a workload is a list of CLI argv lists drawn from the workload
seed and the pass number; the same seed gives the same passes.  Every pass
has the same mix of commands, but no command repeats across passes, so a
cache in the program gains nothing from the replay.  Why each workload
exists, and which metrics it should move, is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import reference

WORKLOADS = ("mc-paper", "mc-full", "analytic")

MC_PAPER_OPS = 50
MC_PAPER_ROUNDS = 1_000_000
# a paper-accounting draw is kept only when each side expects this many
# rewards per batch, so its batch-means z is meaningful (reference.z_gate)
MC_PAPER_MIN_BATCH_REWARDS = 100
MC_FULL_OPS = 100
MC_FULL_ROUNDS = 200_000

# largest lambda of an analyze draw: beyond about 10 the closed form loses
# digits to cancellation and misses the reference by more than SHARE_RTOL
ANALYZE_MAX_LAMBDA = 8.0
ANALYZE_OPS = 300
THRESHOLD_OPS = 60
SWEEP_OPS = 4
SWEEP_SIDE = 20
SWEEP_HASHRATE = 1e6
FIX_OPS = 6


@dataclass(frozen=True)
class Op:
    """One CLI command, the exit code it must return and the work it carries.

    kind selects the output check in reference.py.  rounds and thresholds
    count simulated rounds and threshold root-finds, the units of the
    workload-specific throughput metrics.
    """

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    expect_exit: int = 0
    rounds: int = 0
    thresholds: int = 0


def _log_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    return float(math.exp(rng.uniform(math.log(low), math.log(high))))


def _mining_draw(rng: np.random.Generator) -> dict:
    return {"alpha": float(rng.uniform(0.01, 0.49)),
            "lam": _log_uniform(rng, 0.1, 10.0),
            "gamma": float(rng.uniform(0.0, 1.0))}


def _model_argv(p: dict) -> list[str]:
    return ["--alpha", repr(p["alpha"]), "--lambda", repr(p["lam"]),
            "--gamma", repr(p["gamma"])]


def _simulate_op(rng: np.random.Generator, rounds: int, accounting: str,
                 variant: str) -> Op:
    p = _mining_draw(rng)
    seed = int(rng.integers(0, 2 ** 32))
    argv = (["simulate", *_model_argv(p), "--rounds", str(rounds), "--seed", str(seed),
             "--accounting", accounting, "--variant", variant, "--format", "json"])
    kind = "simulate-paper" if accounting == "paper" else "simulate-full"
    p.update(rounds=rounds, seed=seed, accounting=accounting, variant=variant)
    return Op(kind, tuple(argv), p, rounds=rounds)


def _paper_op(rng: np.random.Generator) -> Op:
    """A paper-accounting simulation whose batches see enough rewards on both sides."""
    while True:
        op = _simulate_op(rng, MC_PAPER_ROUNDS, "paper", "decrement")
        rates = reference.revenue_rates(op.params["alpha"], op.params["lam"],
                                        op.params["gamma"])
        if min(rates) * reference.BATCH_ROUNDS >= MC_PAPER_MIN_BATCH_REWARDS:
            return op


def mc_paper(rng: np.random.Generator) -> list[Op]:
    return [_paper_op(rng) for _ in range(MC_PAPER_OPS)]


def mc_full(rng: np.random.Generator) -> list[Op]:
    return [_simulate_op(rng, MC_FULL_ROUNDS, "full", ("decrement", "reset")[i % 2])
            for i in range(MC_FULL_OPS)]


def _analyze_op(rng: np.random.Generator) -> Op:
    p = {"alpha": float(rng.uniform(0.01, 0.49)),
         "lam": _log_uniform(rng, 1e-12, ANALYZE_MAX_LAMBDA),
         "gamma": float(rng.uniform(0.0, 1.0))}
    return Op("analyze", ("analyze", *_model_argv(p), "--format", "json"), p)


def _threshold_op(rng: np.random.Generator) -> Op:
    p = {"lam": _log_uniform(rng, 1e-2, 20.0), "gamma": float(rng.uniform(0.0, 0.5))}
    argv = ("threshold", "--lambda", repr(p["lam"]), "--gamma", repr(p["gamma"]),
            "--format", "json")
    return Op("threshold", argv, p, thresholds=1)


def _sorted_log_uniform(rng: np.random.Generator, low: float, high: float) -> list[float]:
    return sorted(_log_uniform(rng, low, high) for _ in range(SWEEP_SIDE))


def _sweep_op(rng: np.random.Generator) -> Op:
    # lambda = tenure * hashrate / difficulty spans about 0.05 to 20
    tenures = _sorted_log_uniform(rng, 10.0, 200.0)
    difficulties = _sorted_log_uniform(rng, 1e7, 2e8)
    gamma = float(rng.uniform(0.0, 0.5))
    p = {"tenures": tenures, "difficulties": difficulties,
         "hashrate": SWEEP_HASHRATE, "gamma": gamma}
    argv = ("sweep", "--tenures", ",".join(map(repr, tenures)),
            "--difficulties", ",".join(map(repr, difficulties)),
            "--hashrate", repr(SWEEP_HASHRATE), "--gamma", repr(gamma), "--format", "csv")
    distinct = {t * SWEEP_HASHRATE / d for t in tenures for d in difficulties}
    return Op("sweep", argv, p, thresholds=len(distinct))


def _fix_op(rng: np.random.Generator) -> Op:
    # the fixed model has gamma 0 and lambda * multiplier <= 4, where its
    # share is still large enough for the closed form to hold SHARE_RTOL
    p = {"alpha": float(rng.uniform(0.01, 0.49)), "lam": _log_uniform(rng, 0.1, 2.0),
         "multiplier": float(rng.uniform(1.0, 2.0))}
    argv = ("fix", "--alpha", repr(p["alpha"]), "--lambda", repr(p["lam"]),
            "--multiplier", repr(p["multiplier"]), "--format", "json")
    return Op("fix", argv, p)


def _rejected_ops(rng: np.random.Generator) -> list[Op]:
    """Out-of-domain commands with the exit codes the CLI documents."""
    alpha = repr(float(rng.uniform(0.01, 0.49)))
    lam = repr(_log_uniform(rng, 0.1, 10.0))
    major = repr(float(rng.uniform(0.55, 0.9)))
    argvs = [
        (("analyze", "--alpha", major, "--lambda", lam), 3),        # attacker majority
        (("analyze", "--alpha", alpha, "--lambda", lam, "--gamma", "1.5"), 2),
        (("analyze", "--alpha", alpha), 2),                         # no lambda source
        (("analyze", "--alpha", alpha, "--lambda", lam, "--tenure", "60"), 2),
        (("threshold", "--lambda", lam, "--tol", "1e-9"), 2),
        (("fix", "--alpha", alpha, "--lambda", lam, "--multiplier", "0.5"), 2),
    ]
    return [Op("rejected", argv + ("--format", "json"), expect_exit=code)
            for argv, code in argvs]


def analytic(rng: np.random.Generator) -> list[Op]:
    ops = ([_analyze_op(rng) for _ in range(ANALYZE_OPS)]
           + [_threshold_op(rng) for _ in range(THRESHOLD_OPS)]
           + [_sweep_op(rng) for _ in range(SWEEP_OPS)]
           + [_fix_op(rng) for _ in range(FIX_OPS)]
           + _rejected_ops(rng))
    return [ops[i] for i in rng.permutation(len(ops))]


GENERATORS = {"mc-paper": mc_paper, "mc-full": mc_full, "analytic": analytic}


def generate(workload: str, seed: int, pass_index: int = 0) -> list[Op]:
    """The op list of one pass of a workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), pass_index])
    return GENERATORS[workload](rng)
