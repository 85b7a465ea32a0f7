"""Benchmark of the selfishlab command line.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload analytic --seed 1 --seconds 20 --trace 0

One client drives ``selfishlab.cli.run(argv)`` in this process as a closed
loop: the next command starts only after the previous one returns.  Its
output goes to an in-memory buffer, so parsing, the handler and rendering
are all timed.  Whole passes of the workload (workloads.py), each drawn
afresh from the seed and its pass number, run until about ``--seconds``
have elapsed; every output is then checked against the independent
reference in reference.py, outside the timed region.

``--trace 0`` reports the end-to-end metrics, the bounded op costs in units
of a calibration kernel timed alongside the ops (see ``kernel_seconds``).  ``--trace 1`` alternates an
untraced and a traced pass of the same ops and reports per-layer counts and
self times from the spans recorded by tracer.py; the spans of the last
traced pass are written to benchmarks/out/.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

The process pins its BLAS to one thread through the environment, before
numpy loads, so the one client stays on one core; the run record printed
first says so, with the Python, numpy and BLAS versions, the core count and
the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
KERNEL_LOOPS = 20_000
CALIBRATE_EVERY_S = 0.03
SETUP_TIMEOUT_S = 60
SETUP_ARGV = ["analyze", "--alpha", "0.3", "--lambda", "1", "--format", "json"]
SPEEDUP_REPEATS = 3
MIN_P90_SAMPLES = 100

# name -> unit.  BENCHMARK.json bounds the END_TO_END rows: every workload has
# them, and the op costs are in kernel units because this host's speed swings
# by a third within seconds.  The other rows are printed only.
END_TO_END = {"setup_s": "s", "op_mean_kernels": "kernel", "op_p50_kernels": "kernel",
              "peak_rss_mb": "MB"}
WORKLOAD_METRICS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "mc_rounds_per_s": "rounds/s", "thresholds_per_s": "1/s",
                    "failed_frac": "ratio"}
PER_LAYER = {
    "cli.calls": "count", "cli.self_s": "s",
    "probmodel.calls": "count", "probmodel.self_s": "s",
    "markov.closed_form.calls": "count", "markov.closed_form.self_s": "s",
    "sweep.thresholds": "count", "sweep.evaluations": "count", "sweep.cells": "count",
    "sweep.cells_per_threshold": "ratio", "sweep.self_s": "s",
    "simulator.calls": "count", "simulator.rounds": "count", "simulator.chunks": "count",
    "simulator.self_s": "s", "simulator.ms_per_mround": "ms",
    "simulator.max_lead": "count", "simulator.workers_speedup": "ratio",
    "trace.overhead_frac": "ratio", "trace.accounted_frac": "ratio",
}


def _import_cli():
    """selfishlab.cli from this checkout's src/, never from an installed copy."""
    package = SRC / "selfishlab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a selfishlab checkout")
    sys.path.insert(0, str(SRC))
    from selfishlab import cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported selfishlab from {cli.__file__}, not from {package}")
    return cli


def _blas_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "env": {var: os.environ[var] for var in BLAS_THREAD_VARS}}
    # numpy wheels bundle scipy-openblas; ask the loaded library directly
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            record["threads"] = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return record


def run_record(args: argparse.Namespace) -> dict:
    import numpy as np
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas_record(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def measure_setup() -> float:
    """Wall seconds of a fresh interpreter that imports the CLI and runs one analyze."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import sys; from selfishlab import cli; sys.exit(cli.run({SETUP_ARGV!r}))"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or json.loads(done.stdout)["command"] != "analyze":
        sys.exit(f"error: set-up interpreter exited {done.returncode}: {done.stderr}")
    return elapsed


def run_op(cli, op) -> tuple[int, str, float]:
    """Exit code, stdout text and wall seconds of one CLI command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.run(list(op.argv))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def run_pass(cli, ops, spans=None) -> tuple[list[tuple[int, str, float]], float]:
    """One pass over the op list: per-op outcomes and the pass wall time."""
    outcomes = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if spans is not None:
            spans.current_op = index
        outcomes.append(run_op(cli, op))
    return outcomes, time.perf_counter() - start


class Checker:
    """Counts attempted ops and keeps the reason each failed one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, ops, outcomes) -> None:
        import reference
        for op, (code, text, _) in zip(ops, outcomes, strict=True):
            self.attempted += 1
            reason = reference.check(op, code, text)
            if reason is not None:
                self.failures.append(f"{op.argv[0]}: {reason}")


WORK_UNITS = {"mc_rounds_per_s": "rounds", "thresholds_per_s": "thresholds"}


def kernel_seconds() -> float:
    """Best of two timings of a fixed pure-Python loop: the host's current speed.

    The program's code is not involved, so a change to the program cannot
    move it; dividing an op's latency by it removes the host's speed swings.
    """
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(KERNEL_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def timed_run(cli, workload: str, seed: int, seconds: float,
              checker: Checker) -> tuple[dict, dict]:
    """End-to-end metrics: (name -> value, name -> sample description).

    After every CALIBRATE_EVERY_S of op time the calibration kernel runs, and
    the ops since the last one are also recorded in kernel units.  Set-up
    interpreters run between passes, so they sample the host at the same
    times as the passes do.  Each pass is checked as soon as it ends, so
    memory does not grow with the number of passes.
    """
    import workloads
    setup, latencies, in_kernels, busy, pass_kernels = [], [], [], [], []
    work = {unit: [0, 0.0] for unit in WORK_UNITS.values()}  # unit -> [amount, seconds]
    while not busy or sum(busy) + busy[-1] / 2 < seconds:
        if len(setup) < SETUP_REPEATS:
            setup.append(measure_setup())
        ops = workloads.generate(workload, seed, len(busy))
        if not busy:
            run_op(cli, ops[0])  # warm-up, untimed: first-call imports and allocations
        outcomes, pending = [], []
        for op in ops:
            outcomes.append(run_op(cli, op))
            pending.append(outcomes[-1][2])
            if sum(pending) >= CALIBRATE_EVERY_S or len(outcomes) == len(ops):
                kernel = kernel_seconds()
                in_kernels += [elapsed / kernel for elapsed in pending]
                pending = []
        pass_latencies = [elapsed for _, _, elapsed in outcomes]
        latencies += pass_latencies
        busy.append(sum(pass_latencies))
        pass_kernels.append(statistics.fmean(in_kernels[-len(ops):]))
        for op, elapsed in zip(ops, pass_latencies):
            for unit, tally in work.items():
                if getattr(op, unit):
                    tally[0] += getattr(op, unit)
                    tally[1] += elapsed
        checker.add(ops, outcomes)
    setup += [measure_setup() for _ in range(SETUP_REPEATS - len(setup))]
    values = {
        "setup_s": statistics.median(setup),
        # medians over passes, so a burst of contention on the host sways one pass only
        "ops_per_s": statistics.median(len(ops) / seconds_ for seconds_ in busy),
        "op_mean_kernels": statistics.median(pass_kernels),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p50_kernels": statistics.median(in_kernels),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": len(checker.failures) / checker.attempted,
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3
                      if len(latencies) >= MIN_P90_SAMPLES else None),
    }
    for name, unit in WORK_UNITS.items():
        amount, seconds_ = work[unit]
        values[name] = amount / seconds_ if seconds_ else None
    samples = {name: f"{len(latencies)} ops" for name in values}
    samples.update(setup_s=f"{len(setup)} interpreters", peak_rss_mb="1 process",
                   failed_frac=f"{checker.attempted} ops",
                   ops_per_s=f"median of {len(busy)} passes, {len(latencies)} ops",
                   op_mean_kernels=f"median of {len(busy)} passes, {len(latencies)} ops")
    if values["op_p90_ms"] is None:
        samples["op_p90_ms"] = (f"left out: {len(latencies)} ops < {MIN_P90_SAMPLES}; "
                                f"op_p50_ms is the median of {len(latencies)}")
    return values, samples


def workers_speedup(ops, checker: Checker) -> float | None:
    """Wall time of simulate(workers=1) over workers=nproc, on the first op's config."""
    params = ops[0].params
    if "accounting" not in params:
        return None
    from selfishlab import MiningParams, SimConfig, simulate
    config = SimConfig(params=MiningParams(params["alpha"], params["lam"], params["gamma"]),
                       rounds=params["rounds"], seed=params["seed"],
                       accounting=params["accounting"], variant=params["variant"])
    workers = len(os.sched_getaffinity(0))
    times = {1: [], workers: []}
    results = {}
    for _ in range(SPEEDUP_REPEATS):
        for count in (1, workers):
            start = time.perf_counter()
            results[count] = simulate(config, workers=count)
            times[count].append(time.perf_counter() - start)
    checker.attempted += 1
    if results[1] != results[workers]:
        checker.failures.append(f"simulate with {workers} workers differs from 1 worker")
    return statistics.median(times[1]) / statistics.median(times[workers])


def traced_run(cli, workload: str, seed: int, seconds: float,
               checker: Checker) -> tuple[dict, list]:
    """Per-layer metrics from alternating untraced and traced passes of pass 0's ops."""
    import tracer
    import workloads
    ops = workloads.generate(workload, seed)
    run_op(cli, ops[0])  # warm-up, untimed
    plain, traced, layer_s = [], [], []
    while not plain or sum(plain) + sum(traced) + (plain[-1] + traced[-1]) / 2 < seconds:
        outcomes, wall = run_pass(cli, ops)
        checker.add(ops, outcomes)
        plain.append(wall)
        spans = tracer.Tracer()
        with spans:
            outcomes, wall = run_pass(cli, ops, spans)
        checker.add(ops, outcomes)
        traced.append(wall)
        self_s, calls = spans.self_times()
        layer_s.append(self_s)
    OUT.mkdir(exist_ok=True)
    spans.save(OUT / f"spans-{workload}.npz")

    median_s = {layer: statistics.median(s[layer] for s in layer_s) for layer in layer_s[0]}
    speedup = workers_speedup(ops, checker)
    values = {
        "cli.calls": calls["cli"], "cli.self_s": median_s["cli"],
        "probmodel.calls": calls["probmodel"], "probmodel.self_s": median_s["probmodel"],
        "markov.closed_form.calls": calls["markov.closed_form"],
        "markov.closed_form.self_s": median_s["markov.closed_form"],
        "sweep.thresholds": spans.calls_to("sweep.profit_threshold"),
        "sweep.evaluations": spans.evaluations,
        "sweep.cells": spans.sweep_cells,
        "sweep.cells_per_threshold": (spans.sweep_cells / spans.sweep_thresholds
                                      if spans.sweep_thresholds else None),
        "sweep.self_s": median_s["sweep"],
        "simulator.calls": calls["simulator"], "simulator.rounds": spans.sim_rounds,
        "simulator.chunks": spans.sim_chunks, "simulator.self_s": median_s["simulator"],
        "simulator.ms_per_mround": (median_s["simulator"] * 1e3 / (spans.sim_rounds / 1e6)
                                    if spans.sim_rounds else None),
        "simulator.max_lead": spans.max_lead if spans.sim_rounds else None,
        "simulator.workers_speedup": speedup,
        "trace.overhead_frac": sum(traced) / sum(plain) - 1.0,
        "trace.accounted_frac": statistics.median(
            sum(s.values()) / wall for s, wall in zip(layer_s, traced)),
    }
    notes = [f"{len(plain)} untraced and {len(traced)} traced passes of the same "
             f"{len(ops)} ops; counts are per pass, seconds the median per pass"]
    return values, notes


def _print_table(rows: list[tuple[str, object, str, str]]) -> None:
    print(f"{'metric':<28} {'value':>16}  {'unit':<9} samples")
    for name, value, unit, samples in rows:
        shown = "not taken" if value is None else f"{value:.6g}"
        print(f"{name:<28} {shown:>16}  {unit:<9} {samples}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-paper", "mc-full", "analytic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in BLAS_THREAD_VARS:  # before numpy loads; set-up interpreters inherit it
        os.environ[var] = "1"
    cli = _import_cli()
    sys.path.insert(0, str(HERE))

    checker = Checker()
    print("record " + json.dumps(run_record(args)))
    if args.trace:
        values, notes = traced_run(cli, args.workload, args.seed, args.seconds, checker)
        units, reported = PER_LAYER, PER_LAYER
        rows = [(name, values[name], units[name], "per pass") for name in PER_LAYER]
    else:
        values, samples = timed_run(cli, args.workload, args.seed, args.seconds, checker)
        units, reported = {**END_TO_END, **WORKLOAD_METRICS}, END_TO_END
        rows = [(name, values[name], units[name], samples[name]) for name in units]
        notes = []
    print(f"workload {args.workload}  seed {args.seed}")
    _print_table(rows)
    for note in notes:
        print(note)
    for failure in checker.failures[:20]:
        print("failed: " + failure)
    if len(checker.failures) > 20:
        print(f"failed: ... {len(checker.failures) - 20} more")

    # a metric a workload cannot take is reported as 0 and named above as not taken
    metrics = {name: {"value": values[name] if values[name] is not None else 0,
                      "unit": units[name]} for name in reported}
    print(json.dumps({"correct": not checker.failures, "attempted": checker.attempted,
                      "failed": len(checker.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
