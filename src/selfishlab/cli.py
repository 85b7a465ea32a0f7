"""Command-line interface.

Subcommands
-----------
analyze    closed-form lead distribution, revenue rates, and verdict
simulate   seeded Monte Carlo run of the lead state machine
threshold  smallest profitable attacker share for a fixed intensity
sweep      threshold table over a tenure x difficulty grid
verify     self-check suites (the lead law analyze prints vs the
           truncated-chain oracle, simulation vs closed form)
fix        before/after comparison of the multi-header mitigation

Mining parameters are given either directly (``--alpha``, ``--lambda``,
``--gamma``) or through the protocol triple ``--tenure --difficulty
--hashrate`` from which the round intensity is derived; giving both forms
is refused as ambiguous.  Every subcommand accepts ``--format
human|json|csv`` (default human) and ``--output PATH`` (default stdout).
JSON output is a single envelope object ``{command, version, inputs,
results}`` whose echoed inputs are sufficient to reproduce the run.

CSV column orders (fixed per subcommand; each handler emits its rows with
keys in this order, and one writer renders the rows of every subcommand):

analyze    alpha,lambda,gamma,q0,q1,rho,r_a,r_b,ratio,profitable
simulate   alpha,lambda,gamma,rounds,seed,accounting,variant,rounds_run,
           revenue_a,revenue_b,ratio,ratio_stderr,occ_0,...,occ_N
threshold  lambda,gamma,tol,alpha_star,bracket_low,bracket_high,evaluations
sweep      tenure,difficulty,lambda,alpha_star
           (plus mc_alpha_low,mc_ratio_low,mc_alpha_high,mc_ratio_high,
           mc_consistent when --mc-check is given; empty where a cell or
           probe is not simulated or a probe sees no resolution event)
verify     suite,cases,failures,worst
fix        alpha,multiplier,lambda_before,gamma_before,ratio_before,
           profitable_before,lambda_after,gamma_after,ratio_after,
           profitable_after,sim_ratio_before,sim_ratio_after

Exit codes: 0 success, 2 invalid arguments or parameters, 3 model error
(divergent lead), 4 verification failure.

Each subcommand's arguments live only in its own parser, which parses an
argv whose first argument names that subcommand.  The top-level parser
lists the six by name and help alone; it prints top-level help,
``--version``, and the usage errors of an argv whose first argument is no
subcommand and of any argument a subcommand's parser leaves over.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__
from .errors import DivergentLead, InvalidConfig, InvalidParam
from .markov import StationaryDist, is_profitable, q_at, stationary_truncated_oracle
from .probmodel import (MiningParams, apply_fix, derive_transition_probs, lambda_from_protocol,
                        lead_ratio)
from .simulator import ACCOUNTING_MODES, CHUNK_ROUNDS, VARIANTS, SimConfig, simulate
from .sweep import profit_threshold, resistance_sweep

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_VERIFY = 4

VERIFY_DEFAULT_CASES = 1000
VERIFY_DEFAULT_SEED = 1234
VERIFY_ORACLE_TOL = 1e-10
VERIFY_ORACLE_RHO_MAX = 0.9  # keeps the oracle's truncation K <= 285, under its cap of 400
VERIFY_MC_ROUNDS = 1_000_000
VERIFY_MAX_ABS_Z = 4.0
VERIFY_MAX_OCC_LINF = 0.008
VERIFY_MC_CONFIGS = tuple((alpha, lam, gamma)
                          for alpha in (0.1, 0.3) for lam in (0.5, 2.0) for gamma in (0.0, 0.5))
# simulation case i runs with seed + i, and every simulation seed is 64-bit
VERIFY_MAX_SEED = 2 ** 64 - len(VERIFY_MC_CONFIGS)

MC_CHECK_ALPHA_OFFSET = 0.02
# two batches give a nonzero standard error, but near this minimum it has few
# degrees of freedom and the 3-sigma test is loose (ROADMAP item 4)
MC_CHECK_MIN_ROUNDS = 2 * CHUNK_ROUNDS


# ---------------------------------------------------------------------------
# parameter resolution

def _resolve_params(args: argparse.Namespace) -> tuple[MiningParams, dict[str, Any]]:
    """Build MiningParams from direct or protocol-triple flags."""
    protocol = {"tenure": args.tenure, "difficulty": args.difficulty, "hashrate": args.hashrate}
    missing = [f"--{name}" for name, value in protocol.items() if value is None]
    if args.lam is not None and len(missing) < len(protocol):
        raise InvalidParam("give either --lambda or the protocol triple "
                           "(--tenure --difficulty --hashrate), not both")
    inputs: dict[str, Any] = {"alpha": args.alpha}
    if args.lam is not None:
        lam = args.lam
    else:
        if missing:
            raise InvalidParam("lambda unspecified: give --lambda or the full "
                               f"protocol triple (missing {', '.join(missing)})")
        lam = lambda_from_protocol(**protocol)
        inputs["protocol"] = protocol
    inputs["lambda"] = lam
    inputs["gamma"] = args.gamma
    return MiningParams(alpha=args.alpha, lam=lam, gamma=args.gamma), inputs


# ---------------------------------------------------------------------------
# subcommand handlers: return (inputs, results, rows, exit_code)
# inputs and results make the JSON envelope and the human listing; rows are the
# CSV rows, flat dicts keyed in the column order of the module docstring

def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, dict, list[dict], int]:
    params, inputs = _resolve_params(args)
    report = is_profitable(params)
    results = {
        "q0": report.dist.q0,
        "q1": report.dist.q1,
        "rho": report.dist.rho,
        "r_a": report.r_a,
        "r_b": report.r_b,
        "ratio": report.ratio,
        "profitable": report.profitable,
    }
    row = {key: inputs[key] for key in ("alpha", "lambda", "gamma")} | results
    return inputs, results, [row], EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict, dict, list[dict], int]:
    params, inputs = _resolve_params(args)
    inputs.update(rounds=args.rounds, seed=args.seed,
                  accounting=args.accounting, variant=args.variant)
    config = SimConfig(params=params, rounds=args.rounds, seed=args.seed,
                       accounting=args.accounting, variant=args.variant)
    result = simulate(config)
    results = {
        "rounds_run": config.rounds,
        "revenue_a": result.revenue_a,
        "revenue_b": result.revenue_b,
        "ratio": result.ratio,
        "ratio_stderr": result.ratio_stderr,
    }
    row = ({key: inputs[key] for key in ("alpha", "lambda", "gamma", "rounds", "seed",
                                           "accounting", "variant")}
           | results | {f"occ_{k}": share for k, share in enumerate(result.occupancy)})
    results["occupancy"] = list(result.occupancy)
    return inputs, results, [row], EXIT_OK


def _cmd_threshold(args: argparse.Namespace) -> tuple[dict, dict, list[dict], int]:
    inputs = {"lambda": args.lam, "gamma": args.gamma, "tol": args.tol}
    found = profit_threshold(args.lam, args.gamma, args.tol)
    results = {
        "alpha_star": found.alpha_star,
        "bracket": list(found.bracket),
        "evaluations": found.evaluations,
    }
    row = inputs | {"alpha_star": found.alpha_star, "bracket_low": found.bracket[0],
                    "bracket_high": found.bracket[1], "evaluations": found.evaluations}
    return inputs, results, [row], EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> tuple[dict, dict, list[dict], int]:
    inputs: dict[str, Any] = {"tenures": args.tenures, "difficulties": args.difficulties,
                              "hashrate": args.hashrate, "gamma": args.gamma}
    if args.mc_check is not None:
        # checked before the sweep, since only cells with 0 < alpha* < 1/2 simulate
        if args.mc_check < MC_CHECK_MIN_ROUNDS:
            raise InvalidParam(f"--mc-check must be at least {MC_CHECK_MIN_ROUNDS}, "
                               f"got {args.mc_check}")
        if not 0 <= args.mc_seed < 2 ** 64:
            raise InvalidParam(f"--mc-seed must be a 64-bit unsigned integer, got {args.mc_seed}")
        inputs.update(mc_check=args.mc_check, mc_seed=args.mc_seed)
    rows = []
    for cell in resistance_sweep(args.tenures, args.difficulties, args.hashrate, args.gamma):
        row: dict[str, Any] = {
            "tenure": cell.tenure,
            "difficulty": cell.difficulty,
            "lambda": cell.lam,
            "alpha_star": cell.alpha_star,
        }
        if args.mc_check is not None:
            row.update(_mc_check_cell(cell.lam, cell.alpha_star, args.gamma,
                                      args.mc_check, args.mc_seed))
        rows.append(row)
    return inputs, {"cells": rows}, rows, EXIT_OK


def _mc_check_cell(lam: float, alpha_star: float, gamma: float,
                   rounds: int, seed: int) -> dict[str, Any]:
    """Simulate just below and above the analytic threshold of one cell.

    Consistency means the share sits at or below the power share at the
    lower probe and at or above it at the upper probe, within three
    standard errors each: sign * ``_z`` >= -3.  The probes are clamped to
    [1e-3, 0.499]; one that the clamp puts at or across alpha* is not
    simulated, and one that sees no resolution event has no share.  Either
    leaves the cell's verdict None.
    """
    probes = dict.fromkeys(("mc_alpha_low", "mc_ratio_low", "mc_alpha_high", "mc_ratio_high",
                            "mc_consistent"))
    if not (0.0 < alpha_star < 0.5):
        return probes
    checks = []
    for label, alpha, sign in (("low", max(alpha_star - MC_CHECK_ALPHA_OFFSET, 1e-3), -1.0),
                               ("high", min(alpha_star + MC_CHECK_ALPHA_OFFSET, 0.499), 1.0)):
        check = None
        if sign * (alpha - alpha_star) > 0.0:
            config = SimConfig(params=MiningParams(alpha=alpha, lam=lam, gamma=gamma),
                               rounds=rounds, seed=seed)
            result = simulate(config)
            probes[f"mc_alpha_{label}"] = alpha
            if result.revenue_a + result.revenue_b > 0.0:
                probes[f"mc_ratio_{label}"] = result.ratio
                check = sign * _z(result.ratio - alpha, result.ratio_stderr) >= -3.0
        checks.append(check)
    probes["mc_consistent"] = None if None in checks else all(checks)
    return probes


def _cmd_fix(args: argparse.Namespace) -> tuple[dict, dict, list[dict], int]:
    base = MiningParams(alpha=args.alpha, lam=args.lam, gamma=0.5)
    settings = (("before", base), ("after", apply_fix(base, args.multiplier)))
    inputs: dict[str, Any] = {"alpha": args.alpha, "lambda": args.lam,
                              "multiplier": args.multiplier}
    if args.rounds is not None:
        inputs.update(rounds=args.rounds, seed=args.seed)
    results: dict[str, Any] = {"multiplier": args.multiplier}
    row = {"alpha": args.alpha, "multiplier": args.multiplier}
    for label, params in settings:
        report = is_profitable(params)
        block = results[label] = {"lambda": params.lam, "gamma": params.gamma,
                                  "ratio": report.ratio, "profitable": report.profitable}
        row.update((f"{key}_{label}", value) for key, value in block.items())
        if args.rounds is not None:
            config = SimConfig(params=params, rounds=args.rounds, seed=args.seed)
            block["sim_ratio"] = simulate(config).ratio
    row.update((f"sim_ratio_{label}", results[label].get("sim_ratio")) for label, _ in settings)
    return inputs, results, [row], EXIT_OK


# ---------------------------------------------------------------------------
# verify suites

def _lead_mass_gap(masses: Sequence[float], dist: StationaryDist) -> float:
    """Largest |masses[k] - q_k| over the leads k that ``masses`` covers."""
    return float(max(abs(mass - q_at(dist, k)) for k, mass in enumerate(masses)))


def _oracle_suite(cases: int, seed: int) -> dict[str, Any]:
    """The lead masses ``analyze`` prints vs the truncated-chain oracle.

    Each case draws alpha ~ U(0, 1/2) and lambda log-uniform on [1e-12, 1e3],
    redrawn while rho > ``VERIFY_ORACLE_RHO_MAX``.  ``worst_case`` is the
    ``analyze`` argv of the case with the largest error.
    """
    rng = np.random.default_rng(seed)
    checks = []
    while len(checks) < cases:
        alpha, lam = 0.5 * (1.0 - rng.random()), 10.0 ** rng.uniform(-12.0, 3.0)
        if lead_ratio(alpha, lam)[0] <= VERIFY_ORACLE_RHO_MAX:
            case = MiningParams(alpha=alpha, lam=lam)
            vector = stationary_truncated_oracle(derive_transition_probs(case))
            checks.append((_lead_mass_gap(vector, is_profitable(case).dist), alpha, lam))
    worst, alpha, lam = max(checks, key=lambda check: check[0])
    return {"suite": "stationary-oracle", "cases": cases,
            "failures": sum(linf > VERIFY_ORACLE_TOL for linf, _, _ in checks),
            "worst": worst,
            "worst_case": f"analyze --alpha {alpha!r} --lambda {lam!r}",
            "tolerance": VERIFY_ORACLE_TOL}


def _z(difference: float, stderr: float) -> float:
    """difference / stderr; at stderr 0, 0 if difference is 0 and signed infinity otherwise."""
    if stderr > 0.0:
        return difference / stderr
    return math.copysign(math.inf, difference) if difference else 0.0


def _simulation_gap(params: MiningParams, rounds: int, seed: int) -> tuple[float, float]:
    """Paper-accounting simulation vs the closed form: share z-score and occupancy gap.

    z is the share difference over its standard error (``_z``).  The gap is
    the largest lead-mass difference over leads 0-10 and every lead the run reached.
    """
    result = simulate(SimConfig(params=params, rounds=rounds, seed=seed))
    report = is_profitable(params)
    z = _z(result.ratio - report.ratio, result.ratio_stderr)
    occupancy = result.occupancy + (0.0,) * (11 - len(result.occupancy))
    return z, _lead_mass_gap(occupancy, report.dist)


def _mc_suite(seed: int) -> dict[str, Any]:
    """Paper-accounting simulation vs the closed-form revenue share.

    ``worst_case`` is the ``simulate`` argv of the config with the largest |z|.
    """
    gaps = [_simulation_gap(MiningParams(alpha=alpha, lam=lam, gamma=gamma),
                            VERIFY_MC_ROUNDS, seed + index)
            for index, (alpha, lam, gamma) in enumerate(VERIFY_MC_CONFIGS)]
    index = max(range(len(gaps)), key=lambda i: abs(gaps[i][0]))
    alpha, lam, gamma = VERIFY_MC_CONFIGS[index]
    return {"suite": "simulation-analytic", "cases": len(gaps),
            "failures": sum(abs(z) > VERIFY_MAX_ABS_Z or occupancy_gap > VERIFY_MAX_OCC_LINF
                            for z, occupancy_gap in gaps),
            "worst": abs(gaps[index][0]),
            "worst_case": (f"simulate --alpha {alpha!r} --lambda {lam!r} --gamma {gamma!r} "
                           f"--rounds {VERIFY_MC_ROUNDS} --seed {seed + index}"),
            "worst_occupancy_linf": max(occupancy_gap for _, occupancy_gap in gaps),
            "max_abs_z": VERIFY_MAX_ABS_Z, "max_occupancy_linf": VERIFY_MAX_OCC_LINF}


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, dict, list[dict], int]:
    if args.cases < 1:
        raise InvalidParam(f"--cases must be at least 1, got {args.cases}")
    if not 0 <= args.seed <= VERIFY_MAX_SEED:
        raise InvalidParam(f"--seed must be in [0, {VERIFY_MAX_SEED}], got {args.seed}")
    suites = [_oracle_suite(args.cases, args.seed), _mc_suite(args.seed)]
    failures = sum(suite["failures"] for suite in suites)
    results = {"suites": suites, "passed": failures == 0}
    rows = [{key: suite[key] for key in ("suite", "cases", "failures", "worst")}
            for suite in suites]
    return ({"cases": args.cases, "seed": args.seed}, results, rows,
            EXIT_OK if failures == 0 else EXIT_VERIFY)


# ---------------------------------------------------------------------------
# rendering

def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _kv_lines(mapping: dict[str, Any], indent: str = "  ") -> list[str]:
    lines = []
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_kv_lines(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key} = {', '.join(_fmt(v) for v in value)}")
        else:
            lines.append(f"{indent}{key} = {_fmt(value)}")
    return lines


def _table_lines(rows: list[dict[str, Any]]) -> list[str]:
    cells = [list(rows[0])] + [[_fmt(v) if v is not None else "-" for v in row.values()]
                               for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in cells]


def _human(command: str, inputs: dict, results: dict) -> str:
    lines = [f"command: {command}", "inputs:", *_kv_lines(inputs), "results:"]
    if command == "sweep":
        lines.extend("  " + line for line in _table_lines(results["cells"]))
    elif command == "verify":
        for suite in results["suites"]:
            detail = ", ".join(f"{k}={_fmt(v)}" for k, v in suite.items() if k != "suite")
            lines.append(f"  {suite['suite']}: {detail}")
        lines.append(f"  verdict = {'PASS' if results['passed'] else 'FAIL'}")
    else:
        lines.extend(_kv_lines(results))
    return "\n".join(lines) + "\n"


def _csv_cell(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _render(command: str, inputs: dict, results: dict, rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        envelope = {"command": command, "version": __version__,
                    "inputs": inputs, "results": results}
        return json.dumps(envelope, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([_csv_cell(v) for v in row.values()] for row in rows)
        return buffer.getvalue()
    return _human(command, inputs, results)


# ---------------------------------------------------------------------------
# parser

def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("human", "json", "csv"), default="human",
                     help="output format (default: human)")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write output to PATH instead of stdout")


def _add_model_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True,
                     help="attacker's share of total mining power, in (0, 1)")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="expected headers per round (exclusive with the protocol triple)")
    sub.add_argument("--gamma", type=float, default=0.5,
                     help="tie-break probability for the withheld branch (default: 0.5)")
    sub.add_argument("--tenure", type=float, default=None, help="leader tenure, seconds")
    sub.add_argument("--difficulty", type=float, default=None,
                     help="expected hashes per header solution")
    sub.add_argument("--hashrate", type=float, default=None,
                     help="network hashrate, hashes per second")


def _add_simulate_args(sub: argparse.ArgumentParser) -> None:
    _add_model_args(sub)
    sub.add_argument("--rounds", type=int, required=True, help="number of rounds")
    sub.add_argument("--seed", type=int, required=True, help="64-bit root seed")
    sub.add_argument("--accounting", choices=ACCOUNTING_MODES, default="paper",
                     help="award rules (default: paper)")
    sub.add_argument("--variant", choices=VARIANTS, default="decrement",
                     help="lead-2 resolution semantics (default: decrement)")


def _add_threshold_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lambda", dest="lam", type=float, required=True,
                     help="expected headers per round")
    sub.add_argument("--gamma", type=float, default=0.5,
                     help="tie-break probability (default: 0.5)")
    sub.add_argument("--tol", type=float, default=1e-6,
                     help="bisection bracket width (default: 1e-6)")


def _add_sweep_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tenures", type=_float_list, required=True,
                     help="comma-separated tenure lengths, seconds")
    sub.add_argument("--difficulties", type=_float_list, required=True,
                     help="comma-separated header difficulties, hashes")
    sub.add_argument("--hashrate", type=float, required=True,
                     help="network hashrate, hashes per second")
    sub.add_argument("--gamma", type=float, default=0.5,
                     help="tie-break probability (default: 0.5)")
    sub.add_argument("--mc-check", type=int, default=None, metavar="ROUNDS",
                     help="cross-check each nondegenerate cell by simulating "
                          "ROUNDS rounds just below and above its threshold")
    sub.add_argument("--mc-seed", type=int, default=42,
                     help="seed for --mc-check simulations (default: 42)")


def _add_verify_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cases", type=int, default=VERIFY_DEFAULT_CASES,
                     help=f"random cases for the oracle suite "
                          f"(default: {VERIFY_DEFAULT_CASES})")
    sub.add_argument("--seed", type=int, default=VERIFY_DEFAULT_SEED,
                     help=f"seed for both suites (default: {VERIFY_DEFAULT_SEED})")


def _add_fix_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True,
                     help="attacker's share of total mining power")
    sub.add_argument("--lambda", dest="lam", type=float, required=True,
                     help="expected headers per round before the fix")
    sub.add_argument("--multiplier", type=float, required=True,
                     help="header multiplier applied by the fix, >= 1")
    sub.add_argument("--rounds", type=int, default=None,
                     help="also simulate both settings for this many rounds")
    sub.add_argument("--seed", type=int, default=42,
                     help="seed for the optional simulations (default: 42)")


# name -> (help, handler, adder of the command's own arguments)
_COMMANDS = {
    "analyze": ("closed-form analysis", _cmd_analyze, _add_model_args),
    "simulate": ("seeded Monte Carlo run", _cmd_simulate, _add_simulate_args),
    "threshold": ("smallest profitable attacker share", _cmd_threshold, _add_threshold_args),
    "sweep": ("threshold table over a protocol grid", _cmd_sweep, _add_sweep_args),
    "verify": ("run the self-check suites", _cmd_verify, _add_verify_args),
    "fix": ("evaluate the multi-header mitigation", _cmd_fix, _add_fix_args),
}


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser: ``--version`` and the six subcommands by name and help only."""
    parser = argparse.ArgumentParser(
        prog="selfishlab",
        description="Block-withholding attack analysis for a tenure-based "
                    "bilayer Nakamoto consensus protocol.")
    parser.add_argument("--version", action="version", version=f"selfishlab {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        commands.add_parser(name, help=help_text)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    try:
        if name not in _COMMANDS:
            parser = _build_parser()
            parser.parse_args(argv)  # exits with help, the version or a usage error
            parser.error("the command must be the first argument")
        _, handler, add_args = _COMMANDS[name]
        # the same prog as the top-level parser's subparser
        parser = argparse.ArgumentParser(prog=f"selfishlab {name}")
        add_args(parser)
        _add_output_args(parser)
        args, rest = parser.parse_known_args(argv[1:])
        if rest:
            _build_parser().error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:  # argparse already printed usage/help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        inputs, results, rows, code = handler(args)
    except (InvalidParam, InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergentLead as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL

    text = _render(name, inputs, results, rows, args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
