import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from selfishlab import MiningParams, SimConfig, __version__, is_profitable, simulate
from selfishlab.cli import (_COMMANDS, VERIFY_MAX_SEED, _add_output_args, _simulation_gap,
                            run)
from selfishlab.markov import StationaryDist, q_at, stationary_truncated_oracle
from selfishlab.probmodel import derive_transition_probs
from selfishlab.simulator import CHUNK_ROUNDS


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None, captured.err


def test_analyze_json_reference(capsys):
    code, envelope, _ = run_json(capsys, ["analyze", "--alpha", "0.3", "--lambda", "1"])
    assert code == 0
    assert envelope["command"] == "analyze"
    assert envelope["version"] == __version__
    assert envelope["inputs"] == {"alpha": 0.3, "lambda": 1.0, "gamma": 0.5}
    results = envelope["results"]
    assert results["ratio"] == pytest.approx(0.7329191907938145, abs=1e-9)
    assert results["profitable"] is True
    for key in ("q0", "q1", "rho", "r_a", "r_b"):
        assert key in results


def test_analyze_protocol_triple_equivalent(capsys):
    code, direct, _ = run_json(capsys, ["analyze", "--alpha", "0.3", "--lambda", "2"])
    assert code == 0
    code, derived, _ = run_json(capsys, [
        "analyze", "--alpha", "0.3",
        "--tenure", "120", "--difficulty", "6e7", "--hashrate", "1e6"])
    assert code == 0
    assert derived["inputs"]["lambda"] == pytest.approx(2.0, rel=1e-12)
    assert derived["inputs"]["protocol"] == {
        "tenure": 120.0, "difficulty": 6e7, "hashrate": 1e6}
    assert derived["results"] == direct["results"]


def test_analyze_lambda_sources_are_exclusive(capsys):
    code = run(["analyze", "--alpha", "0.3", "--lambda", "1", "--tenure", "60"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_analyze_requires_lambda_source(capsys):
    assert run(["analyze", "--alpha", "0.3"]) == 2
    assert run(["analyze", "--alpha", "0.3", "--tenure", "60", "--hashrate", "1e6"]) == 2


def test_analyze_majority_attacker_exit_code(capsys):
    code = run(["analyze", "--alpha", "0.6", "--lambda", "1"])
    assert code == 3
    assert "attacker majority" in capsys.readouterr().err


def test_analyze_csv_layout(capsys):
    code = run(["analyze", "--alpha", "0.3", "--lambda", "1", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["alpha", "lambda", "gamma", "q0", "q1", "rho",
                       "r_a", "r_b", "ratio", "profitable"]
    assert len(rows) == 2
    assert rows[1][-1] == "true"


def test_analyze_human_output(capsys):
    code = run(["analyze", "--alpha", "0.3", "--lambda", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "command: analyze" in out
    assert "ratio" in out


def test_human_inputs_keep_every_digit(capsys):
    # 12 significant digits read 0.5 here, an alpha that exits 3; results keep %.12g
    code = run(["analyze", "--alpha", "0.49999999999999994", "--lambda", "0.60988"])
    assert code == 0
    out = capsys.readouterr().out
    assert "\n  alpha = 0.49999999999999994\n" in out
    assert "\n  lambda = 0.60988\n" in out
    assert "\n  rho = 1\n" in out


def test_simulate_json_matches_library(capsys):
    code, envelope, _ = run_json(capsys, [
        "simulate", "--alpha", "0.3", "--lambda", "1",
        "--rounds", "20000", "--seed", "3"])
    assert code == 0
    expected = simulate(SimConfig(params=MiningParams(0.3, 1.0, 0.5),
                                  rounds=20000, seed=3))
    results = envelope["results"]
    assert results["ratio"] == expected.ratio
    assert results["revenue_a"] == expected.revenue_a
    assert results["occupancy"] == list(expected.occupancy)
    assert envelope["inputs"]["accounting"] == "paper"
    assert envelope["inputs"]["variant"] == "decrement"


def test_simulate_zero_rounds_exit_code(capsys):
    assert run(["simulate", "--alpha", "0.3", "--lambda", "1",
                "--rounds", "0", "--seed", "1"]) == 2


def test_simulate_rejects_paper_reset(capsys):
    assert run(["simulate", "--alpha", "0.3", "--lambda", "1",
                "--rounds", "10", "--seed", "1", "--variant", "reset"]) == 2


def test_simulate_majority_attacker_exit_code(capsys):
    # the same model error, and exit code, as analyze at the same alpha
    assert run(["simulate", "--alpha", "0.6", "--lambda", "1",
                "--rounds", "10", "--seed", "1"]) == 3
    assert "attacker majority" in capsys.readouterr().err


def test_simulate_csv_has_occupancy_columns(capsys):
    code = run(["simulate", "--alpha", "0.3", "--lambda", "1",
                "--rounds", "20000", "--seed", "3", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    fixed = ["alpha", "lambda", "gamma", "rounds", "seed", "accounting", "variant",
             "rounds_run", "revenue_a", "revenue_b", "ratio", "ratio_stderr"]
    assert rows[0][:len(fixed)] == fixed
    assert rows[0][len(fixed)] == "occ_0"
    assert len(rows) == 2


def test_threshold_json(capsys):
    code, envelope, _ = run_json(capsys, ["threshold", "--lambda", "2", "--gamma", "0"])
    assert code == 0
    results = envelope["results"]
    assert abs(results["alpha_star"] - 0.175) <= 0.01
    assert results["bracket"][1] - results["bracket"][0] <= 1e-6
    assert results["evaluations"] > 0


def test_threshold_tolerance_validation(capsys):
    assert run(["threshold", "--lambda", "2", "--tol", "1e-9"]) == 2


def test_sweep_csv_row_major(capsys):
    code = run(["sweep", "--tenures", "60,120", "--difficulties", "6e7,1.2e8",
                "--hashrate", "1e6", "--gamma", "0", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["tenure", "difficulty", "lambda", "alpha_star"]
    assert len(rows) == 5
    assert [row[0] for row in rows[1:]] == ["60.0", "60.0", "120.0", "120.0"]
    same_lam = [row for row in rows[1:] if row[2] == "1.0"]
    assert len(same_lam) == 2
    assert same_lam[0][3] == same_lam[1][3]


def test_sweep_even_tiebreak_zero(capsys):
    code, envelope, _ = run_json(capsys, [
        "sweep", "--tenures", "60", "--difficulties", "6e7", "--hashrate", "1e6"])
    assert code == 0
    assert envelope["results"]["cells"][0]["alpha_star"] == 0.0


def test_sweep_mc_check(capsys):
    code, envelope, _ = run_json(capsys, [
        "sweep", "--tenures", "120", "--difficulties", "6e7", "--hashrate", "1e6",
        "--gamma", "0", "--mc-check", "200000", "--mc-seed", "11"])
    assert code == 0
    cell = envelope["results"]["cells"][0]
    assert cell["mc_alpha_low"] < cell["mc_alpha_high"]
    assert cell["mc_consistent"] is True


def test_sweep_mc_check_unresolved_probe_has_no_verdict(capsys):
    # lambda = 500: near alpha* = 0.499 both sides find a header in nearly every
    # round, so 10^5 rounds at the low probe see no resolution event and the
    # share is undefined; the high probe would be clamped to 0.499, below alpha*
    code, envelope, _ = run_json(capsys, [
        "sweep", "--tenures", "60", "--difficulties", "1.2e5", "--hashrate", "1e6",
        "--gamma", "0", "--mc-check", "100000", "--mc-seed", "11"])
    assert code == 0
    cell = envelope["results"]["cells"][0]
    assert cell["lambda"] == 500.0
    assert cell["mc_alpha_low"] == pytest.approx(cell["alpha_star"] - 0.02, abs=1e-15)
    assert cell["mc_ratio_low"] is None
    assert cell["mc_alpha_high"] is None and cell["mc_ratio_high"] is None
    assert cell["mc_consistent"] is None


def test_sweep_mc_check_skips_a_probe_clamped_across_the_threshold(capsys):
    # lambda = 1.257 has alpha* = 2.09e-4, below the 1e-3 floor of the low probe,
    # where the attacker already profits; that probe would test nothing
    code, envelope, _ = run_json(capsys, [
        "sweep", "--tenures", "1.257", "--difficulties", "1", "--hashrate", "1",
        "--gamma", "0", "--mc-check", "1000000", "--mc-seed", "3"])
    assert code == 0
    cell = envelope["results"]["cells"][0]
    assert 0.0 < cell["alpha_star"] < 1e-3
    assert cell["mc_alpha_low"] is None and cell["mc_ratio_low"] is None
    assert cell["mc_alpha_high"] == pytest.approx(cell["alpha_star"] + 0.02, abs=1e-15)
    assert cell["mc_ratio_high"] is not None
    assert cell["mc_consistent"] is None


@pytest.mark.parametrize("gamma", ["0.5", "0"])   # no cell simulated / one cell simulated
@pytest.mark.parametrize("flags", [["--mc-check", "-5"], ["--mc-check", "0"],
                                   ["--mc-check", "100000", "--mc-seed", "-1"],
                                   ["--mc-check", "100000", "--mc-seed", str(2 ** 64)]])
def test_sweep_rejects_bad_mc_check_on_any_grid(capsys, gamma, flags):
    assert run(["sweep", "--tenures", "120", "--difficulties", "6e7", "--hashrate", "1e6",
                "--gamma", gamma] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flags[-2]} must be")


def test_sweep_mc_check_needs_two_batches(capsys):
    # one batch has no standard error, so the 3-sigma test would be an exact
    # comparison that a correct simulator fails (the lambda = 2 cell at 1000 rounds)
    flags = ["sweep", "--tenures", "1,2", "--difficulties", "1e6", "--hashrate", "1e6",
             "--gamma", "0", "--mc-check"]
    assert run(flags + [str(2 * CHUNK_ROUNDS - 1)]) == 2
    assert run(flags + ["1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--mc-check must be at least {2 * CHUNK_ROUNDS}" in captured.err


def test_sweep_rejects_bad_axes(capsys):
    assert run(["sweep", "--tenures", "120,60", "--difficulties", "6e7",
                "--hashrate", "1e6"]) == 2
    assert run(["sweep", "--tenures", "60,abc", "--difficulties", "6e7",
                "--hashrate", "1e6"]) == 2
    capsys.readouterr()
    assert run(["sweep", "--tenures", ",", "--difficulties", "6e7",
                "--hashrate", "1e6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --tenures: empty list\n")


def test_fix_json(capsys):
    code, envelope, _ = run_json(capsys, [
        "fix", "--alpha", "0.3", "--lambda", "1", "--multiplier", "3"])
    assert code == 0
    results = envelope["results"]
    assert results["before"]["gamma"] == 0.5
    assert results["after"]["gamma"] == 0.0
    assert results["after"]["lambda"] == pytest.approx(3.0, rel=1e-12)
    assert results["after"]["ratio"] < results["before"]["ratio"]
    assert "sim_ratio" not in results["before"]


def test_fix_with_simulation(capsys):
    code, envelope, _ = run_json(capsys, [
        "fix", "--alpha", "0.3", "--lambda", "1", "--multiplier", "3",
        "--rounds", "50000", "--seed", "2"])
    assert code == 0
    results = envelope["results"]
    assert 0.0 <= results["before"]["sim_ratio"] <= 1.0
    assert results["after"]["sim_ratio"] < results["before"]["sim_ratio"]


def test_fix_rejects_small_multiplier(capsys):
    assert run(["fix", "--alpha", "0.3", "--lambda", "1", "--multiplier", "0.5"]) == 2


def test_overflowing_lambda_names_the_overflow(capsys):
    cases = [("fix --alpha 0.3 --lambda 1e308 --multiplier 10",
              "lam * header_multiplier overflows: 1e+308 * 10.0 = inf"),
             ("analyze --alpha 0.3 --tenure 1e300 --difficulty 1e-10 --hashrate 1e10",
              "lam must be finite, got inf"),
             ("sweep --tenures 1e300 --difficulties 1e-10 --hashrate 1e10",
              "lam must be finite, got inf")]
    for argv, message in cases:
        assert run(argv.split()) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_passes_small_run(capsys):
    code, envelope, _ = run_json(capsys, ["verify", "--cases", "40", "--seed", "7"])
    assert code == 0
    assert envelope["results"]["passed"] is True
    suites = {suite["suite"]: suite for suite in envelope["results"]["suites"]}
    assert suites["stationary-oracle"]["failures"] == 0
    assert suites["simulation-analytic"]["failures"] == 0


def test_verify_worst_case_replays_the_largest_z(capsys):
    code, envelope, _ = run_json(capsys, ["verify", "--cases", "5", "--seed", "7"])
    assert code == 0
    suite = envelope["results"]["suites"][1]
    assert suite["suite"] == "simulation-analytic"
    replay = suite["worst_case"].split()
    assert replay[0] == "simulate"
    code, simulated, _ = run_json(capsys, replay)
    assert code == 0
    inputs = simulated["inputs"]
    code, analytic, _ = run_json(capsys, ["analyze", "--alpha", str(inputs["alpha"]),
                                          "--lambda", str(inputs["lambda"]),
                                          "--gamma", str(inputs["gamma"])])
    assert code == 0
    z = ((simulated["results"]["ratio"] - analytic["results"]["ratio"])
         / simulated["results"]["ratio_stderr"])
    assert abs(z) == suite["worst"]


def test_simulation_gap_within_noise():
    for params in (MiningParams(alpha=0.3, lam=1.0, gamma=0.5),
                   MiningParams(alpha=0.1, lam=2.0, gamma=0.0)):
        z, occupancy_gap = _simulation_gap(params, 1_000_000, 42)
        assert abs(z) <= 4.0
        assert occupancy_gap <= 0.005


def test_simulation_gap_degenerate_zero():
    # p_attacker = 1e-303: the pool mines, so the closed form takes its
    # rho -> 0 limit gamma, but ten thousand rounds never sample the event
    params = MiningParams(alpha=1e-300, lam=1e-3, gamma=0.5)
    assert simulate(SimConfig(params=params, rounds=10_000, seed=5)).ratio == 0.0
    assert is_profitable(params).ratio == 0.5
    assert _simulation_gap(params, 10_000, 5)[0] == -math.inf

    # rho = e^-980 rounds to 0 and the honest side finds in every round, so
    # no lead ever opens: both shares are exactly zero and agree
    params = MiningParams(alpha=0.01, lam=1000.0, gamma=0.0)
    assert simulate(SimConfig(params=params, rounds=10_000, seed=5)).ratio == 0.0
    assert is_profitable(params).ratio == 0.0
    assert _simulation_gap(params, 10_000, 5)[0] == 0.0


def test_simulation_gap_zero_stderr_mismatch_is_infinite():
    z, _ = _simulation_gap(MiningParams(alpha=0.3, lam=1.0, gamma=0.5), 5_000, 5)
    assert z == math.inf


def test_verify_worst_case_replays_the_largest_oracle_error(capsys):
    code, envelope, _ = run_json(capsys, ["verify", "--cases", "5", "--seed", "7"])
    assert code == 0
    suite = envelope["results"]["suites"][0]
    assert suite["suite"] == "stationary-oracle"
    replay = suite["worst_case"].split()
    assert replay[0] == "analyze"
    code, analyzed, _ = run_json(capsys, replay)
    assert code == 0
    params = MiningParams(alpha=analyzed["inputs"]["alpha"], lam=analyzed["inputs"]["lambda"])
    dist = StationaryDist(rho=analyzed["results"]["rho"], q0=analyzed["results"]["q0"])
    assert dist.q1 == analyzed["results"]["q1"]
    vector = stationary_truncated_oracle(derive_transition_probs(params))
    assert max(abs(vector[k] - q_at(dist, k)) for k in range(len(vector))) == suite["worst"]


def test_verify_detects_injected_fault(capsys, monkeypatch):
    import selfishlab.cli as cli

    monkeypatch.setattr(cli, "q_at", lambda dist, k: 0.12345)
    code = run(["verify", "--cases", "5", "--seed", "7"])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flags,message", [
    # simulation case i runs with seed + i, which must stay a 64-bit seed
    *((["--seed", str(seed)], f"--seed must be in [0, {VERIFY_MAX_SEED}], got {seed}")
      for seed in (-1, VERIFY_MAX_SEED + 1, 2 ** 64 - 1)),
    (["--cases", "0"], "--cases must be at least 1, got 0"),
])
def test_verify_rejects_arguments_out_of_range(capsys, flags, message):
    assert run(["verify", "--cases", "5", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_runs_at_the_largest_seed(capsys):
    code, envelope, _ = run_json(capsys, ["verify", "--cases", "5",
                                          "--seed", str(VERIFY_MAX_SEED)])
    assert code == 0
    assert envelope["results"]["passed"] is True


def test_verify_csv(capsys):
    code = run(["verify", "--cases", "5", "--seed", "7", "--format", "csv"])
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["suite", "cases", "failures", "worst"]
    assert len(rows) == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(["analyze", "--alpha", "0.3", "--lambda", "1",
                "--format", "json", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    envelope = json.loads(target.read_text())
    assert envelope["results"]["ratio"] == pytest.approx(0.7329191907938145, abs=1e-9)

    missing = tmp_path / "missing" / "out.json"
    assert run(["analyze", "--alpha", "0.3", "--lambda", "1", "--output", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {missing}: ")


def test_json_inputs_round_trip(capsys):
    code, first, _ = run_json(capsys, [
        "analyze", "--alpha", "0.27", "--lambda", "1.7", "--gamma", "0.25"])
    assert code == 0
    argv = ["analyze"]
    for key in ("alpha", "lambda", "gamma"):
        argv += [f"--{key}", repr(first["inputs"][key])]
    code, second, _ = run_json(capsys, argv)
    assert code == 0
    assert second["results"] == first["results"]


def test_usage_errors(capsys):
    assert run([]) == 2
    assert "error: the following arguments are required: command" in capsys.readouterr().err
    assert run(["unknown"]) == 2
    assert "error: argument command: invalid choice: 'unknown'" in capsys.readouterr().err
    assert run(["simulate", "--alpha", "0.3", "--lambda", "1",
                "--rounds", "10", "--seed", "1", "--accounting", "bogus"]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    commands = re.findall(r"^    (\w+) ", capsys.readouterr().out, re.MULTILINE)
    assert commands == list(_COMMANDS)


def _full_parser():
    """The top-level parser with every command's arguments in its subparser.

    The CLI builds each command's arguments only into the parser of the
    command it runs; this tree is the reference its help, usage lines,
    parse errors and parsed namespaces must read as.
    """
    parser = argparse.ArgumentParser(
        prog="selfishlab",
        description="Block-withholding attack analysis for a tenure-based "
                    "bilayer Nakamoto consensus protocol.")
    parser.add_argument("--version", action="version", version=f"selfishlab {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_args) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        add_args(sub)
        _add_output_args(sub)
        sub.set_defaults(handler=handler)
    return parser


def _run_and_reference(capsys, argv):
    """(code, stdout, stderr) of run(argv), then of the full parser on argv."""
    code = run(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        _full_parser().parse_args(argv)
    expected = capsys.readouterr()
    return (code, got.out, got.err), (exc.value.code, expected.out, expected.err)


# a well-formed argv tail per command, whose first option takes the value after it
WELL_FORMED = {
    "analyze": ["--alpha", "0.3", "--lambda", "1"],
    "simulate": ["--alpha", "0.3", "--lambda", "1", "--rounds", "10", "--seed", "1"],
    "threshold": ["--lambda", "2"],
    "sweep": ["--tenures", "60", "--difficulties", "6e7", "--hashrate", "1e6"],
    "verify": ["--cases", "1"],
    "fix": ["--alpha", "0.3", "--lambda", "1", "--multiplier", "3"],
}


@pytest.mark.parametrize("name", WELL_FORMED)
def test_one_command_parser_matches_the_full_parser(capsys, name):
    # run parses a named command with that command's parser alone and reports
    # what it leaves over with the top-level parser; help, usage lines and parse
    # errors must read as the full parser's (the golden file pins no stderr)
    full = _full_parser()
    subparser = next(action for action in full._actions if action.dest == "command").choices[name]
    assert run([name, "-h"]) == 0
    assert capsys.readouterr().out == subparser.format_help()
    tail = WELL_FORMED[name]
    assert run([name, *tail, "extra"]) == 2
    assert capsys.readouterr().err.startswith(full.format_usage())
    malformed = [
        tail + ["--bogus", "1"],                    # unknown option
        tail + ["extra"],                           # extra positional
        tail + ["--format", "xml"],                 # bad choice
        [tail[0], "x", *tail[2:]],                  # not a number
        tail[2:] if name != "verify" else ["--seed"],   # missing required option or value
        tail + ["--version"],                       # the top-level option after the command
        tail + ["--", "extra"],                     # a positional after --
        tail + ["--v"],                             # an abbreviation of --version
        tail + ["-h"],                              # help after valid arguments
    ]
    for argv in ([name, *rest] for rest in malformed):
        got, expected = _run_and_reference(capsys, argv)
        assert got == expected, argv


@pytest.mark.parametrize("name", WELL_FORMED)
def test_a_named_command_parses_without_the_full_parser(capsys, monkeypatch, name):
    import selfishlab.cli as cli

    # verify --cases 0 exits 2 from its handler, so no simulation runs
    argv = [name, *(WELL_FORMED[name] if name != "verify" else ["--cases", "0"])]
    parsed, handled = [], []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    help_text, handler, add_args = cli._COMMANDS[name]

    def spy(parser, *args, **kwargs):
        result = parse_known_args(parser, *args, **kwargs)
        parsed.append(result[0])
        return result

    def handle(args):
        handled.append(args)
        return handler(args)

    def refuse():
        raise AssertionError("the top-level parser was built")

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        patch.setattr(cli, "_build_parser", refuse)
        patch.setitem(cli._COMMANDS, name, (help_text, handle, add_args))
        assert run(argv) == (2 if name == "verify" else 0)
    capsys.readouterr()
    assert handled == parsed
    expected = vars(_full_parser().parse_args(argv))
    assert expected.pop("handler") is handler
    assert expected.pop("command") == name
    assert vars(parsed[0]) == expected


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--version"], ["--vers"], ["--v"], ["--he"], ["bogus"],
    ["-x"], ["--format", "json"], ["bogus", "--alpha", "0.3"],
])
def test_an_argv_that_names_no_command_first_reads_as_the_full_parsers(capsys, argv):
    got, expected = _run_and_reference(capsys, argv)
    assert got == expected


@pytest.mark.parametrize("name", WELL_FORMED)
def test_an_option_or_separator_before_the_command_is_a_top_level_usage_error(capsys, name):
    # after an unknown option before the command, the error names what the
    # help-only subparser leaves over too, so only the usage line is pinned
    for argv in (["-x", name, *WELL_FORMED[name]], ["--", name], ["--", name, *WELL_FORMED[name]]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(_full_parser().format_usage()), argv


def test_a_top_level_parse_that_returns_ends_in_a_usage_error(capsys, monkeypatch):
    import selfishlab.cli as cli

    # an argparse that drops a leading -- would parse ["--", "verify"] as verify
    # with no arguments; run must still end in the top-level error, not a handler
    def refuse(args):
        raise AssertionError("a handler ran")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda parser, argv: argparse.Namespace(command=argv[-1]))
    for name, (help_text, _, add_args) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, refuse, add_args))
    assert run(["--", "verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (_full_parser().format_usage()
                            + "selfishlab: error: the command must be the first argument\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "--alpha", "0.3", "--lambda", "1", "--format", "json"], ["--version"]])
def test_run_parses_sys_argv_and_tuples_as_lists(capsys, monkeypatch, argv):
    expected = run(list(argv)), capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["selfishlab", *argv])
    assert (run(None), capsys.readouterr().out) == expected
    assert (run(tuple(argv)), capsys.readouterr().out) == expected


def test_module_runs_from_an_uninstalled_checkout():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "selfishlab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    assert cli("analyze", "--alpha", "0.6", "--lambda", "1").returncode == 3
    threshold = cli("threshold", "--lambda", "2", "--format", "csv")
    assert threshold.returncode == 0
    assert threshold.stdout.splitlines()[0] == (
        "lambda,gamma,tol,alpha_star,bracket_low,bracket_high,evaluations")
