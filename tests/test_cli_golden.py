"""Golden snapshots of the command line: exact stdout and exit code per argv.

``golden/cli.json`` maps each argv (joined by single spaces) to the exit
code and the stdout that ``selfishlab.cli.run`` produced for it.  Every
subcommand is covered in all three output formats, including the rejected
and degenerate cases, so any change to a CSV column order, a JSON key or a
human line shows up here.  stderr is not pinned: its messages may change.

To record the file again after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root
and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from selfishlab.cli import run

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

COMMANDS = [
    "analyze --alpha 0.3 --lambda 1",
    "analyze --alpha 0.3 --tenure 60 --difficulty 6e7 --hashrate 1e6 --gamma 0.25",
    "analyze --alpha 0.2 --lambda 1000 --gamma 0",
    "analyze --alpha 0.6 --lambda 1",
    "simulate --alpha 0.3 --lambda 1 --rounds 120000 --seed 7",
    "simulate --alpha 0.3 --lambda 1 --gamma 0.25 --rounds 120000 --seed 7 "
    "--accounting full",
    "simulate --alpha 0.3 --lambda 1 --gamma 0.25 --rounds 120000 --seed 7 "
    "--accounting full --variant reset",
    "threshold --lambda 2 --gamma 0",
    "threshold --lambda 2 --gamma 0.5",
    "sweep --tenures 60,120 --difficulties 6e7,1.2e8 --hashrate 1e6 --gamma 0",
    # lambda from 1.67e-4 to 5000: alpha_star = 0 at lambda <= 1, bisected at
    # lambda = 1.67, 50 and 100, and 0.5 at lambda = 5000
    "sweep --tenures 1,60,3000 --difficulties 6e5,6e7,6e9 --hashrate 1e6 --gamma 0",
    # lambda = 500, 1, 1000, 2: the lambda = 1 cell has alpha_star = 0 and is not simulated;
    # at lambda = 500 and 1000 the low probes see no resolution event, so they have no
    # share, and the high probes are not simulated: the 0.499 clamp lies below alpha*
    "sweep --tenures 60,120 --difficulties 1.2e5,6e7 --hashrate 1e6 --gamma 0 "
    "--mc-check 100000 --mc-seed 11",
    "fix --alpha 0.3 --lambda 1 --multiplier 3",
    "fix --alpha 0.3 --lambda 1 --multiplier 3 --rounds 50000 --seed 2",
    "verify --cases 5 --seed 7",
]
FORMATS = ("human", "json", "csv")
# pinned in JSON only: the bisection's last step at the tightest and a loose tolerance
JSON_COMMANDS = [
    "threshold --lambda 30 --gamma 0 --tol 1e-8",
    "threshold --lambda 30 --gamma 0 --tol 1e-3",
    # near the break-even share most down steps fall from a lead of 2 or more
    "simulate --alpha 0.48 --lambda 0.5 --gamma 0.5 --rounds 120000 --seed 7 "
    "--accounting full --variant reset",
]


def _capture(key: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(key.split())
    return {"exit": code, "stdout": out.getvalue()}


def _keys() -> list[str]:
    return ([f"{command} --format {fmt}" for command in COMMANDS for fmt in FORMATS]
            + [f"{command} --format json" for command in JSON_COMMANDS])


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(_keys())


@pytest.mark.parametrize("key", _keys())
def test_cli_output_matches_golden(key):
    assert _capture(key) == json.loads(GOLDEN.read_text())[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({key: _capture(key) for key in _keys()}, indent=1) + "\n")
