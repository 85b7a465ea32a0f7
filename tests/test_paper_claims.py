"""The paper ledger's answers, pinned through the command that gives them.

Each case runs ``threshold --lambda L --gamma G --format json`` through
``selfishlab.cli.run`` and reads ``alpha_star`` from the envelope, so the
parser, the search and the rendering all sit between the claim and the
number it checks.
"""

import json

import mpmath
import pytest

from selfishlab.cli import run


def alpha_star(capsys, lam: float, gamma: float = 0.0) -> float:
    code = run(["threshold", "--lambda", repr(lam), "--gamma", repr(gamma), "--format", "json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)["results"]["alpha_star"]


def critical_lambda() -> float:
    """lambda_c, the root of e^lam - 1 = 2*lam above 0, at 60 digits."""
    with mpmath.workdps(60):
        return float(mpmath.findroot(lambda x: mpmath.expm1(x) - 2 * x, 1.25))


def test_the_critical_lambda_is_bracketed_by_the_probes():
    assert 1.2564 < critical_lambda() < 1.26


# at gamma = 0 withholding pays at some alpha only above lambda_c = 1.25643...
@pytest.mark.parametrize("lam", [1.2, 1.2564])
def test_no_threshold_below_the_critical_lambda(capsys, lam):
    assert lam < critical_lambda()
    assert alpha_star(capsys, lam) == 0.0


def test_a_threshold_opens_above_the_critical_lambda(capsys):
    assert alpha_star(capsys, 1.26) > 0.0


# alpha* of the paper ledger at gamma = 0, to four decimals
@pytest.mark.parametrize("lam,expected", [
    (2.0, 0.1781), (3.0, 0.2856), (6.0, 0.3991), (10.0, 0.4438), (30.0, 0.4831),
])
def test_threshold_table(capsys, lam, expected):
    assert alpha_star(capsys, lam) == pytest.approx(expected, abs=1e-4)


# frontier points: the lambda at which alpha* reaches 0.10, 0.25 and 0.40
@pytest.mark.parametrize("lam,expected", [(1.5948, 0.10), (2.5811, 0.25), (6.0468, 0.40)])
def test_frontier_points(capsys, lam, expected):
    assert alpha_star(capsys, lam) == pytest.approx(expected, abs=1e-4)


# the paper share never falls below gamma, so any gamma > 0 makes every alpha profitable
@pytest.mark.parametrize("gamma", [1e-4, 0.01, 0.5, 1.0])
def test_any_positive_gamma_gives_no_threshold(capsys, gamma):
    assert alpha_star(capsys, 5.0, gamma) == 0.0
