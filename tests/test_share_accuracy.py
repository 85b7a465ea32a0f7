"""The revenue share and rates against a 60-digit mpmath reference.

The reference evaluates the share in the rho form and the rates through
the balance equations of the lead chain, in 60-digit arithmetic that shares
no floating-point steps with the package.  Relative accuracy is checked
wherever the reference value is a normal double.
"""

import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selfishlab.cli import run
from selfishlab.errors import DivergentLead
from selfishlab.markov import _share, is_profitable
from selfishlab.probmodel import MiningParams, lead_ratio
from selfishlab.sweep import profit_threshold

DIGITS = 60

alphas = st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True)
lams = st.floats(min_value=-12.0, max_value=3.0).map(lambda exponent: 10.0 ** exponent)
gammas = st.floats(min_value=0.0, max_value=1.0)
rhos = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)

BELOW_HALF = 0.49999999999999994  # one ulp below 1/2
REFUSED_LAM = 0.60988  # one of refused_lams(): rho at BELOW_HALF rounds to 1


def reference_share(alpha, lam, gamma):
    with mpmath.workdps(DIGITS):
        a, l, g = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(gamma)
        rho = mpmath.expm1(a * l) / mpmath.expm1((1 - a) * l)
        return (g * (1 - rho) + rho * (2 - rho)) / (1 + rho * (1 - rho))


def reference_rates(alpha, lam, gamma):
    with mpmath.workdps(DIGITS):
        a, l, g = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(gamma)
        p_attacker, p_honest = -mpmath.expm1(-a * l), -mpmath.expm1(-(1 - a) * l)
        p0 = p2 = p_attacker * (1 - p_honest)
        p3 = (1 - p_attacker) * p_honest
        q0 = (p3 - p2) / (p3 - p2 + p0)
        q1 = p0 / p3 * q0
        q2 = q1 * p2 / p3
        r_a = (g * q1 + 2 * q2 + (1 - q0 - q1 - q2)) * p3
        r_b = (1 - g) * q1 * p3
        return r_a, r_b


def relative_error(value, reference):
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - reference) / reference)


def share_bound(lam):
    return 1e-13 if lam <= 100.0 else 1e-12


def report_unless_refused(alpha, lam, gamma):
    """The report, or None where rho rounds to 1 and is_profitable refused as documented."""
    params = MiningParams(alpha=alpha, lam=lam, gamma=gamma)
    if float(lead_ratio(alpha, lam)) >= 1.0:
        with pytest.raises(DivergentLead, match="rounds to"):
            is_profitable(params)
        return None
    return is_profitable(params)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(alphas, lams, gammas)
@example(BELOW_HALF, REFUSED_LAM, 0.0)
def test_share_is_a_fraction(alpha, lam, gamma):
    report = report_unless_refused(alpha, lam, gamma)
    assert report is None or 0.0 <= report.ratio <= 1.0


@settings(max_examples=500, derandomize=True, deadline=None)
@given(rhos, rhos, gammas)
def test_share_is_non_decreasing_in_rho(rho_a, rho_b, gamma):
    low, high = sorted((rho_a, rho_b))
    assert _share(low, gamma) <= _share(high, gamma)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(alphas, lams, gammas)
@example(BELOW_HALF, REFUSED_LAM, 0.0)
def test_share_matches_reference(alpha, lam, gamma):
    report = report_unless_refused(alpha, lam, gamma)
    if report is not None:
        reference = reference_share(alpha, lam, gamma)
        assume(reference >= sys.float_info.min)
        assert relative_error(report.ratio, reference) <= share_bound(lam)


@pytest.mark.parametrize("alpha,lam,gamma,expected", [
    (0.3, 50.0, 0.0, 4.12e-9),       # the cancelling form returned -7.7e-9
    (1e-6, 1.0, 0.0, 1.164e-6),      # the cancelling form erred by 1.4e-5
    (0.4999999999, 1.0, 0.5, 1.0),   # the normalization check rejected this
    (BELOW_HALF, 0.5, 0.0, 1.0),     # 1 - rho = 2.5e-16; a libm rho rounded to 1 here
    (0.3, 800.0, 0.0, 2.12e-139),    # 1 - p_attacker rounded to 0: p3 = 0
    (0.2, 1000.0, 0.5, 0.5),         # p2 underflows to 0, rho does not
    (0.2, 1000.0, 0.0, 5.30e-261),
    (1e-300, 1e-12, 0.0, 2e-300),    # alpha * lam lies below the normal range
])
def test_share_regression_points(alpha, lam, gamma, expected):
    report = is_profitable(MiningParams(alpha=alpha, lam=lam, gamma=gamma))
    assert report.ratio == pytest.approx(expected, rel=1e-3)
    assert relative_error(report.ratio, reference_share(alpha, lam, gamma)) <= share_bound(lam)


def refused_lams():
    # the lambdas of a scan where rho, one ulp below 1/2, rounds to 1 or above
    lams = np.linspace(0.01, 50.0, 5001)
    return lams[lead_ratio(BELOW_HALF, lams) >= 1.0].tolist()


def test_report_refuses_rho_rounded_to_one():
    # the distribution would not normalize, which is a model error, not bad input
    lams = refused_lams()
    assert REFUSED_LAM in lams
    for lam in lams:
        with pytest.raises(DivergentLead, match="rounds to"):
            is_profitable(MiningParams(alpha=BELOW_HALF, lam=lam, gamma=0.0))
    with pytest.raises(DivergentLead, match="attacker majority"):
        is_profitable(MiningParams(alpha=0.5, lam=1.0, gamma=0.0))


def test_report_distribution_uses_the_same_rho():
    # p2 underflows at (1 - alpha) * lam > 745; q1 and rho used to read 0 here
    report = is_profitable(MiningParams(alpha=0.2, lam=1000.0, gamma=0.0))
    with mpmath.workdps(DIGITS):
        rho = mpmath.expm1(mpmath.mpf(200)) / mpmath.expm1(mpmath.mpf(800))
    assert relative_error(report.dist.rho, rho) <= 1e-12
    assert report.dist.q1 == report.dist.rho * report.dist.q0
    assert report.ratio == report.dist.rho * 2.0


@pytest.mark.parametrize("alpha,lam,gamma", [
    (0.3, 1.0, 0.5), (0.3, 50.0, 0.0), (0.1, 2.0, 0.0), (0.45, 0.5, 1.0),
    (0.49, 5.0, 0.25), (1e-6, 1.0, 0.7), (0.2, 100.0, 0.5),
])
def test_revenue_rates_match_reference(alpha, lam, gamma):
    report = is_profitable(MiningParams(alpha=alpha, lam=lam, gamma=gamma))
    ref_a, ref_b = reference_rates(alpha, lam, gamma)
    assert relative_error(report.r_a, ref_a) <= 1e-13
    if gamma == 1.0:
        assert report.r_b == 0.0
    else:
        assert relative_error(report.r_b, ref_b) <= 1e-13


def profit_margin(alpha, lam, gamma):
    with mpmath.workdps(DIGITS):
        return reference_share(alpha, lam, gamma) - mpmath.mpf(alpha)


@pytest.mark.parametrize("lam,alpha_star", [(30.0, 0.4831), (100.0, None)])
def test_threshold_brackets_the_reference_crossing(lam, alpha_star):
    found = profit_threshold(lam, 0.0)
    low, high = found.bracket
    assert 0.0 < low < high < 0.5
    assert profit_margin(low, lam, 0.0) <= 0 < profit_margin(high, lam, 0.0)
    if alpha_star is not None:
        assert found.alpha_star == pytest.approx(alpha_star, abs=1e-4)


@pytest.mark.parametrize("argv", [
    ["analyze", "--alpha", "0.4999999999", "--lambda", "1"],
    ["analyze", "--alpha", "0.49999999999999994", "--lambda", "1"],
    ["analyze", "--alpha", "0.49999999999999994", "--lambda", "0.5"],
    ["analyze", "--alpha", "0.2", "--lambda", "1000"],
    ["threshold", "--lambda", "100", "--gamma", "0"],
])
def test_cli_accepts_former_failures(capsys, argv):
    assert run(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_rho_rounded_to_one_is_a_model_error(capsys):
    lam = refused_lams()[0]
    assert run(["analyze", "--alpha", repr(BELOW_HALF), "--lambda", repr(lam)]) == 3
    assert "rounds to 1.0" in capsys.readouterr().err
