"""Independent reference for checking CLI outputs.

The attacker's revenue share is evaluated with 60-digit mpmath in the rho
form, which shares no code and no floating-point algebra with the package:

    rho   = expm1(alpha*lam) / expm1((1-alpha)*lam)
    share = (gamma*(1-rho) + rho*(2-rho)) / (1 + rho*(1-rho))

``balance_share`` evaluates the same quantity through the balance
equations of the lead chain instead; the benchmark's tests use it to
cross-check the rho form at benign points.  ``revenue_rates`` gives the
expected rewards per round on each side, from the same equations.

Each ``check_*`` function takes an op and the text the CLI wrote and
returns ``None`` when the output is correct, or a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import mpmath

DIGITS = 60
# relative tolerance of an analytic share against the reference; the
# float pipeline is expected to agree to ~1e-11 at ordinary points
SHARE_RTOL = 1e-9
# A paper-accounting simulation is checked by its z against the reference
# share.  Its standard error is a batch-means estimate over the simulator's
# 50 000-round chunks, so z follows Student's t with batches - 1 degrees of
# freedom.  A run checks up to RUN_SIMULATIONS of them, and a correct
# program may fail a run only as often as a normal law exceeds 4 sigma, so
# each op's gate is the t quantile with 1/RUN_SIMULATIONS of that tail:
# 8.53 for the 20 batches of 1e6 rounds.  A gate of 4 would fail about one
# correct op in 1300 at 20 batches, and so nearly every run.
SIGMAS = 4.0
RUN_SIMULATIONS = 1000
BATCH_ROUNDS = 50_000
# the threshold search probes no share below this or above 1/2 minus it
ALPHA_GUARD = 1e-4
# absolute slack on a sum of occupancy fractions
OCCUPANCY_SUM_ATOL = 1e-9


def share(alpha: float, lam: float, gamma: float) -> mpmath.mpf:
    """Attacker revenue share under paper accounting, rho form."""
    with mpmath.workdps(DIGITS):
        a, l, g = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(gamma)
        rho = mpmath.expm1(a * l) / mpmath.expm1((1 - a) * l)
        return (g * (1 - rho) + rho * (2 - rho)) / (1 + rho * (1 - rho))


def _balance_rates(alpha: float, lam: float, gamma: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Attacker and honest rewards per round from the chain's balance equations."""
    with mpmath.workdps(DIGITS):
        a, l, g = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(gamma)
        p_att = -mpmath.expm1(-a * l)
        p_hon = -mpmath.expm1(-(1 - a) * l)
        p0 = p2 = p_att * (1 - p_hon)
        p3 = (1 - p_att) * p_hon
        q0 = (p3 - p2) / (p3 - p2 + p0)
        q1 = p0 / p3 * q0
        q2 = q1 * p2 / p3
        r_a = (g * q1 + 2 * q2 + (1 - q0 - q1 - q2)) * p3
        r_b = (1 - g) * q1 * p3
        return r_a, r_b


def balance_share(alpha: float, lam: float, gamma: float) -> mpmath.mpf:
    """The same share through the chain's balance equations and revenue rates."""
    with mpmath.workdps(DIGITS):
        r_a, r_b = _balance_rates(alpha, lam, gamma)
        return r_a / (r_a + r_b)


def revenue_rates(alpha: float, lam: float, gamma: float) -> tuple[float, float]:
    """Expected attacker and honest rewards per round under paper accounting."""
    r_a, r_b = _balance_rates(alpha, lam, gamma)
    return float(r_a), float(r_b)


@lru_cache(maxsize=None)
def z_gate(batches: int) -> float:
    """Largest |z| a correct simulation of ``batches`` batches may show."""
    nu = batches - 1
    tail = mpmath.erfc(SIGMAS / mpmath.sqrt(2)) / RUN_SIMULATIONS

    def excess(t):
        return mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) - tail

    return float(mpmath.findroot(excess, (1.0, 1e3), solver="bisect"))


def _profit_margin(alpha: float, lam: float, gamma: float) -> mpmath.mpf:
    with mpmath.workdps(DIGITS):
        return share(alpha, lam, gamma) - mpmath.mpf(alpha)


def _share_error(value: float, alpha: float, lam: float, gamma: float) -> str | None:
    ref = share(alpha, lam, gamma)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return f"share {value!r} is not a finite number"
    with mpmath.workdps(DIGITS):
        rel = abs(mpmath.mpf(value) - ref) / ref
    if rel > SHARE_RTOL:
        return (f"share {value!r} at alpha={alpha!r} lam={lam!r} gamma={gamma!r} "
                f"has relative error {float(rel):.3g} against {mpmath.nstr(ref, 17)}")
    return None


def _bracket_error(low: float, high: float, lam: float, gamma: float) -> str | None:
    """A threshold bracket must straddle the reference's profitability crossing."""
    where = f"lam={lam!r} gamma={gamma!r}"
    if low == high == 0.0:
        if _profit_margin(ALPHA_GUARD, lam, gamma) <= 0:
            return f"threshold 0 reported but the share is unprofitable at {ALPHA_GUARD} ({where})"
        return None
    if low == high == 0.5:
        if _profit_margin(0.5 - ALPHA_GUARD, lam, gamma) > 0:
            return f"threshold 1/2 reported but the share is profitable below it ({where})"
        return None
    if not 0.0 < low < high < 0.5:
        return f"bracket ({low!r}, {high!r}) is not inside (0, 1/2) ({where})"
    if _profit_margin(low, lam, gamma) > 0:
        return f"share is already profitable at bracket_low={low!r} ({where})"
    if _profit_margin(high, lam, gamma) <= 0:
        return f"share is not profitable at bracket_high={high!r} ({where})"
    return None


def _envelope(text: str, command: str) -> dict:
    envelope = json.loads(text)
    if envelope.get("command") != command:
        raise ValueError(f"envelope command {envelope.get('command')!r}, expected {command!r}")
    return envelope["results"]


def check_analyze(op, text: str) -> str | None:
    results = _envelope(text, "analyze")
    return _share_error(results["ratio"], op.params["alpha"], op.params["lam"],
                        op.params["gamma"])


def check_fix(op, text: str) -> str | None:
    results = _envelope(text, "fix")
    alpha, lam, mult = op.params["alpha"], op.params["lam"], op.params["multiplier"]
    for block, lam_used, gamma in (("before", lam, 0.5), ("after", lam * mult, 0.0)):
        if results[block]["lambda"] != lam_used or results[block]["gamma"] != gamma:
            return f"{block}: lambda/gamma {results[block]['lambda']!r}/" \
                   f"{results[block]['gamma']!r}, expected {lam_used!r}/{gamma!r}"
        error = _share_error(results[block]["ratio"], alpha, lam_used, gamma)
        if error:
            return f"{block}: {error}"
    return None


def check_threshold(op, text: str) -> str | None:
    results = _envelope(text, "threshold")
    low, high = results["bracket"]
    if not low <= results["alpha_star"] <= high:
        return f"alpha_star {results['alpha_star']!r} outside its bracket ({low!r}, {high!r})"
    return _bracket_error(low, high, op.params["lam"], op.params["gamma"])


def check_sweep(op, text: str) -> str | None:
    """Row-major cells; each alpha_star straddled within half the default tol."""
    rows = list(csv.DictReader(io.StringIO(text)))
    tenures, difficulties = op.params["tenures"], op.params["difficulties"]
    hashrate, gamma, half_tol = op.params["hashrate"], op.params["gamma"], 0.5e-6
    if len(rows) != len(tenures) * len(difficulties):
        return f"{len(rows)} rows, expected {len(tenures) * len(difficulties)}"
    cells = ((t, d) for t in tenures for d in difficulties)
    for row, (tenure, difficulty) in zip(rows, cells):
        lam = float(row["lambda"])
        if float(row["tenure"]) != tenure or float(row["difficulty"]) != difficulty:
            return f"row {row} is out of row-major order"
        if not math.isclose(lam, tenure * hashrate / difficulty, rel_tol=1e-15):
            return f"row {row}: lambda differs from tenure*hashrate/difficulty"
        alpha_star = float(row["alpha_star"])
        if alpha_star in (0.0, 0.5):
            error = _bracket_error(alpha_star, alpha_star, lam, gamma)
        else:
            error = _bracket_error(alpha_star - half_tol, alpha_star + half_tol, lam, gamma)
        if error:
            return f"cell tenure={tenure!r} difficulty={difficulty!r}: {error}"
    return None


def _occupancy_error(results: dict) -> str | None:
    total = math.fsum(results["occupancy"])
    if abs(total - 1.0) > OCCUPANCY_SUM_ATOL:
        return f"occupancy sums to {total!r}"
    return None


def check_simulate_paper(op, text: str) -> str | None:
    results = _envelope(text, "simulate")
    error = _occupancy_error(results)
    if error:
        return error
    ref = float(share(op.params["alpha"], op.params["lam"], op.params["gamma"]))
    difference, stderr = results["ratio"] - ref, results["ratio_stderr"]
    if stderr > 0.0:
        z = difference / stderr
    else:  # a zero batch-means error admits no difference at all
        z = 0.0 if difference == 0.0 else math.inf
    gate = z_gate(math.ceil(op.params["rounds"] / BATCH_ROUNDS))
    if abs(z) > gate:
        return (f"z={z:.2f} beyond {gate:.2f} for ratio {results['ratio']!r} "
                f"against reference {ref!r}")
    return None


def check_simulate_full(op, text: str) -> str | None:
    """Full accounting pays whole forks, so its share lies below the paper share."""
    results = _envelope(text, "simulate")
    error = _occupancy_error(results)
    if error:
        return error
    ref = float(share(op.params["alpha"], op.params["lam"], op.params["gamma"]))
    if not 0.0 <= results["ratio"] <= ref:
        return f"full-accounting ratio {results['ratio']!r} outside [0, {ref!r}]"
    return None


def check_rejected(op, text: str) -> str | None:
    """Out-of-domain ops: the exit code carries the verdict, stdout stays empty."""
    if text:
        return f"rejected op wrote {len(text)} characters to stdout"
    return None


CHECKS = {
    "analyze": check_analyze,
    "fix": check_fix,
    "threshold": check_threshold,
    "sweep": check_sweep,
    "simulate-paper": check_simulate_paper,
    "simulate-full": check_simulate_full,
    "rejected": check_rejected,
}


def check(op, code: int, text: str) -> str | None:
    """Why the op's outcome is wrong, or None when it is right."""
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}"
    try:
        return CHECKS[op.kind](op, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
