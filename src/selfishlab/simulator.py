"""Seeded Monte Carlo simulation of the lead state machine at round granularity.

Each round has two independent Bernoulli outcomes with the round
probabilities: does the attacker pool find a header, and does the honest
remainder find one.  The withheld branch's lead then evolves exactly as in
the analytic chain and revenue is credited at resolution events.  A round
where a same-height race is decided by gamma is a *race*: under paper
accounting the honest-only rounds at lead 1; under full accounting those
and the rounds at lead 0 where both sides find.

Transition and award rules, by lead ``s`` at the start of the round:

    s = 0   attacker only   -> s=1, a private branch opens, no award.
            both            -> s=0 (the block is published normally);
                               paper: no award; full: same-height race,
                               attacker wins one reward with probability
                               gamma, otherwise the honest side gains one.
            honest only     -> s=0; paper: no award; full: honest +1.
    s >= 1  attacker only   -> s+1, no award yet.
            both            -> s unchanged; both forks grow: the pending
                               private and public counters increment.
            honest only     -> the fork shrinks or resolves:
                s = 1  -> 0    tie race decided by gamma; paper: winner +1;
                               full: winner takes its whole pending fork.
                s = 2  -> 1    variant "decrement": attacker banks exactly
                               two rewards and the fork restarts at a fresh
                               one-block lead.  Variant "reset" (full
                               accounting only): s -> 0, the attacker banks
                               its entire pending private chain, the public
                               fork is discarded.
                s >= 3 -> s-1  paper: attacker banks one reward; full: no
                               award yet, the public fork counter grows.

"paper" is the stylized per-event accounting whose expectations match the
closed-form revenue rates in :mod:`selfishlab.markov`; it requires the
"decrement" variant because only that combination matches the balance
equations.  "full" is ledger-style accounting that pays whole forks at
resolution and also credits honest blocks produced while no private branch
exists, giving a realistic (lower) attacker share.

Evaluation
----------
A chunk runs without a per-round loop.  ``_outcomes`` maps each round's
uniform u to both outcomes: the attacker finds iff u < p_a, the honest
side iff u < p_a p_b or p_a <= u < p_a + (p_b - p_a p_b), so the two are
independent with the round probabilities.  ``_lead_before`` reads the lead
at the start of each round off the walk W = cumsum(x), x = +1 on
attacker-only rounds, -1 on honest-only rounds, 0 otherwise.
"decrement": W reflected at 0.  "reset": an excursion opens at an
attacker-only round i at lead 0 and ends at the first honest-only round
j > i with W_j in {W_i, W_i - 1} (a down step from lead 2 or 1); inside
[i, j) the lead after a round is W - W_i + 1, elsewhere 0.  ``_account``
pays off that lead.  Paper revenue needs only four counts: honest-only
rounds at lead 1 (the races), at lead 2 and at lead >= 3, and the races
won.  A full fork segment starts at an open (or, under "decrement", at a
collapse) in round k; resolved at round j it holds 1 + A_j - A_k private
and B_j - B_k public blocks, A and B the cumsums of the attacker and
honest outcomes.  ``tests/chunk_reference.py`` keeps the per-round loop
that pins it.

Determinism contract
--------------------
Rounds are partitioned into fixed chunks of ``CHUNK_ROUNDS``.  Chunk ``i``
uses its own PCG64 generator seeded with ``SeedSequence((seed, i))`` and
draws, in order, one uniform per round, which decides both outcomes of
that round, and then one tie-break uniform per race, in round order: a
chunk of n rounds with r races draws exactly n + r doubles.  Chunks are
independent (each starts at lead 0 with empty fork counters), so results
are bit-identical however the chunks are scheduled, and a run is
reproducible from its ``SimConfig`` alone.  Chunks double as the batches
for the batch-means standard error of the revenue share
(``ceil(rounds / CHUNK_ROUNDS)`` batches; the estimate is 0 when there are
fewer than two).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConfig
from .markov import is_profitable, q_at
from .probmodel import MiningParams, round_success_probs

__all__ = [
    "CHUNK_ROUNDS",
    "ACCOUNTING_MODES",
    "VARIANTS",
    "SimConfig",
    "SimResult",
    "ComparisonReport",
    "simulate",
    "compare_to_analytic",
]

CHUNK_ROUNDS = 50_000

ACCOUNTING_MODES = ("paper", "full")
VARIANTS = ("decrement", "reset")


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one simulation run."""

    params: MiningParams
    rounds: int
    seed: int
    accounting: str = "paper"
    variant: str = "decrement"

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise InvalidConfig(f"rounds must be >= 1, got {self.rounds}")
        if not (0 <= self.seed < 2 ** 64):
            raise InvalidConfig(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.accounting not in ACCOUNTING_MODES:
            raise InvalidConfig(f"accounting must be one of {ACCOUNTING_MODES}, "
                                f"got {self.accounting!r}")
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.accounting == "paper" and self.variant == "reset":
            raise InvalidConfig("paper accounting requires the decrement variant; "
                                "no closed form corresponds to paper+reset")


@dataclass(frozen=True)
class SimResult:
    """Accumulated statistics of a simulation run.

    occupancy[k] is the fraction of rounds that started at lead k, for
    k from 0 up to the largest lead observed.
    """

    rounds_run: int
    revenue_a: float
    revenue_b: float
    ratio: float
    ratio_stderr: float
    occupancy: tuple[float, ...]


@dataclass(frozen=True)
class ComparisonReport:
    """Simulation vs closed form: share estimates, z-score, occupancy gap."""

    ratio_mc: float
    ratio_analytic: float
    z_score: float
    occupancy_linf: float


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _lead_before(a: np.ndarray, b: np.ndarray, variant: str) -> np.ndarray:
    """Lead at the start of each round of a chunk that opens at lead 0."""
    up = a & ~b
    down = b & ~a
    walk = np.cumsum(up.view(np.int8) - down.view(np.int8), dtype=np.int32)
    if variant == "decrement":
        after = walk - np.minimum.accumulate(np.minimum(walk, 0))
    else:
        n = len(walk)
        rows = np.int64(n + 1)
        starts = np.flatnonzero(up)  # candidate excursion starts
        falls = np.flatnonzero(down)
        # honest-only rounds sorted by the key (W + n + 1) * rows + index, then a sentinel
        keys = np.append(np.sort((walk[falls] + rows) * rows + falls), np.iinfo(np.int64).max)
        level = (walk[starts] + rows) * rows  # key of (W_i, round 0)
        # first honest-only round after i at W_i and at W_i - 1; a miss lands past n
        hits = [keys[np.searchsorted(keys, floor + starts + 1)] - floor
                for floor in (level, level - rows)]
        ends = np.minimum(np.minimum(*hits), n)
        # candidate intervals nest or are disjoint: a start is real past all earlier ends
        opens = starts > np.concatenate(([-1], np.maximum.accumulate(ends)[:-1]))
        starts, ends = starts[opens], ends[opens]
        edges = np.zeros(n + 1, dtype=np.int8)
        edges[starts], edges[ends] = 1, -1
        # in place: W - W_i + 1 inside an excursion opened at i, 0 outside
        after = np.zeros(n, dtype=np.int32)
        after[starts] = np.diff(walk[starts] - 1, prepend=0)
        np.subtract(walk, np.cumsum(after, out=after), out=after)
        after[np.cumsum(edges[:n], dtype=np.int8) == 0] = 0
    return np.concatenate((np.zeros(1, dtype=np.int32), after[:-1]))


def _outcomes(u: np.ndarray, p_attacker: float,
              p_honest: float) -> tuple[np.ndarray, np.ndarray]:
    """Attacker and honest outcomes of each round from its one uniform.

    The attacker finds on [0, p_a); the honest side on [0, p_a p_b) and on
    [p_a, p_a + p_b - p_a p_b), so the two outcomes are independent.
    """
    a = u < p_attacker
    both = p_attacker * p_honest
    b = (u < both) | (~a & (u < p_attacker + (p_honest - both)))
    return a, b


def _account(a: np.ndarray, b: np.ndarray, lead: np.ndarray,
             draw: Callable[[int], np.ndarray], gamma: float, accounting: str,
             variant: str) -> tuple[float, float, np.ndarray]:
    """Revenue of one chunk and its occupancy counts, given the lead before each round.

    ``draw(n)`` returns the tie-break uniforms of the chunk's n races in round
    order; the attacker wins a race iff its uniform is below gamma.
    """
    down = b & ~a
    if accounting == "paper":
        # honest-only rounds at lead 1 (a race), 2 and >= 3
        tied, collapsed, shrunk = (np.count_nonzero(down & test)
                                   for test in (lead == 1, lead == 2, lead >= 3))
        won = np.count_nonzero(draw(tied) < gamma)
        revenue_a, revenue_b = 2 * collapsed + shrunk + won, tied - won
    else:
        idle = lead == 0
        tied = down & (lead == 1)
        raced = tied | (a & b & idle)
        wins = np.zeros_like(raced)
        wins[raced] = draw(np.count_nonzero(raced)) < gamma
        won = tied & wins
        race_won = np.count_nonzero(wins & idle)
        collapsed = down & (lead == 2)
        revenue_b = np.count_nonzero(b & idle) - race_won
        starts = a & ~b & idle
        if variant == "decrement":
            starts |= collapsed
            private, revenue_a = won, race_won + 2 * np.count_nonzero(collapsed)
        else:
            private, revenue_a = won | collapsed, race_won
        segment = np.flatnonzero(starts)

        def grown(paid: np.ndarray, found: np.ndarray) -> int:
            """Sum of found_j - found_k over paid rounds j, k the start of j's segment."""
            ends = np.flatnonzero(paid)
            begins = segment[np.searchsorted(segment, ends) - 1]
            return int(found[ends].sum(dtype=np.int64) - found[begins].sum(dtype=np.int64))

        revenue_a += np.count_nonzero(private) + grown(private, np.cumsum(a, dtype=np.int32))
        revenue_b += grown(tied & ~won, np.cumsum(b, dtype=np.int32))
    return float(revenue_a), float(revenue_b), np.bincount(lead)


def _simulate_chunk(rng: np.random.Generator, p_attacker: float, p_honest: float,
                    gamma: float, accounting: str, variant: str,
                    rounds: int) -> tuple[float, float, np.ndarray]:
    """One independent chunk: (revenue_a, revenue_b, occupancy counts)."""
    a, b = _outcomes(rng.random(rounds), p_attacker, p_honest)
    return _account(a, b, _lead_before(a, b, variant), rng.random, gamma, accounting, variant)


def simulate(config: SimConfig, *, workers: int = 1) -> SimResult:
    """Run the configured number of rounds and accumulate statistics.

    ``workers`` only selects how the independent chunks are executed; the
    merged result is bit-identical for any worker count.
    """
    if config.params.alpha >= 0.5:
        raise InvalidConfig(f"alpha must be below 0.5 for a stable lead, "
                            f"got {config.params.alpha}")
    rp = round_success_probs(config.params)
    gamma = config.params.gamma

    sizes = [CHUNK_ROUNDS] * (config.rounds // CHUNK_ROUNDS)
    if config.rounds % CHUNK_ROUNDS:
        sizes.append(config.rounds % CHUNK_ROUNDS)

    def run_chunk(index: int) -> tuple[float, float, np.ndarray]:
        return _simulate_chunk(_chunk_rng(config.seed, index), rp.p_attacker,
                               rp.p_honest, gamma, config.accounting, config.variant,
                               sizes[index])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_stats = list(pool.map(run_chunk, range(len(sizes))))
    else:
        chunk_stats = [run_chunk(i) for i in range(len(sizes))]

    revenue_a = sum(stats[0] for stats in chunk_stats)
    revenue_b = sum(stats[1] for stats in chunk_stats)

    width = max(len(stats[2]) for stats in chunk_stats)
    counts = np.zeros(width, dtype=np.int64)
    for stats in chunk_stats:
        counts[:len(stats[2])] += stats[2]

    total = revenue_a + revenue_b
    ratio = revenue_a / total if total > 0.0 else 0.0

    batch_ratios = [ra / (ra + rb) if ra + rb > 0.0 else 0.0
                    for ra, rb, _ in chunk_stats]
    if len(batch_ratios) >= 2:
        spread = np.std(batch_ratios, ddof=1)
        stderr = float(spread / math.sqrt(len(batch_ratios)))
    else:
        stderr = 0.0

    return SimResult(
        rounds_run=config.rounds,
        revenue_a=float(revenue_a),
        revenue_b=float(revenue_b),
        ratio=float(ratio),
        ratio_stderr=stderr,
        occupancy=tuple((counts / config.rounds).tolist()),
    )


def compare_to_analytic(config: SimConfig) -> ComparisonReport:
    """Run a paper-accounting simulation and compare it to the closed form.

    The z-score normalizes the share discrepancy by the batch-means
    standard error; it is 0 when both estimate and target coincide with a
    zero standard error, and infinite when only the standard error is zero.
    """
    if config.accounting != "paper":
        raise InvalidConfig("analytic comparison is defined for paper accounting only")
    result = simulate(config)
    report = is_profitable(config.params)
    analytic, dist = report.ratio, report.dist

    difference = result.ratio - analytic
    if result.ratio_stderr > 0.0:
        z_score = difference / result.ratio_stderr
    elif difference == 0.0:
        z_score = 0.0
    else:
        z_score = math.copysign(math.inf, difference)

    states = max(len(result.occupancy), 11)
    occupancy_linf = max(
        abs((result.occupancy[k] if k < len(result.occupancy) else 0.0) - q_at(dist, k))
        for k in range(states))

    return ComparisonReport(ratio_mc=result.ratio, ratio_analytic=analytic,
                            z_score=z_score, occupancy_linf=occupancy_linf)
