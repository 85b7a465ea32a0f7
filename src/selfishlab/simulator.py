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
independent with the round probabilities.  Only a *step*, a round where
exactly one side finds, moves the lead: idle and both-find rounds keep it.
``_steps`` keeps the step rounds and the run lengths between them, and
``_lead_before`` walks the steps alone: W = cumsum(x), x = +1 on an
attacker-only step and -1 on an honest-only one.  "decrement": W reflected
at 0.  "reset": an excursion opens at an attacker-only step i at lead 0 and
ends at the first step j > i with W_j <= W_i (a down step from lead 2 or
1), found by one stable sort of the levels of W; the lead after a step is
W minus a per-excursion baseline W_i - 1, clipped at 0, whose baselines
are laid out by one ``np.repeat`` (outside an excursion the baseline
exceeds every W).  The walk ends with one idle sentinel, the lead at the
chunk's end.  Lead k of that walk holds for the rounds in (step k-1,
step k], and the sentinel's for the rounds after the last step, so one
``np.bincount`` weighted by those run lengths gives the occupancy; a
chunk that ends on a step gives the sentinel no round, and its bin is
dropped.  Paper revenue needs only four counts: honest-only steps at lead
1 (the races), at lead 2 and at lead >= 3, and the races won.  Full
accounting pays at excursion boundaries: an excursion opens at an
attacker-only step at lead 0 and closes at an honest-only step at lead 1
(a tie) or, under "reset", at lead 2.  Outside the excursions an
honest-only step pays the honest side and a both-find round is a race; one
``np.searchsorted`` of the open, close and fork-start steps into the
both-find rounds counts them, and the races before open t precede the tie
at close t.  A fork starts at an open (or, under "decrement", at a
collapse) at step k; closed at step j it holds 1 + u + c private and
d + 1 + c public blocks, where c counts the both-find rounds between
them and the u up and d down steps between them satisfy
u + d = j - k - 1 and u - d = L_j - 1, L_j the lead before j.
``tests/chunk_reference.py`` keeps the per-round loop that pins it.

Determinism contract
--------------------
Rounds are partitioned into fixed chunks of ``CHUNK_ROUNDS``.  Chunk ``i``
uses its own PCG64 generator seeded with ``SeedSequence((seed, i))`` and
draws, in order, one uniform per round, which decides both outcomes of
that round, and then one tie-break uniform per race, in round order: a
chunk of n rounds with r races draws exactly n + r doubles.  Chunks are
independent (each starts at lead 0 with empty fork counters), so results
are bit-identical however the chunks are scheduled, and a run is
reproducible from its ``SimConfig`` alone.  The n chunks are the batches of
the share r = sum(A_i) / sum(T_i), where chunk i pays A_i of its revenue T_i
to the attacker; its error sd(A_i - r T_i) sqrt(n) / sum(T_i) weighs a short
last chunk by its revenue, and is 0 with one batch or no revenue.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import InvalidConfig
from .probmodel import MiningParams, _require_minority, round_success_probs

__all__ = [
    "CHUNK_ROUNDS",
    "ACCOUNTING_MODES",
    "VARIANTS",
    "SimConfig",
    "SimResult",
    "simulate",
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
        for name in ("rounds", "seed"):
            if not isinstance(getattr(self, name), Integral):
                raise InvalidConfig(f"{name} must be an integer, got {getattr(self, name)!r}")
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

    revenue_a: float
    revenue_b: float
    ratio: float
    ratio_stderr: float
    occupancy: tuple[float, ...]


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _lead_before(up: np.ndarray, variant: str) -> np.ndarray:
    """Lead before each step of a chunk that opens at lead 0, then the lead at its end.

    ``up`` marks the attacker-only steps; the others are honest-only.  The
    last entry is the lead an idle sentinel round after the last step starts at.
    """
    m = len(up)
    lead = np.zeros(m + 1, dtype=np.int32)
    walk = np.cumsum(up.view(np.int8) * 2 - 1, dtype=np.int32, out=lead[1:])  # W after each step
    if variant == "decrement":
        lead -= np.minimum.accumulate(lead)  # W reflected at 0: lead[0] = 0 opens the minimum
    else:
        # the attacker-only step i closes its excursion at the first step j > i
        # with W_j <= W_i: step i + 1 if it is honest-only, else the next step at
        # level W_i, which follows i in (level, index) order.  W spans at most
        # m + 1 <= CHUNK_ROUNDS + 1 < 2**16 levels, so the stable sort of
        # uint16 levels is a radix sort.
        level = (walk - walk.min(initial=0)).astype(np.uint16)
        order = np.argsort(level, kind="stable")
        level = level[order]
        # the next step at each step's level, m where none follows
        successor = np.full(m, m, dtype=np.int32)
        same = np.flatnonzero(level[1:] == level[:-1])
        successor[order[same]] = order[same + 1]
        starts = np.flatnonzero(up)  # candidate excursion starts
        ends = np.where(np.append(up[1:], True)[starts], successor[starts], starts + 1)
        # candidate intervals nest or are disjoint: a start is real past all earlier ends
        opens = starts > np.concatenate(([-1], np.maximum.accumulate(ends)[:-1]))
        starts, ends = starts[opens], ends[opens]
        # W - W_i + 1 inside an excursion [i, j); outside, a baseline above every W
        # makes the difference negative, and the clip at 0 gives lead 0
        bounds = np.empty(2 * len(starts) + 2, dtype=np.intp)
        bounds[0], bounds[1:-1:2], bounds[2:-1:2], bounds[-1] = 0, starts, ends, m
        baselines = np.full(len(bounds) - 1, m + 1, dtype=np.int32)
        baselines[1::2] = walk[starts] - 1
        walk -= np.repeat(baselines, np.diff(bounds))
        np.maximum(walk, 0, out=walk)
    return lead


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


def _steps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rounds where exactly one side finds, which are the rounds that move the lead.

    Returns whether the attacker found in each step, and the run lengths:
    runs[k] rounds, those in (steps[k-1], steps[k]], start at the lead before
    step k, and runs[-1] rounds follow the last step.  The runs are float64,
    the weights of the occupancy bincount.
    """
    steps = np.flatnonzero(a ^ b)
    runs = np.empty(len(steps) + 1)
    runs[-1] = len(a)
    if len(steps):
        runs[0] = steps[0] + 1
        np.subtract(steps[1:], steps[:-1], out=runs[1:-1])
        runs[-1] -= steps[-1] + 1
    return a[steps], runs


def _chunk(a: np.ndarray, b: np.ndarray, draw: Callable[[int], np.ndarray],
           gamma: float, accounting: str, variant: str) -> tuple[float, float, np.ndarray]:
    """Revenue of one chunk that opens at lead 0, and its occupancy counts.

    ``draw(n)`` returns the tie-break uniforms of the chunk's n races in round
    order; the attacker wins a race iff its uniform is below gamma.
    """
    up, runs = _steps(a, b)
    lead = _lead_before(up, variant)
    if not runs[-1]:  # the chunk ends on a step: no round starts at the end lead
        lead, runs = lead[:-1], runs[:-1]
    occupancy = np.bincount(lead, runs).astype(np.int64)
    if accounting == "paper":
        # honest-only steps at lead 1 (a race), 2 and >= 3
        down, lead_step = ~up, lead[:len(up)]
        tied, collapsed, shrunk = (np.count_nonzero(down & test)
                                   for test in (lead_step == 1, lead_step == 2, lead_step >= 3))
        won = np.count_nonzero(draw(tied) < gamma)
        revenue_a, revenue_b = 2 * collapsed + shrunk + won, tied - won
    else:
        # excursions open at an attacker-only step at lead 0 and close at a tie
        # or, under "reset", at a collapse; opens and closes alternate
        after = np.cumsum(runs[:len(up)], out=runs[:len(up)])  # 1 + each step's round
        lead, down = lead[:len(up)], ~up
        zero, tied, collapsed = lead == 0, down & (lead == 1), down & (lead == 2)
        opens = np.flatnonzero(up & zero)
        if variant == "reset":
            closes = np.flatnonzero(tied | collapsed)
            begins = opens[:len(closes)]
        else:  # a collapse pays 2 and restarts the fork at a one-block lead
            closes = np.flatnonzero(tied)
            starts = np.flatnonzero(up & zero | collapsed)
            begins = starts[np.searchsorted(starts, closes) - 1]
        ties = tied[closes]
        # both-find rounds before each open, close and fork start; searching at
        # 1 + a step's round counts the same, as no step is a both-find round.
        # A chunk that ends at lead 0 ends as if an excursion opened there.
        marks = after[opens] if len(opens) > len(closes) else np.append(after[opens], len(a))
        both = np.flatnonzero(a & b)
        opened, closed, begun = (np.searchsorted(both, at.astype(np.intp))
                                 for at in (marks, after[closes], after[begins]))
        del both, after, runs  # freed before the race uniforms are drawn
        opened[1:] -= closed
        idle = np.cumsum(opened)  # lead-0 races before each open
        # the lead-0 races before open t come before close t, so a tie at close
        # t reads uniform idle[t] + (ties up to t) - 1
        wins = draw(int(idle[-1]) + np.count_nonzero(ties)) < gamma
        won = wins[idle[:-1][ties] + np.cumsum(ties)[ties] - 1]
        race_won = np.count_nonzero(wins) - np.count_nonzero(won)
        # the fork from step k to close j holds 1 + ups + both-finds private and
        # downs + 1 + both-finds public blocks, where ups + downs = j - k - 1 and
        # ups - downs = lead[j] - 1: equal sizes at a tie
        size = 1 + (closes - begins - 2 + lead[closes]) // 2 + closed - begun
        paid = size[ties]
        revenue_a = race_won + paid[won].sum()
        revenue_a += (2 * np.count_nonzero(collapsed) if variant == "decrement"
                      else size[~ties].sum())
        revenue_b = (np.count_nonzero(zero) - len(opens) + int(idle[-1]) - race_won
                     + paid[~won].sum())
    return float(revenue_a), float(revenue_b), occupancy


def simulate(config: SimConfig, *, workers: int = 1) -> SimResult:
    """Run the configured number of rounds and accumulate statistics.

    ``workers`` only selects how the independent chunks are executed; the
    merged result is bit-identical for any worker count.  Raises
    DivergentLead when alpha >= 1/2.
    """
    _require_minority(config.params.alpha)
    p_attacker, p_honest = round_success_probs(config.params)
    gamma = config.params.gamma

    def run_chunk(start: int) -> tuple[float, float, np.ndarray]:
        rng = _chunk_rng(config.seed, start // CHUNK_ROUNDS)
        a, b = _outcomes(rng.random(min(CHUNK_ROUNDS, config.rounds - start)),
                         p_attacker, p_honest)
        return _chunk(a, b, rng.random, gamma, config.accounting, config.variant)

    starts = range(0, config.rounds, CHUNK_ROUNDS)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_stats = list(pool.map(run_chunk, starts))
    else:
        chunk_stats = list(map(run_chunk, starts))

    revenue = np.array([stats[:2] for stats in chunk_stats])  # (batches, 2)
    revenue_a, revenue_b = revenue.sum(axis=0).tolist()

    width = max(len(stats[2]) for stats in chunk_stats)
    counts = np.zeros(width, dtype=np.int64)
    for stats in chunk_stats:
        counts[:len(stats[2])] += stats[2]

    total = revenue_a + revenue_b
    ratio = revenue_a / total if total > 0.0 else 0.0

    # the ratio estimator's error over the batch sums A_i and T_i = A_i + B_i
    stderr = 0.0
    if len(revenue) >= 2 and total > 0.0:
        spread = np.std(revenue[:, 0] - ratio * revenue.sum(axis=1), ddof=1)
        stderr = float(spread * math.sqrt(len(revenue)) / total)
    return SimResult(revenue_a=revenue_a, revenue_b=revenue_b, ratio=ratio, ratio_stderr=stderr,
                     occupancy=tuple((counts / config.rounds).tolist()))

