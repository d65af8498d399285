"""Fixed-budget best-arm identification by successive rejects.

Arms are indexed 0..K-1. A sampler serves one phase: any callable
``sampler(arms, count, rng) -> (means, taken)`` that pulls each listed arm
up to ``count`` times, in order, and returns per arm served the empirical
mean cost and the number of pulls taken. ``arms`` is a list or, in a
phase of at least ARRAY_DRAW_MIN arms, an ascending int64 array; ``means``
may be any sequence of floats, a float array included, and the library's
samplers return floats. Once an underlying budget runs dry it serves a
prefix of the list (full batches, then at most one partial one), and it
may raise BudgetExhaustedError, which counts as serving nothing. Means
are costs: the lowest wins and an arm never pulled counts as +inf.
``successive_reject`` calls its sampler once per phase that pulls, the one
phase of a budget B <= K included, and never at B = 0.
``NoisyOracle.sample_means`` is a sampler whose arms are its nodes.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .oracle import ARRAY_DRAW_MIN, BudgetExhaustedError, NoisyOracle
from .values import _as_float, _whole

Sampler = Callable[
    [Sequence[int], int, np.random.Generator], tuple[Sequence[float], Sequence[int]]
]


# log_bar sums its terms up to this K, and takes the asymptotic series above it
LOG_BAR_LOOP_MAX = 2**16
# K(K-1)/2 and K log_bar(K) stay finite floats for K below this
_ARMS_MAX = 1e154


def log_bar(K: int) -> float:
    """1/2 + sum_{i=2}^{K} 1/i, the normalizer of the phase budgets.

    Above LOG_BAR_LOOP_MAX this is H_K - 1/2 by the series
    ln K + gamma + 1/(2K) - 1/(12K^2) - 1/2, whose next term is below
    1e-20 there.
    """
    K = _whole("K", K, 2)
    if K > LOG_BAR_LOOP_MAX:
        return math.log(K) + np.euler_gamma + 1 / (2 * K) - 1 / (12 * K * K) - 0.5
    return 0.5 + sum(1.0 / i for i in range(2, K + 1))


@functools.lru_cache(maxsize=128, typed=True)
def budget_schedule(K: int, B: int) -> tuple[int, ...]:
    """Cumulative per-arm pull counts B_0 = 0 <= B_1 <= ... <= B_{K-1},
    with B_k = ceil((B - K) / (log_bar(K) * (K + 1 - k))).

    After phase k every surviving arm has been pulled B_k times in total;
    the grand total over all phases never exceeds the budget B. Memoised:
    every trial at one (K, B) needs the same schedule.
    """
    K = _whole("K", K, 2)
    B = _whole("B", B)
    _as_float("B", B)
    if B <= K:
        raise ValueError(f"budget {B} must exceed the number of arms {K}")
    lb = log_bar(K)
    cumulative = [0]
    for k in range(1, K):
        cumulative.append(math.ceil((B - K) / (lb * (K + 1 - k))))
    assert sum(cumulative) + cumulative[-1] <= B, "schedule overran its budget"
    return tuple(cumulative)


@functools.lru_cache(maxsize=128)
def _phases(K: int, B: int) -> tuple[tuple[int, int, int], ...]:
    """The phases of successive rejects that pull, as (survivors, pulls each
    holds, pulls each holds after): the one phase (min(K, B), 0, 1) when
    K == 1 or B <= K (none at B = 0), else those of budget_schedule(K, B)."""
    if K == 1 or B <= K:
        return ((min(K, B), 0, 1),) if B else ()
    c = budget_schedule(K, B)
    return tuple((K - k + 1, c[k - 1], c[k]) for k in range(1, K) if c[k] > c[k - 1])


def successive_reject(
    K: int, sampler: Sampler, B: int, rng: np.random.Generator
) -> int:
    """Best-arm guess among K arms within budget B, as an int.

    One loop runs the phases that pull, one sampler call each. With one
    arm, or a budget B <= K too small for eliminations, the only phase
    pulls arms 0..min(K, B)-1 once each, and at B = 0 arm 0 wins with no
    call. Otherwise they are the elimination phases of the schedule: each
    tops every survivor up to its cumulative pull count, then rejects the
    arm with the highest empirical mean (ties reject the higher index; an
    arm never pulled counts as +inf). A phase that would pull nothing is
    not visited: with the survivors ranked best first, its rejection only
    shortens the head. The first phase that comes back short (the sampler
    serves fewer arms or a partial last batch; a raise counts as serving
    none) is the last, since later eliminations would only drop arms
    ranked below its best. The head of the last ranking wins, ties to the
    lowest id.

    While at least ARRAY_DRAW_MIN arms survive, the survivors, their sums
    and their means are numpy arrays, and the sampler gets the survivors
    as an ascending int64 array and may return its means as a float
    array. At the first narrower phase, or a short one, they become lists;
    with K below ARRAY_DRAW_MIN they are lists throughout. Both do the
    same float operations and rank alike, so the winner and the draws do
    not depend on the switch.
    """
    K = _whole("K", K, 1)
    B = _whole("B", B, 0)
    # Arms ranked by (mean, arm), best first: a phase of `alive` survivors
    # keeps the first `alive` of them, so a rejection only shortens the head.
    wide = K >= ARRAY_DRAW_MIN
    if wide:
        ranked, sums, means = np.arange(K), np.zeros(K), np.full(K, math.inf)
    else:
        ranked, sums, means = list(range(K)), [0.0] * K, [math.inf] * K
    for alive, done, total in _phases(K, B):
        # every earlier phase came back full, so each survivor holds done pulls
        if wide and alive < ARRAY_DRAW_MIN:
            wide = False
            ranked, sums, means = ranked[:alive].tolist(), sums.tolist(), means.tolist()
        pulls = total - done
        arms = np.sort(ranked[:alive]) if wide else sorted(ranked[:alive])
        try:
            phase_means, taken = sampler(arms, pulls, rng)
        except BudgetExhaustedError:
            phase_means, taken = (), ()
        # only the last arm served may be short of its batch
        short = len(taken) != len(arms) or taken[-1] != pulls
        # a stable sort of ascending arms ranks ties by id
        if wide and not short:
            s = sums[arms] + np.asarray(phase_means, dtype=float) * pulls
            sums[arms] = s
            s /= total
            means[arms] = s
            ranked = arms[np.argsort(s, kind="stable")]
        else:
            if wide:
                arms, sums, means = arms.tolist(), sums.tolist(), means.tolist()
            # each arm served adds its taken pulls to the done it held
            for arm, mean, t in zip(arms, phase_means, taken):
                sums[arm] += mean * t
                if done + t:
                    means[arm] = sums[arm] / (done + t)
            ranked = sorted(arms, key=means.__getitem__)
        if short:
            break
    return int(ranked[0])


def oracle_sampler(oracle: NoisyOracle, arms: Sequence[int]) -> Sampler:
    """Adapt a NoisyOracle to the sampler protocol: ``arms[i]`` is the node
    behind arm i, and its cost is the observation, so the lowest observed
    value wins. An oracle built with ``maximize=True`` negates its
    observations, so there the highest value wins."""

    def pull(phase: Sequence[int], count: int, rng: np.random.Generator):
        if type(phase) is np.ndarray:  # a wide phase: map Python ints, not numpy scalars
            phase = phase.tolist()
        return oracle.sample_means([arms[a] for a in phase], count, rng)

    return pull


def hardness(gaps: Sequence[float]) -> float:
    """Problem hardness H = max_i i * Delta_(i)^(-2).

    ``gaps`` holds the K-1 positive suboptimality gaps of the non-best
    arms. The best arm enters the ranking with a pseudo-gap equal to the
    smallest of these before sorting ascending.
    """
    deltas = [_as_float("gaps", d, 0, strict=True) for d in gaps]
    if not deltas:
        raise ValueError("need at least one suboptimal arm gap")
    ranked = sorted([min(deltas)] + deltas)
    try:
        H = max((i + 1) / d**2 for i, d in enumerate(ranked))
    except ZeroDivisionError:  # a gap's square underflows to 0.0
        H = math.inf
    if H == math.inf:
        raise ValueError(f"gaps down to {ranked[0]} put H beyond a float")
    return H


def sr_error_bound(K: int, H: float, B: int) -> float:
    """Misidentification bound (K(K-1)/2) exp(-(B-K) / (log_bar(K) H)).

    Clamped to [0, 1]; budgets B <= K give the vacuous bound 1.
    """
    K = _whole("K", K, 2)
    _as_float("K", K, hi=_ARMS_MAX)
    H = _as_float("H", H, 0, strict=True)
    B = _whole("B", B)
    _as_float("B", B)
    if B <= K:
        return 1.0
    raw = (K * (K - 1) / 2.0) * math.exp(-(B - K) / (log_bar(K) * H))
    return min(1.0, raw)


def sr_bound_loose(n: int, delta1: float, B: int) -> float:
    """One-term bound (n(n-1)/2) exp(-(B-n) delta1^2 / (n log_bar(n)))."""
    n = _whole("n", n, 2)
    _as_float("n", n, hi=_ARMS_MAX)
    delta1 = _as_float("delta1", delta1, 0, strict=True)
    B = _whole("B", B)
    _as_float("B", B)
    if B <= n:
        return 1.0
    try:
        square = delta1**2
    except OverflowError:  # the exponent runs to -inf
        return 0.0
    raw = (n * (n - 1) / 2.0) * math.exp(-(B - n) * square / (n * log_bar(n)))
    return min(1.0, raw)
