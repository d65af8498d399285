"""Fixed-budget best-arm identification by successive rejects.

Arms are indexed 0..K-1. A sampler serves one phase: any callable
``sampler(arms, count, rng) -> (means, taken)`` that pulls each listed arm
up to ``count`` times, in order, and returns per arm served the empirical
mean and the number of pulls taken. Once an underlying budget runs dry it
serves a prefix of the list (full batches, then at most one partial one),
and it may raise BudgetExhaustedError when nothing is left. The algorithm
picks the highest reward; ``oracle_sampler`` negates observations, which
the optimizers minimize, into rewards.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .oracle import BudgetExhaustedError, NoisyOracle, _finite, _whole

Sampler = Callable[
    [Sequence[int], int, np.random.Generator], tuple[Sequence[float], Sequence[int]]
]


def log_bar(K: int) -> float:
    """1/2 + sum_{i=2}^{K} 1/i, the normalizer of the phase budgets."""
    K = _whole("K", K, 2)
    return 0.5 + sum(1.0 / i for i in range(2, K + 1))


@dataclass(frozen=True)
class BudgetSchedule:
    """Cumulative per-arm pull counts B_0 <= B_1 <= ... <= B_{K-1}.

    After phase k every surviving arm has been pulled B_k times in total;
    the grand total over all phases never exceeds the budget B.
    """

    K: int
    B: int
    cumulative: tuple[int, ...]

    def phase_pulls(self, k: int) -> int:
        """Fresh pulls per surviving arm in phase k (1-based)."""
        if not 1 <= k <= self.K - 1:
            raise ValueError(f"phase k must be in 1..{self.K - 1}")
        return self.cumulative[k] - self.cumulative[k - 1]

    def total_pulls(self) -> int:
        return sum(self.cumulative[1:]) + self.cumulative[-1]


@functools.lru_cache(maxsize=128, typed=True)
def budget_schedule(K: int, B: int) -> BudgetSchedule:
    """Phase schedule B_k = ceil((B - K) / (log_bar(K) * (K + 1 - k))).

    Memoised: the schedule is frozen, and every trial at one (K, B) needs
    the same one.
    """
    K = _whole("K", K, 2)
    B = _whole("B", B)
    if B <= K:
        raise ValueError(f"budget {B} must exceed the number of arms {K}")
    lb = log_bar(K)
    cumulative = [0]
    for k in range(1, K):
        cumulative.append(math.ceil((B - K) / (lb * (K + 1 - k))))
    sched = BudgetSchedule(K, B, tuple(cumulative))
    assert sched.total_pulls() <= B, "schedule overran its budget"
    return sched


def successive_reject(
    K: int, sampler: Sampler, B: int, rng: np.random.Generator
) -> int:
    """Best-arm guess after K-1 elimination phases within budget B.

    Each phase tops every surviving arm up to the schedule's cumulative
    pull count, then rejects the arm with the worst empirical mean (ties
    reject the higher index; an arm never pulled counts as -inf). If the
    sampler's source dries up mid-run the remaining eliminations use the
    means collected so far.
    """
    cumulative = budget_schedule(K, B).cumulative
    sums = [0.0] * K
    counts = [0] * K
    means = [-math.inf] * K
    # Survivors ranked by (mean, -arm), best first, so the next arm to
    # reject is always the last one. Means change only in phases that
    # pull, so the ranking is rebuilt only there.
    order = list(range(K))
    exhausted = False
    for k in range(1, K):
        pulls = cumulative[k] - cumulative[k - 1]
        if pulls > 0 and not exhausted:
            arms = sorted(order)
            try:
                phase_means, taken = sampler(arms, pulls, rng)
            except BudgetExhaustedError:
                phase_means, taken = (), ()
            exhausted = len(taken) < len(arms)
            for arm, mean, t in zip(arms, phase_means, taken):
                sums[arm] += float(mean) * t
                counts[arm] += t
                if counts[arm]:
                    means[arm] = sums[arm] / counts[arm]
                if t < pulls:
                    exhausted = True
                    break
            # a stable descending sort of ascending arms ranks ties by id
            order = sorted(arms, key=means.__getitem__, reverse=True)
        order.pop()
    return order[0]


def uniform_best_arm(
    K: int, sampler: Sampler, B: int, rng: np.random.Generator
) -> int:
    """Best-arm guess for budgets B <= K, too small for eliminations.

    Pulls arms 0,1,2,... once each until the budget stops the sweep, then
    returns the best empirical mean (ties to the lowest id). This is the
    first elimination phase truncated by exhaustion.
    """
    try:
        phase_means, _ = sampler(range(min(K, B)), 1, rng)
    except BudgetExhaustedError:
        phase_means = ()
    best_arm = 0
    best_mean = -math.inf
    for arm, mean in enumerate(phase_means):
        if mean > best_mean:
            best_mean = mean
            best_arm = arm
    return best_arm


def oracle_sampler(oracle: NoisyOracle, arms: Sequence[int]) -> Sampler:
    """Adapt a NoisyOracle to the sampler protocol.

    ``arms[i]`` is the node behind arm i, and its reward is the negated
    observation, so the lowest observed value wins. An oracle built with
    ``maximize=True`` already negates, so there the highest value wins.
    """

    def pull(phase: Sequence[int], count: int, rng: np.random.Generator):
        means, taken = oracle.sample_means([arms[a] for a in phase], count, rng)
        return [-m for m in means], taken

    return pull


def bernoulli_sampler(means: Sequence[float]) -> Sampler:
    """Unmetered Bernoulli arms with the given success probabilities."""
    p = np.asarray(means, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("bernoulli means must lie in [0, 1]")

    def pull(phase: Sequence[int], count: int, rng: np.random.Generator):
        return [float(rng.binomial(count, p[a])) / count for a in phase], [count] * len(phase)

    return pull


def hardness(gaps: Sequence[float]) -> float:
    """Problem hardness H = max_i i * Delta_(i)^(-2).

    ``gaps`` holds the K-1 positive suboptimality gaps of the non-best
    arms. The best arm enters the ranking with a pseudo-gap equal to the
    smallest of these before sorting ascending.
    """
    deltas = [float(_finite("gaps", d, 0, strict=True)) for d in gaps]
    if not deltas:
        raise ValueError("need at least one suboptimal arm gap")
    ranked = sorted([min(deltas)] + deltas)
    return max((i + 1) / d**2 for i, d in enumerate(ranked))


def sr_error_bound(K: int, H: float, B: int) -> float:
    """Misidentification bound (K(K-1)/2) exp(-(B-K) / (log_bar(K) H)).

    Clamped to [0, 1]; budgets B <= K give the vacuous bound 1.
    """
    K = _whole("K", K, 2)
    _finite("H", H, 0, strict=True)
    B = _whole("B", B)
    if B <= K:
        return 1.0
    raw = (K * (K - 1) / 2.0) * math.exp(-(B - K) / (log_bar(K) * H))
    return min(1.0, raw)


def sr_bound_loose(n: int, delta1: float, B: int) -> float:
    """One-term bound (n(n-1)/2) exp(-(B-n) delta1^2 / (n log_bar(n)))."""
    n = _whole("n", n, 2)
    _finite("delta1", delta1, 0, strict=True)
    B = _whole("B", B)
    if B <= n:
        return 1.0
    raw = (n * (n - 1) / 2.0) * math.exp(-(B - n) * delta1**2 / (n * log_bar(n)))
    return min(1.0, raw)
