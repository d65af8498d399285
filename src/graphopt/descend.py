"""Budgeted local descent: hill-climbing whose one-step move is a best-arm
identification over the closed neighborhood, plus a restart wrapper and the
closed-form error bound for the descent path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandit import log_bar, oracle_sampler, successive_reject
from .graphs import Graph
from .oracle import BudgetExhaustedError, NoisyOracle, _finite, _whole


@dataclass(frozen=True)
class DescendConfig:
    """Round budgets for one descent run.

    ``schedule`` holds the per-round sample budgets T_1..T_S. A round at
    node x needs at least deg(x)+2 samples to be meaningful; the runner
    merges rounds from the tail of the schedule when one falls short.
    The descent minimizes what the oracle observes.
    """

    schedule: tuple[int, ...]

    def __post_init__(self):
        schedule = tuple(_whole("round budget", t, 1) for t in self.schedule)
        object.__setattr__(self, "schedule", schedule)

    @staticmethod
    def equal_split(budget: int, rounds: int) -> "DescendConfig":
        """Schedule of ``rounds`` equal budgets floor(budget/rounds)."""
        budget, rounds = _whole("budget", budget), _whole("rounds", rounds, 1)
        per = budget // rounds
        if per < 1:
            raise ValueError(f"budget {budget} too small for {rounds} rounds")
        return DescendConfig((per,) * rounds)


def descent_oracle(
    g: Graph,
    oracle: NoisyOracle,
    x: int,
    round_budget: int,
    rng: np.random.Generator,
) -> int:
    """One descent move: best arm among {x} and its neighbors.

    Arm 0 is x itself (so ties favor staying put), arms 1.. are the
    neighbors in ascending id order. Pulling an arm draws one noisy
    sample of that node, and the lowest observed mean wins. Returns the
    winning node. If the oracle runs dry mid-round the current empirical
    winner is returned.
    """
    arms = (x,) + g.neighbors(x)
    K = len(arms)
    if round_budget <= K:
        raise ValueError(f"round budget {round_budget} must exceed deg(x)+1 = {K}")
    sampler = oracle_sampler(oracle, arms)
    return arms[successive_reject(K, sampler, round_budget, rng)]


def explore_descend(
    g: Graph,
    oracle: NoisyOracle,
    x0: int,
    cfg: DescendConfig,
    rng: np.random.Generator,
) -> int:
    """Follow descent_oracle moves through the round schedule and return
    the final node.

    Rounds too small for the current node's neighborhood absorb budgets
    from the tail of the schedule; if even the merged remainder is too
    small, or the oracle is exhausted, the walk stops where it stands.
    """
    if not 0 <= x0 < g.n:
        raise ValueError(f"start node {x0} out of range")
    x = x0
    pending = list(cfg.schedule)
    while pending:
        t = pending.pop(0)
        needed = g.degree(x) + 2
        while t < needed and pending:
            t += pending.pop()
        if t < needed:
            break
        if oracle.remaining == 0:
            break
        x = descent_oracle(g, oracle, x, t, rng)
    return x


def default_restarts(budget: int) -> int:
    """Restart count rule 1 + budget/1000 (integer division)."""
    return 1 + _whole("budget", budget, 0) // 1000


def restart_allocation(budget: int, restarts: int | None = None) -> tuple[int, int]:
    """(restart count, per-restart budget) under the equal-split rule."""
    budget = _whole("budget", budget, 0)
    r = default_restarts(budget) if restarts is None else _whole("restarts", restarts, 1)
    if budget < r:
        raise ValueError(f"budget {budget} cannot cover {r} restarts")
    return r, budget // r


def explore_descend_restarts(
    g: Graph,
    oracle: NoisyOracle,
    budget: int,
    rng: np.random.Generator,
    path_len: int = 4,
    restarts: int | None = None,
) -> int:
    """Independent uniform-start descents sharing the budget equally;
    returns the chosen terminal node.

    With one restart this is exactly explore_descend on a uniform start.
    With several, each restart's share reserves its slice of 5% of the
    total budget; after all descents finish, every terminal node is
    re-estimated with that reserve and the lowest estimate wins (ties to
    the lowest node id).
    """
    budget = _whole("budget", budget, 0)
    r, per_restart = restart_allocation(budget, restarts)
    path_len = _whole("path_len", path_len, 1)

    def start() -> int:
        return int(rng.integers(g.n))

    if r == 1:
        cfg = DescendConfig.equal_split(budget, path_len)
        return explore_descend(g, oracle, start(), cfg, rng)

    eval_per = max(1, (budget // 20) // r)
    descend_per = per_restart - eval_per
    if descend_per < path_len:
        raise ValueError(f"budget {budget} too small for {r} restarts of {path_len} rounds")
    cfg = DescendConfig.equal_split(descend_per, path_len)

    finals: list[int] = []
    for _ in range(r):
        finals.append(explore_descend(g, oracle, start(), cfg, rng))

    # a dry oracle re-estimates only a prefix of the finals
    try:
        ests, _ = oracle.sample_means(finals, eval_per, rng)
    except BudgetExhaustedError:
        ests = []
    best_node = finals[0]
    best_est = None
    for node, est in zip(finals, ests):
        if best_est is None or est < best_est or (est == best_est and node < best_node):
            best_est = est
            best_node = node
    return best_node


def ed_error_bound(d: int, schedule, per_round_smallest_gaps) -> float:
    """Misidentification bound for a descent path on a d-regular graph.

    (d(d-1)/2) * sum_s exp(-(T_s - d) * gap_s^2 / (d * log_bar(d))),
    clamped to [0, 1]. ``per_round_smallest_gaps`` supplies the smallest
    arm gap at each visited node, one per round of the schedule (under
    noise the realized path is random, so the caller chooses the gaps).
    """
    d = _whole("d", d, 2)
    schedule = [_whole("round budget", t) for t in schedule]
    gaps = [float(_finite("gaps", x, 0, strict=True)) for x in per_round_smallest_gaps]
    if len(schedule) != len(gaps):
        raise ValueError("schedule and gap lists must have equal length")
    lb = log_bar(d)
    total = sum(
        math.exp(-(t - d) * gap * gap / (d * lb)) for t, gap in zip(schedule, gaps)
    )
    return min(1.0, (d * (d - 1) / 2.0) * total)
