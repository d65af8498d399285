"""Budgeted local descent: hill-climbing whose one-step move is a best-arm
identification over the closed neighborhood, plus a restart wrapper and the
closed-form error bound for the descent path.
"""

from __future__ import annotations

import math

import numpy as np

from .bandit import _ARMS_MAX, log_bar, oracle_sampler, successive_reject
from .graphs import Graph
from .oracle import BudgetExhaustedError, NoisyOracle
from .values import _as_float, _node, _whole


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
    x = _node("node", x, g.n)
    round_budget = _whole("round budget", round_budget, 1)
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
    schedule,
    rng: np.random.Generator,
) -> int:
    """Follow descent_oracle moves through the round schedule and return
    the final node.

    ``schedule`` holds the per-round sample budgets T_1..T_S. A round at
    node x needs at least deg(x)+2 samples to be meaningful; rounds too
    small for the current node's neighborhood absorb budgets from the tail
    of the schedule. If even the merged remainder is too small, or the
    oracle is exhausted, the walk stops where it stands.
    """
    pending = [_whole("round budget", t, 1) for t in schedule]
    x = _node("start node", x0, g.n)
    while pending:
        t = pending.pop(0)
        needed = g.degree(x) + 2
        while t < needed and pending:
            t += pending.pop()
        if t < needed or oracle.remaining == 0:
            break
        x = descent_oracle(g, oracle, x, t, rng)
    return x


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

    The budget B splits into r = 1 + B // 1000 restarts unless
    ``restarts`` gives r. With several restarts each keeps
    eval_per = max(1, (B // 20) // r) samples (together about 5% of B) to
    re-estimate its terminal node; with one it keeps none. The rest of its
    share is path_len equal rounds of (B // r - eval_per) // path_len
    samples, and a budget that leaves a round empty is refused.

    With one restart this is exactly explore_descend on a uniform start.
    With several, after all descents finish every terminal node is
    re-estimated with eval_per samples and the lowest estimate wins (ties
    to the lowest node id).
    """
    budget = _whole("budget", budget, 0)
    r = 1 + budget // 1000 if restarts is None else _whole("restarts", restarts, 1)
    path_len = _whole("path_len", path_len, 1)
    eval_per = 0 if r == 1 else max(1, (budget // 20) // r)
    per_round = (budget // r - eval_per) // path_len
    if per_round < 1:
        raise ValueError(f"budget {budget} too small for {r} restarts of {path_len} rounds")
    schedule = (per_round,) * path_len
    finals = [explore_descend(g, oracle, int(rng.integers(g.n)), schedule, rng) for _ in range(r)]
    if r == 1:
        return finals[0]

    # a dry oracle re-estimates only a prefix of the finals
    try:
        ests, _ = oracle.sample_means(finals, eval_per, rng)
    except BudgetExhaustedError:
        ests = []
    return min(zip(ests, finals), default=(None, finals[0]))[1]


def ed_error_bound(d: int, schedule, per_round_smallest_gaps) -> float:
    """Misidentification bound for a descent path on a d-regular graph.

    (d(d-1)/2) * sum_s exp(-(T_s - d) * gap_s^2 / (d * log_bar(d))),
    clamped to [0, 1]. ``per_round_smallest_gaps`` supplies the smallest
    arm gap at each visited node, one per round of the schedule (under
    noise the realized path is random, so the caller chooses the gaps).
    """
    d = _whole("d", d, 2)
    _as_float("d", d, hi=_ARMS_MAX)
    schedule = [_whole("round budget", t) for t in schedule]
    for t in schedule:
        _as_float("schedule", t)
    gaps = [_as_float("gaps", x, 0, strict=True) for x in per_round_smallest_gaps]
    if len(schedule) != len(gaps):
        raise ValueError("schedule and gap lists must have equal length")
    # a round of t <= d adds a term of at least 1, and d(d-1)/2 >= 1
    if any(t <= d for t in schedule):
        return 1.0
    lb = log_bar(d)
    total = sum(
        math.exp(-(t - d) * gap * gap / (d * lb)) for t, gap in zip(schedule, gaps)
    )
    return min(1.0, (d * (d - 1) / 2.0) * total)
