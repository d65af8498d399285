import math

import numpy as np
import pytest

from graphopt import (
    BudgetExhaustedError,
    DescendConfig,
    Graph,
    NoisyOracle,
    ValueTable,
    default_restarts,
    descent_oracle,
    ed_error_bound,
    explore_descend,
    explore_descend_restarts,
    log_bar,
    make_plain_grid,
    restart_allocation,
)
from graphopt import grid_node_id


def bowl_instance(D=3):
    """Plain grid with f = squared radius, unique minimum at the center."""
    g, _ = make_plain_grid(D)
    from graphopt import grid_coords

    vals = np.array(
        [float(sum(c * c for c in grid_coords(i, D))) for i in range(g.n)]
    )
    return g, ValueTable(vals / vals.max())


def test_descent_oracle_noiseless_picks_best_neighbor():
    g, table = bowl_instance(3)
    o = NoisyOracle(table, noise="gaussian", R=0.0)
    rng = np.random.default_rng(0)
    corner = grid_node_id(-3, -3, 3)
    nxt = descent_oracle(g, o, corner, 50, rng)
    assert nxt == grid_node_id(-2, -2, 3)  # diagonal move descends fastest


def test_descent_oracle_requires_enough_budget():
    g, table = bowl_instance(3)
    o = NoisyOracle(table)
    rng = np.random.default_rng(1)
    center = grid_node_id(0, 0, 3)
    with pytest.raises(ValueError):
        descent_oracle(g, o, center, g.degree(center) + 1, rng)


def test_noiseless_descent_reaches_center():
    g, table = bowl_instance(3)
    o = NoisyOracle(table, noise="gaussian", R=0.0)
    rng = np.random.default_rng(2)
    cfg = DescendConfig.equal_split(400, 4)
    node = explore_descend(g, o, grid_node_id(-3, -3, 3), cfg, rng)
    assert node == grid_node_id(0, 0, 3)
    assert table.gap_to_best(node) == 0.0
    assert o.used <= 400


def test_tail_merge_when_rounds_fall_short():
    g, table = bowl_instance(3)
    o = NoisyOracle(table, noise="gaussian", R=0.0)
    rng = np.random.default_rng(3)
    # per-round slice of 4 cannot cover a corner's 4 arms; merged it can
    cfg = DescendConfig((4, 4, 4, 4))
    node = explore_descend(g, o, grid_node_id(-3, -3, 3), cfg, rng)
    assert node != grid_node_id(-3, -3, 3)
    assert o.used <= 16


def test_budget_below_first_round_keeps_start():
    g, table = bowl_instance(3)
    o = NoisyOracle(table, noise="gaussian", R=0.0)
    rng = np.random.default_rng(4)
    start = grid_node_id(0, 0, 3)  # degree 8, needs 10 samples
    node = explore_descend(g, o, start, DescendConfig((5,)), rng)
    assert node == start
    assert o.used == 0


def test_restart_rules():
    assert default_restarts(999) == 1
    assert default_restarts(1000) == 2
    assert default_restarts(3000) == 4
    assert restart_allocation(3000) == (4, 750)
    assert restart_allocation(2000, restarts=5) == (5, 400)
    with pytest.raises(ValueError):
        restart_allocation(3, restarts=5)


def test_single_restart_delegates_verbatim():
    g, table = bowl_instance(3)
    o1 = NoisyOracle(table, budget=600)
    o2 = NoisyOracle(table, budget=600)
    r1 = np.random.default_rng(123)
    r2 = np.random.default_rng(123)
    a = explore_descend_restarts(g, o1, 600, r1, path_len=4, restarts=1)
    start = int(np.random.default_rng(123).integers(g.n))
    # replay by hand: one uniform start then a plain descent
    b = explore_descend(g, o2, int(r2.integers(g.n)), DescendConfig.equal_split(600, 4), r2)
    assert a == b
    assert o1.used == o2.used


def test_restart_budgets_never_overspend():
    g, table = bowl_instance(3)
    o = NoisyOracle(table, budget=3000)
    rng = np.random.default_rng(5)
    node = explore_descend_restarts(g, o, 3000, rng)
    assert 0 <= node < g.n
    assert o.used <= 3000


def double_well():
    """Path graph with a shallow left pit and a deep right pit."""
    n = 20
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    vals = np.array(
        [((i - 2) ** 2) / 40.0 if i < 10 else ((i - 17) ** 2 - 5.0) / 40.0 for i in range(n)]
    )
    return g, ValueTable(vals)


def restarts_one_by_one(g, oracle, budget, rng, path_len, restarts):
    """Reference: explore_descend_restarts re-estimating the finals with
    one sample_mean call each, stopping when the oracle runs dry."""
    r, per_restart = restart_allocation(budget, restarts)
    eval_per = max(1, (budget // 20) // r)
    cfg = DescendConfig.equal_split(per_restart - eval_per, path_len)
    finals = [explore_descend(g, oracle, int(rng.integers(g.n)), cfg, rng) for _ in range(r)]
    best_node, best_est = finals[0], None
    for node in finals:
        try:
            est, _ = oracle.sample_mean(node, eval_per, rng)
        except BudgetExhaustedError:
            break
        if best_est is None or est < best_est or (est == best_est and node < best_node):
            best_node, best_est = node, est
    return best_node


@pytest.mark.parametrize("seed", range(4))
def test_restart_reestimation_runs_dry_like_the_one_by_one_loop(seed):
    # 8 restarts of a 960 budget reserve 8 batches of 6 for re-estimation;
    # caps from the descents' use up to full cover every place it runs dry
    g, table = double_well()
    full = NoisyOracle(table, noise="gaussian", R=0.05)
    explore_descend_restarts(g, full, 960, np.random.default_rng(seed), path_len=8, restarts=8)
    for cap in range(full.used - 48, full.used + 1):
        seen = []
        for run in (explore_descend_restarts, restarts_one_by_one):
            o = NoisyOracle(table, noise="gaussian", R=0.05, budget=cap)
            rng = np.random.default_rng(seed)
            node = run(g, o, 960, rng, path_len=8, restarts=8)
            seen.append((node, o.used, rng.random()))
        assert seen[0] == seen[1]


def test_restarts_escape_the_wrong_valley():
    g, table = double_well()
    hits_single, hits_multi = 0, 0
    trials = 60
    for t in range(trials):
        o1 = NoisyOracle(table, noise="gaussian", R=0.05, budget=960)
        o2 = NoisyOracle(table, noise="gaussian", R=0.05, budget=960)
        node1 = explore_descend_restarts(
            g, o1, 960, np.random.default_rng((7, t)), path_len=8, restarts=1
        )
        node8 = explore_descend_restarts(
            g, o2, 960, np.random.default_rng((7, t)), path_len=8, restarts=8
        )
        hits_single += table.gap_to_best(node1) == 0.0
        hits_multi += table.gap_to_best(node8) == 0.0
    assert hits_multi > hits_single
    assert hits_multi >= 0.9 * trials


def test_ed_error_bound_matches_formula():
    d, T, gap = 8, 500, 0.5
    want = (d * (d - 1) / 2) * 4 * math.exp(-(T - d) * gap * gap / (d * log_bar(d)))
    got = ed_error_bound(d, [T] * 4, [gap] * 4)
    assert got == pytest.approx(min(1.0, want))
    assert got < 1.0


def test_ed_error_bound_clamps_and_validates():
    assert ed_error_bound(8, [50], [0.1]) == 1.0
    with pytest.raises(ValueError):
        ed_error_bound(1, [50], [0.1])
    with pytest.raises(ValueError):
        ed_error_bound(8, [50, 50], [0.1])
    with pytest.raises(ValueError):
        ed_error_bound(8, [50], [0.0])


@pytest.mark.parametrize("schedule", [(2.5, 3), (4, math.nan), (math.inf,), ("7",)])
def test_round_budgets_must_be_whole(schedule):
    with pytest.raises(ValueError, match="round budget must be a whole number"):
        DescendConfig(schedule)
    assert DescendConfig((4.0, 3)).schedule == (4, 3)
