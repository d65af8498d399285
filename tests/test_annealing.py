import math
import re
from fractions import Fraction

import numpy as np
import pytest

from graphopt import (
    Graph,
    NoisyOracle,
    SAConfig,
    ValueTable,
    make_plain_grid,
    sa_round_bound_convex,
    sa_round_bound_nearly,
    sa_step,
    sa_transition_probs,
    simulated_annealing,
    theory_sample_size,
)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_config_validation():
    with pytest.raises(ValueError):
        SAConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        SAConfig(gamma=1.0, s=0)
    with pytest.raises(ValueError):
        SAConfig(gamma=1.0, steps=-1)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_non_finite_gamma_rejected(gamma):
    with pytest.raises(ValueError, match="finite"):
        SAConfig(gamma=gamma)


@pytest.mark.parametrize(
    "gamma", [math.nan, math.inf, -1.0, 10**400], ids=["nan", "inf", "negative", "beyond-float"]
)
def test_transition_probs_refuse_a_bad_gamma(gamma):
    # SAConfig's rule, so the kernel cannot return a vector that does not sum to 1
    g, _ = make_plain_grid(2)
    with pytest.raises(ValueError, match=r"\bgamma must be finite and >= 0"):
        sa_transition_probs(g, [0.0] * g.n, 0, gamma)


def test_transition_rows_sum_to_one():
    g = cycle_graph(7)
    rng = np.random.default_rng(0)
    for _ in range(500):
        est = rng.normal(size=7)
        x = int(rng.integers(7))
        targets, probs = sa_transition_probs(g, est, x, gamma=3.0)
        assert targets[:-1] == list(g.neighbors(x))
        assert targets[-1] == x
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-12


def test_kernel_satisfies_detailed_balance():
    """On a regular graph the chain is reversible for pi ~ exp(-gamma f)."""
    g = cycle_graph(5)
    vals = np.array([0.1, 0.9, 0.4, 0.7, 0.2])
    gamma = 2.5
    P = np.zeros((5, 5))
    for x in range(5):
        targets, probs = sa_transition_probs(g, vals, x, gamma)
        for t, p in zip(targets, probs):
            P[x, t] += p
    pi = np.exp(-gamma * vals)
    pi /= pi.sum()
    flow = pi[:, None] * P
    assert np.allclose(flow, flow.T, atol=1e-14)


def test_uphill_acceptance_frequency():
    # two nodes, gamma * delta = 2.5, noiseless: accept rate e^{-2.5}
    g = Graph.from_edges(2, [(0, 1)])
    table = ValueTable(np.array([0.0, 0.25]))
    o = NoisyOracle(table, noise="gaussian", R=0.0)
    cfg = SAConfig(gamma=10.0, s=1, steps=1)
    rng = np.random.default_rng(42)
    reps = 20000
    moves = sum(sa_step(g, o, 0, cfg, rng) == 1 for _ in range(reps))
    want = math.exp(-2.5)
    sigma = math.sqrt(want * (1 - want) / reps)
    assert abs(moves / reps - want) < 3 * sigma


def test_downhill_always_accepted():
    g = Graph.from_edges(2, [(0, 1)])
    o = NoisyOracle(ValueTable(np.array([0.9, 0.1])), noise="gaussian", R=0.0)
    cfg = SAConfig(gamma=5.0, s=1, steps=1)
    rng = np.random.default_rng(1)
    assert all(sa_step(g, o, 0, cfg, rng) == 1 for _ in range(50))


def test_huge_gamma_blocks_uphill():
    g = Graph.from_edges(2, [(0, 1)])
    o = NoisyOracle(ValueTable(np.array([0.0, 0.1])), noise="gaussian", R=0.0)
    cfg = SAConfig(gamma=1e6, s=1, steps=1)
    rng = np.random.default_rng(2)
    assert all(sa_step(g, o, 0, cfg, rng) == 0 for _ in range(50))


def test_maximize_flips_the_direction():
    g = Graph.from_edges(2, [(0, 1)])
    o = NoisyOracle(ValueTable(np.array([0.1, 0.9])), noise="gaussian", R=0.0, maximize=True)
    cfg = SAConfig(gamma=1e6, s=1, steps=1)
    rng = np.random.default_rng(3)
    assert sa_step(g, o, 0, cfg, rng) == 1


@pytest.mark.parametrize("x", [-1, 25])
def test_step_refuses_a_node_out_of_range(x):
    # before any draw: -1 would otherwise step among node 24's neighbours
    g, table = make_plain_grid(2)
    o = NoisyOracle(table)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=rf"^node {x} out of range$"):
        sa_step(g, o, x, SAConfig(gamma=1.0, s=1, steps=1), rng)
    assert o.used == 0
    assert rng.random() == np.random.default_rng(0).random()


def test_run_meters_two_estimates_per_step():
    g = cycle_graph(9)
    o = NoisyOracle(ValueTable(np.linspace(0, 1, 9)))
    cfg = SAConfig(gamma=1.0, s=4, steps=25)
    simulated_annealing(g, o, 0, cfg, np.random.default_rng(4))
    assert o.used == 2 * 4 * 25


def test_budget_exhaustion_stops_the_chain():
    g = cycle_graph(9)
    o = NoisyOracle(ValueTable(np.linspace(0, 1, 9)), budget=37)
    cfg = SAConfig(gamma=1.0, s=4, steps=25)
    node = simulated_annealing(g, o, 0, cfg, np.random.default_rng(5))
    # 25 full steps would need 200 samples; the chain stops where it stands
    assert o.used == 37
    assert 0 <= node < 9


def test_theory_sample_size():
    assert theory_sample_size(1, 1.0, 0.5) == 1
    assert theory_sample_size(2, 10.0, 0.5) == 100
    # 2 r gamma^2 R^2 below one floors at a single sample
    assert theory_sample_size(1, 0.1, 0.1) == 1


@pytest.mark.parametrize("gamma, R", [(1e200, 1), (1.0, 1e200)])
def test_theory_sample_size_refuses_a_float_product_beyond_a_float(gamma, R):
    # math.ceil(inf) used to raise OverflowError
    with pytest.raises(ValueError, match=re.escape(f"gamma={gamma} and R={R} put")):
        theory_sample_size(2, gamma, R)


def test_theory_sample_size_of_a_zero_factor_beside_a_huge_float_is_one():
    # gamma^2 overflows to inf before R = 0 multiplies, which made nan
    assert theory_sample_size(2, 1e200, 0.0) == theory_sample_size(2, 10**200, 0) == 1
    assert theory_sample_size(0, 1e200, 1e200) == 1


def test_theory_sample_size_refuses_an_exact_factor_beyond_a_float_beside_a_float():
    # a float factor puts the product in floats, where 10**400 has no place
    with pytest.raises(ValueError, match="R must be finite as a float"):
        theory_sample_size(2, 1.0, 10**400)
    with pytest.raises(ValueError, match="gamma must be finite as a float"):
        theory_sample_size(2, Fraction(10**400), 0.5)


def test_theory_sample_size_stays_exact_on_ints_and_fractions():
    assert theory_sample_size(2, 10**200, 1) == 4 * 10**400
    assert theory_sample_size(2, Fraction(10**200), Fraction(1, 2)) == 10**400


def test_convex_round_bound():
    b = sa_round_bound_convex(alpha=0.3, d=9, eps=0.001, initial_gap=0.8)
    assert b.gamma == pytest.approx(9 / (math.e * 0.3 * 0.001))
    want_t = math.log(0.3 * 0.8 / (0.001 * 9)) / math.log(9 / (9 - 0.3))
    assert b.t_min == math.ceil(want_t)
    assert b.t_min == 97


def test_convex_round_bound_clamps_t_at_zero():
    # already inside the target accuracy: no rounds needed
    b = sa_round_bound_convex(alpha=0.3, d=9, eps=0.5, initial_gap=0.001)
    assert b.t_min == 0


def test_nearly_convex_round_bound():
    with pytest.warns(UserWarning):
        b = sa_round_bound_nearly(alpha=0.3, c=0.05, r=2, d=9, F=0.8)
    assert b.gamma == pytest.approx(20.0)
    assert b.beta == pytest.approx(1 - 0.3 * math.exp(-0.05 * 2 * 20.0) / 9**3)
    assert b.t_min == 56329
    assert b.final_bound == pytest.approx((3 / (0.3 * 20.0)) * 9**3 * math.e**2)


def test_nearly_convex_bound_quiet_when_informative():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = sa_round_bound_nearly(alpha=0.3, c=0.05, r=2, d=9, F=3000.0)
    assert b.final_bound <= 3000.0


def test_nearly_convex_bound_refuses_a_huge_r_without_the_power():
    # 9 ** (10**15 + 1) would take terabytes; (r+1) ln d > 40 refuses it first
    with pytest.raises(ValueError, match=r"r=1000000000000000 and d=9 make the bound vacuous"):
        sa_round_bound_nearly(alpha=0.3, c=0.05, r=10**15, d=9, F=3000.0)
    # r=10 is the largest that keeps beta below 1 at d=9
    with pytest.warns(UserWarning):
        assert sa_round_bound_nearly(alpha=0.3, c=0.05, r=10, d=9, F=3000.0).beta < 1.0


@pytest.mark.parametrize(
    "field, value", [("s", 1.5), ("s", math.nan), ("steps", 2.5), ("steps", math.inf)]
)
def test_config_counts_must_be_whole(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a whole number"):
        SAConfig(gamma=1.0, **{field: value})
    # a whole float is taken as an int
    assert getattr(SAConfig(gamma=1.0, **{field: 4.0}), field) == 4
