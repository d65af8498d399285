import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphopt import (
    BudgetExhaustedError,
    Graph,
    NoisyOracle,
    SAConfig,
    ValueTable,
    simulated_annealing,
)
from graphopt.oracle import ARRAY_DRAW_MIN


def make_oracle(**kw):
    return NoisyOracle(ValueTable(np.array([0.2, 0.5, 0.9])), **kw)


def test_true_mean_and_remaining():
    o = make_oracle(budget=10)
    assert o.values.value(1) == 0.5
    assert o.remaining == 10
    o.sample_mean(0, 1, np.random.default_rng(0))
    assert o.used == 1
    assert o.remaining == 9


def test_unlimited_budget():
    o = make_oracle()
    rng = np.random.default_rng(1)
    for _ in range(100):
        o.sample_mean(2, 1, rng)
    assert o.used == 100
    assert o.remaining is None


def test_bernoulli_sample_support():
    o = make_oracle()
    rng = np.random.default_rng(2)
    draws = {o.sample_mean(1, 1, rng)[0] for _ in range(200)}
    assert draws <= {0.0, 1.0}


def test_batched_mean_moments_match_singles():
    """One binomial draw per batch must look like k averaged singles."""
    o = make_oracle()
    rng = np.random.default_rng(3)
    k = 25
    batch = np.array([o.sample_mean(1, k, rng)[0] for _ in range(4000)])
    singles = np.array(
        [np.mean([o.sample_mean(1, 1, rng)[0] for _ in range(k)]) for _ in range(800)]
    )
    assert batch.mean() == pytest.approx(0.5, abs=0.01)
    assert singles.mean() == pytest.approx(0.5, abs=0.02)
    want_var = 0.5 * 0.5 / k
    assert batch.var() == pytest.approx(want_var, rel=0.1)
    assert singles.var() == pytest.approx(want_var, rel=0.25)
    # batch values live on the k-point lattice, same as averaged singles
    assert np.allclose(np.round(batch * k), batch * k)


def test_gaussian_noise_moments():
    o = NoisyOracle(ValueTable(np.array([1.5])), noise="gaussian", R=0.4)
    rng = np.random.default_rng(4)
    m, taken = o.sample_mean(0, 64, rng)
    assert taken == 64
    draws = np.array([o.sample_mean(0, 64, rng)[0] for _ in range(3000)])
    assert draws.mean() == pytest.approx(1.5, abs=0.01)
    assert draws.std() == pytest.approx(0.4 / 8.0, rel=0.1)


def test_meter_counts_batch_size():
    o = make_oracle(budget=100)
    rng = np.random.default_rng(5)
    o.sample_mean(0, 40, rng)
    assert o.used == 40


def test_partial_batch_at_the_cap():
    o = make_oracle(budget=10)
    rng = np.random.default_rng(6)
    _, taken = o.sample_mean(0, 7, rng)
    assert taken == 7
    _, taken = o.sample_mean(0, 7, rng)
    assert taken == 3  # only the remainder
    assert o.used == 10
    with pytest.raises(BudgetExhaustedError):
        o.sample_mean(0, 1, rng)
    with pytest.raises(BudgetExhaustedError):
        o.sample_means([0], 1, rng)


@pytest.mark.parametrize("count", [2.5, 0.0, math.nan, math.inf, "3", None, 0, -1])
def test_sample_means_refuses_a_count_that_is_not_whole(count):
    # 2.5 used to draw binomial(2), divide by 2.5 and meter 5.0
    o = make_oracle(budget=100)
    for xs in ([0, 1], []):
        with pytest.raises(ValueError, match="count must be a whole number >= 1"):
            o.sample_means(xs, count, np.random.default_rng(0))
    assert o.used == 0


def test_sample_means_takes_a_whole_count_of_another_type_as_its_int():
    seen = []
    for count in (4, 4.0, np.int64(4)):
        o = make_oracle()
        rng = np.random.default_rng(5)
        means, taken = o.sample_means([0, 1, 2], count, rng)
        seen.append(([m.hex() for m in means], taken, o.used, type(o.used), rng.random()))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][1:4] == ([4, 4, 4], 12, int)


def test_invalid_noise_name():
    with pytest.raises(ValueError):
        NoisyOracle(ValueTable(np.array([0.5])), noise="cauchy")


@pytest.mark.parametrize("noise", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
def test_non_finite_noise_scale_rejected(noise, R):
    with pytest.raises(ValueError, match="finite"):
        NoisyOracle(ValueTable(np.array([0.5])), noise=noise, R=R)


@pytest.mark.parametrize("noise", ["bernoulli", "gaussian"])
def test_maximize_negates_the_same_draws(noise):
    # the sense is applied after the draw: same stream, same meter
    calls = [(0, 1), (2, 7), (1, 1), (1, 40), (2, 1), (0, 3)]
    seen = []
    for maximize in (False, True):
        o = make_oracle(noise=noise, R=0.4, maximize=maximize)
        rng = np.random.default_rng(31)
        obs = [o.sample_mean(x, count, rng) for x, count in calls]
        seen.append((obs, o.used, rng.random()))
    (low, used_low, next_low), (high, used_high, next_high) = seen
    # hex compares bit for bit, so the sign of a zero counts
    assert [(float(m).hex(), k) for m, k in high] == [(float(-m).hex(), k) for m, k in low]
    assert used_high == used_low == 53
    assert next_high == next_low


def reference_sample_mean(oracle, x, count, rng):
    """Reference draw for one node: reserve up to ``count`` observations
    (a spent budget raises), then one closed-form draw on numpy scalars,
    negated after the draw under ``maximize``."""
    if count <= 0:
        raise ValueError("count must be >= 1")
    if oracle.budget is not None:
        count = min(count, oracle.budget - oracle.used)
        if count <= 0:
            raise BudgetExhaustedError(f"budget {oracle.budget} spent")
    oracle.used += count
    f = oracle.values.value(x)
    if oracle.noise == "bernoulli":
        mean = rng.binomial(count, f, None) / count
    else:
        mean = f + oracle.R / np.sqrt(count) * rng.standard_normal(None)
    return float(-mean if oracle.maximize else mean), count


def one_by_one(oracle, xs, count, rng):
    """reference_sample_mean over xs until the budget stops it, as two lists."""
    means, taken = [], []
    for x in xs:
        try:
            mean, k = reference_sample_mean(oracle, x, count, rng)
        except BudgetExhaustedError:
            if not taken:
                raise
            break
        means.append(mean)
        taken.append(k)
        if k < count:
            break
    return means, taken


def observe(oracle, call, xs, count, seed):
    rng = np.random.default_rng(seed)
    try:
        means, taken = call(oracle, xs, count, rng)
    except BudgetExhaustedError:
        means, taken = None, None
    # hex compares bit for bit, so the sign of a zero counts
    hexed = None if means is None else [float(m).hex() for m in means]
    return hexed, taken, oracle.used, rng.random()


@st.composite
def phase_cases(draw):
    values = draw(st.lists(st.floats(0, 1), min_size=1, max_size=8))
    # list lengths on both sides of the array-draw cutoff
    n = draw(st.integers(0, 3 * ARRAY_DRAW_MIN))
    xs = draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
    count = draw(st.integers(1, 9))
    used = draw(st.integers(0, 3))
    # the budget runs dry before the list, after j full batches, inside
    # batch j + 1, or not at all
    dry = draw(st.sampled_from(["before", "at", "inside", "never"]))
    j = draw(st.integers(0, n))
    budget = {
        "before": used,
        "at": used + j * count,
        "inside": used + j * count + draw(st.integers(0, count - 1)),
        "never": None,
    }[dry]
    return dict(
        values=values,
        xs=xs,
        count=count,
        noise=draw(st.sampled_from(["bernoulli", "gaussian"])),
        maximize=draw(st.booleans()),
        budget=budget,
        used=0 if budget is None else used,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=400, deadline=None)
@given(case=phase_cases())
def test_sample_means_equals_sample_mean_one_by_one(case):
    seen = []
    for call in (NoisyOracle.sample_means, one_by_one):
        o = NoisyOracle(
            ValueTable(np.array(case["values"])),
            noise=case["noise"],
            R=0.4,
            budget=case["budget"],
            maximize=case["maximize"],
        )
        o.used = case["used"]
        seen.append(observe(o, call, case["xs"], case["count"], case["seed"]))
    assert seen[0] == seen[1]


@st.composite
def wide_phase_cases(draw):
    # array-path phases at counts where numpy's binomial leaves its
    # inversion branch for BTPE (count * min(f, 1 - f) > 30)
    values = draw(st.lists(st.floats(0.2, 0.8), min_size=1, max_size=8))
    n = draw(st.integers(ARRAY_DRAW_MIN, 3 * ARRAY_DRAW_MIN))
    xs = draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
    count = draw(st.integers(30, 400))
    used = draw(st.integers(0, 3))
    # dry before the list, after j full batches, inside batch j + 1, or never;
    # j >= ARRAY_DRAW_MIN keeps a short phase on the array path
    dry = draw(st.sampled_from(["before", "at", "inside", "never"]))
    j = draw(st.integers(ARRAY_DRAW_MIN, n))
    budget = {
        "before": used,
        "at": used + j * count,
        "inside": used + j * count + draw(st.integers(1, count - 1)),
        "never": None,
    }[dry]
    return dict(
        values=values,
        xs=xs,
        count=count,
        noise=draw(st.sampled_from(["bernoulli", "gaussian"])),
        maximize=draw(st.booleans()),
        budget=budget,
        used=0 if budget is None else used,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(case=wide_phase_cases())
def test_array_phases_at_large_counts_equal_sample_mean_one_by_one(case):
    seen = []
    for call in (NoisyOracle.sample_means, one_by_one):
        o = NoisyOracle(
            ValueTable(np.array(case["values"])),
            noise=case["noise"],
            R=0.4,
            budget=case["budget"],
            maximize=case["maximize"],
        )
        o.used = case["used"]
        seen.append(observe(o, call, case["xs"], case["count"], case["seed"]))
    assert seen[0] == seen[1]


def test_sample_means_serves_a_prefix_then_raises():
    o = make_oracle(budget=5)
    rng = np.random.default_rng(7)
    means, taken = o.sample_means([0, 1, 2, 0, 1], 2, rng)
    assert taken == [2, 2, 1] and len(means) == 3
    with pytest.raises(BudgetExhaustedError):
        o.sample_means([0], 1, rng)
    with pytest.raises(BudgetExhaustedError):
        make_oracle(budget=0).sample_means([1] * ARRAY_DRAW_MIN, 3, rng)
    assert o.used == 5


def reference_annealing(g, oracle, x, cfg, rng):
    """Reference chain: each step estimates x and then y with one
    reference_sample_mean call each, and a spent budget stops the chain."""
    for _ in range(cfg.steps):
        nbrs = g.neighbors(x)
        y = nbrs[int(rng.integers(len(nbrs)))]
        try:
            fx, _ = reference_sample_mean(oracle, x, cfg.s, rng)
            fy, _ = reference_sample_mean(oracle, y, cfg.s, rng)
        except BudgetExhaustedError:
            break
        diff = fx - fy
        if diff >= 0 or rng.random() < math.exp(cfg.gamma * diff):
            x = y
    return x


@st.composite
def chain_cases(draw):
    n = draw(st.integers(2, 8))
    # a path keeps every node connected; extra edges vary the degrees
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    edges = [(i, i + 1) for i in range(n - 1)] + [(u, v) for u, v in extra if u != v]
    return dict(
        graph=Graph.from_edges(n, edges),
        values=draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)),
        x0=draw(st.integers(0, n - 1)),
        noise=draw(st.sampled_from(["bernoulli", "gaussian"])),
        maximize=draw(st.booleans()),
        # budgets that run dry at every point of a step, or never
        budget=draw(st.integers(0, 200)),
        cfg=SAConfig(
            gamma=draw(st.floats(0, 20)), s=draw(st.integers(1, 8)), steps=draw(st.integers(0, 120))
        ),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(case=chain_cases())
def test_simulated_annealing_draws_as_the_per_node_reference(case):
    seen = []
    for run in (simulated_annealing, reference_annealing):
        o = NoisyOracle(
            ValueTable(np.array(case["values"])),
            noise=case["noise"],
            R=0.4,
            budget=case["budget"],
            maximize=case["maximize"],
        )
        rng = np.random.default_rng(case["seed"])
        node = run(case["graph"], o, case["x0"], case["cfg"], rng)
        seen.append((node, o.used, rng.random()))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("budget", [math.nan, math.inf, 2.5, "3"])
def test_budget_must_be_whole(budget):
    with pytest.raises(ValueError, match="budget must be a whole number"):
        make_oracle(budget=budget)
    # a whole float is taken as an int
    whole = make_oracle(budget=4.0).budget
    assert whole == 4 and type(whole) is int
