import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphopt import (
    BudgetExhaustedError,
    NoisyOracle,
    ValueTable,
)
from graphopt.oracle import ARRAY_DRAW_MIN


def make_oracle(**kw):
    return NoisyOracle(ValueTable(np.array([0.2, 0.5, 0.9])), **kw)


def test_true_mean_and_remaining():
    o = make_oracle(budget=10)
    assert o.values.value(1) == 0.5
    assert o.remaining == 10
    o.sample(0, np.random.default_rng(0))
    assert o.used == 1
    assert o.remaining == 9


def test_unlimited_budget():
    o = make_oracle()
    rng = np.random.default_rng(1)
    for _ in range(100):
        o.sample(2, rng)
    assert o.used == 100
    assert o.remaining is None


def test_bernoulli_sample_support():
    o = make_oracle()
    rng = np.random.default_rng(2)
    draws = {o.sample(1, rng) for _ in range(200)}
    assert draws <= {0.0, 1.0}


def test_batched_mean_moments_match_singles():
    """One binomial draw per batch must look like k averaged singles."""
    o = make_oracle()
    rng = np.random.default_rng(3)
    k = 25
    batch = np.array([o.sample_mean(1, k, rng)[0] for _ in range(4000)])
    singles = np.array(
        [np.mean([o.sample(1, rng) for _ in range(k)]) for _ in range(800)]
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
        o.sample(0, rng)


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
        obs = [
            (o.sample(x, rng), 1) if count == 1 else o.sample_mean(x, count, rng)
            for x, count in calls
        ]
        seen.append((obs, o.used, rng.random()))
    (low, used_low, next_low), (high, used_high, next_high) = seen
    # hex compares bit for bit, so the sign of a zero counts
    assert [(float(m).hex(), k) for m, k in high] == [(float(-m).hex(), k) for m, k in low]
    assert used_high == used_low == 53
    assert next_high == next_low


def one_by_one(oracle, xs, count, rng):
    """sample_mean over xs until the budget stops it, as two lists."""
    means, taken = [], []
    for x in xs:
        try:
            mean, k = oracle.sample_mean(x, count, rng)
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
