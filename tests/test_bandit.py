import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphopt import (
    DistanceCache,
    ExperimentConfig,
    Graph,
    GridSpec,
    NoisyOracle,
    Path,
    PointSet,
    QueryResult,
    SAConfig,
    ValueTable,
    budget_schedule,
    certify_nearly_convex,
    certify_strongly_convex,
    default_rounds,
    descent_oracle,
    ed_error_bound,
    exact_nn_all,
    explore_descend,
    explore_descend_restarts,
    hardness,
    log_bar,
    make_knn_graph,
    make_plain_grid,
    oracle_sampler,
    random_walk,
    recall_at_k,
    sa_round_bound_convex,
    sa_round_bound_nearly,
    sa_step,
    sa_transition_probs,
    sgnn_query,
    simulated_annealing,
    smoothed_sa_search,
    sr_bound_loose,
    sr_error_bound,
    successive_reject,
    theory_sample_size,
)
from graphopt.bandit import LOG_BAR_LOOP_MAX
from graphopt.oracle import ARRAY_DRAW_MIN, BudgetExhaustedError
from references import bernoulli_sampler, lemma1_gap_bound


def test_log_bar_values():
    assert log_bar(2) == pytest.approx(1.0)
    assert log_bar(3) == pytest.approx(0.5 + 0.5 + 1.0 / 3.0)
    assert log_bar(10) == pytest.approx(0.5 + sum(1.0 / i for i in range(2, 11)))


def test_log_bar_series_matches_the_sum_at_the_cutoff():
    # the loop runs up to the cutoff and the series takes over just above it
    for K in (LOG_BAR_LOOP_MAX, LOG_BAR_LOOP_MAX + 1):
        want = math.fsum([0.5] + [1.0 / i for i in range(2, K + 1)])
        assert log_bar(K) == pytest.approx(want, rel=1e-12, abs=0)
    assert log_bar(LOG_BAR_LOOP_MAX) == 0.5 + sum(1.0 / i for i in range(2, LOG_BAR_LOOP_MAX + 1))


def test_bounds_on_a_huge_arm_count_finish_or_refuse_by_name():
    # log_bar used to loop K times, so K = 10**12 alone ran for hours
    t0 = time.perf_counter()
    assert sr_error_bound(10**12, 1.0, 10**12 + 1) == 1.0
    assert ed_error_bound(10**9, [1], [0.5]) == 1.0
    for bound, args, name in [
        (ed_error_bound, (10**400, [1], [0.5]), "d"),
        (sr_error_bound, (10**200, 1.0, 10**201), "K"),
        (sr_bound_loose, (10**200, 0.5, 10**201), "n"),
    ]:
        with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
            bound(*args)
    assert time.perf_counter() - t0 < 1.0


def total_pulls(cumulative):
    """Pulls a schedule spends in all: each arm rejected after phase k got
    B_k, and the two finalists each got B_{K-1}."""
    return sum(cumulative) + cumulative[-1]


def test_schedule_worked_example():
    s = budget_schedule(3, 25)
    # B_k = ceil((B-K)/logbar(K)/(K+1-k)): 22/(4/3)/3 -> 6, 22/(4/3)/2 -> 9
    assert s == (0, 6, 9)
    assert [b - a for a, b in zip(s, s[1:])] == [6, 3]  # fresh pulls per phase
    assert total_pulls(s) == 6 * 3 + 3 * 2
    assert total_pulls(s) <= 25


def test_schedule_second_example():
    s = budget_schedule(4, 49)
    assert s == (0, 8, 10, 15)
    assert total_pulls(s) == 48


def test_schedule_rejects_tiny_budget():
    with pytest.raises(ValueError):
        budget_schedule(5, 5)
    with pytest.raises(ValueError):
        budget_schedule(1, 100)


def test_schedule_is_memoised():
    s = budget_schedule(441, 1000)
    assert budget_schedule(441, 1000) is s
    assert s == budget_schedule.__wrapped__(441, 1000)
    for _ in range(2):  # a refusal is not cached away
        with pytest.raises(ValueError):
            budget_schedule(5, 5)


@settings(max_examples=200, deadline=None)
@given(K=st.integers(2, 40), extra=st.integers(1, 5000))
def test_schedule_never_overspends(K, extra):
    B = K + extra
    s = budget_schedule(K, B)
    assert total_pulls(s) <= B
    assert all(b >= a for a, b in zip(s, s[1:]))


def test_zero_noise_always_finds_best():
    means = [0.1, 0.9, 0.4, 0.2]
    o = NoisyOracle(ValueTable(np.array(means)), noise="gaussian", R=0.0, maximize=True)
    sampler = oracle_sampler(o, [0, 1, 2, 3])
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert successive_reject(4, sampler, 60, rng) == 1


def test_zero_noise_minimization_via_sign():
    means = [0.1, 0.9, 0.4, 0.2]
    o = NoisyOracle(ValueTable(np.array(means)), noise="gaussian", R=0.0)
    sampler = oracle_sampler(o, [0, 1, 2, 3])
    rng = np.random.default_rng(0)
    assert successive_reject(4, sampler, 60, rng) == 0


def test_tie_rejects_higher_index():
    # all arms identical and noiseless: phases discard the highest index
    o = NoisyOracle(ValueTable(np.array([0.5, 0.5, 0.5])), noise="gaussian", R=0.0)
    sampler = oracle_sampler(o, [0, 1, 2])
    rng = np.random.default_rng(1)
    assert successive_reject(3, sampler, 30, rng) == 0


def test_bernoulli_sampler_validates_means():
    with pytest.raises(ValueError):
        bernoulli_sampler([0.5, 1.2])


@pytest.mark.parametrize(
    "means",
    [[math.nan, 0.5], [0.5, math.inf], [-math.inf], [[0.2, 0.5]], [], 0.5],
    ids=["nan", "inf", "-inf", "2-d", "empty", "0-d"],
)
def test_bernoulli_sampler_refuses_means_at_construction(means):
    # NaN used to pass the range check and fail inside numpy at the first pull
    with pytest.raises(ValueError, match="means"):
        bernoulli_sampler(means)


def test_samplers_return_costs():
    # the lowest mean wins: the likeliest Bernoulli arm, the lowest node value
    assert bernoulli_sampler([0.0, 1.0])([0, 1], 3, np.random.default_rng(0)) == ([-0.0, -1.0], [3, 3])
    o = NoisyOracle(ValueTable(np.array([0.1, 0.9])), noise="gaussian", R=0.0)
    assert oracle_sampler(o, [1, 0])([0, 1], 2, np.random.default_rng(0)) == ([0.9, 0.1], [2, 2])
    assert successive_reject(2, bernoulli_sampler([0.0, 1.0]), 10, np.random.default_rng(0)) == 1


def test_bernoulli_identification_rate_is_reasonable():
    sampler = bernoulli_sampler([0.7, 0.3])
    rng = np.random.default_rng(2)
    wins = sum(successive_reject(2, sampler, 100, rng) == 0 for _ in range(300))
    assert wins > 290


def test_exhaustion_mid_run_still_returns_an_arm():
    o = NoisyOracle(ValueTable(np.array([0.2, 0.8, 0.5])), budget=20)
    sampler = oracle_sampler(o, [0, 1, 2])
    rng = np.random.default_rng(3)
    arm = successive_reject(3, sampler, 200, rng)
    assert arm in (0, 1, 2)
    assert o.used <= 20


def keyed_min_successive_reject(K, sampler, B, rng):
    """Reference: successive rejects that pulls one arm per sampler call and
    rescans every survivor with a keyed min in every phase, on
    float64/int64 arrays."""
    cumulative = budget_schedule(K, B)
    sums = np.zeros(K)
    counts = np.zeros(K, dtype=np.int64)
    remaining = list(range(K))
    exhausted = False
    for k in range(1, K):
        pulls = cumulative[k] - cumulative[k - 1]
        if pulls > 0 and not exhausted:
            for arm in remaining:
                try:
                    mean, taken = sampler(arm, pulls, rng)
                except BudgetExhaustedError:
                    exhausted = True
                    break
                sums[arm] += mean * taken
                counts[arm] += taken
                if taken < pulls:
                    exhausted = True
                    break

        def empirical(arm):
            if counts[arm] == 0:
                return -math.inf
            return sums[arm] / counts[arm]

        worst = min(remaining, key=lambda a: (empirical(a), -a))
        remaining.remove(worst)
    return remaining[0]


def per_arm_small_budget(K, sampler, B, rng):
    """Reference: the budget-B <= K sweep, one arm per sampler call."""
    best_arm, best_mean = 0, -math.inf
    for arm in range(min(K, B)):
        try:
            mean, _ = sampler(arm, 1, rng)
        except BudgetExhaustedError:
            break
        if mean > best_mean:
            best_arm, best_mean = arm, mean
    return best_arm


def one_arm(algorithm):
    """Run a per-arm reference, which takes the highest mean, on a phase
    sampler, which returns costs: one arm per phase, its mean negated."""

    def run(K, sampler, B, rng):
        def pull(arm, count, rng):
            means, taken = sampler([arm], count, rng)
            return -means[0], taken[0]

        return algorithm(K, pull, B, rng)

    return run


@st.composite
def sr_cases(draw, small_budget=False):
    K = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(["random", "lattice", "equal"]))
    if kind == "random":
        values = draw(st.lists(st.floats(0, 1), min_size=K, max_size=K))
    elif kind == "lattice":
        values = draw(st.lists(st.sampled_from([0, 1 / 3, 2 / 3, 1]), min_size=K, max_size=K))
    else:
        values = [draw(st.floats(0, 1))] * K
    B = draw(st.integers(0, K)) if small_budget else K + draw(st.integers(1, 3000))
    return dict(
        K=K,
        values=values,
        noise=draw(st.sampled_from(["bernoulli", "gaussian"])),
        R=draw(st.sampled_from([0.0, 0.5])),
        B=B,
        oracle_budget=draw(st.none() | st.integers(0, max(B, K))),
        maximize=draw(st.booleans()),
        # the served pull that comes back empty (taken == 0), if any; the
        # one-pull sweep of a small budget has no short pull but the last
        empty_call=None if small_budget else draw(st.none() | st.integers(0, 3 * K)),
        empty_mean=draw(st.floats(-1, 1)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def run_case(case, algorithm):
    oracle = NoisyOracle(
        ValueTable(np.array(case["values"])),
        noise=case["noise"],
        R=case["R"],
        budget=case["oracle_budget"],
        maximize=case["maximize"],
    )
    pull = oracle_sampler(oracle, range(case["K"]))
    calls = []  # the (arm, count) pairs served, in order
    dry = []  # set once a call raised or came back short

    def sampler(arms, count, rng):
        assert not dry, "sampler called after it ran dry"
        dry.append(True)  # until the call comes back whole
        arms = list(arms)
        cut = None if case["empty_call"] is None else case["empty_call"] - len(calls)
        if cut is not None and not 0 <= cut < len(arms):
            cut = None
        head = arms if cut is None else arms[:cut]
        means, taken = pull(head, count, rng) if head else ([], [])
        means, taken = list(means), list(taken)
        # the empty pull is served only if every pull before it was full
        if cut is not None and len(taken) == cut and count * cut == sum(taken):
            means.append(case["empty_mean"])
            taken.append(0)
        calls.extend((arm, count) for arm in arms[: len(taken)])
        if len(taken) == len(arms) and count * len(arms) == sum(taken):
            dry.clear()
        return means, taken

    rng = np.random.default_rng(case["seed"])
    winner = algorithm(case["K"], sampler, case["B"], rng)
    return winner, oracle.used, calls, rng.random()


def handoff_case(K):
    """A noiseless run over lattice values with ties at budget B = 30:
    K = 19 runs on lists only, K = 20 hands its arrays to lists after
    phase 1, and K = 25 pulls only in phase 1, so its winner comes
    straight from the arrays."""
    return dict(
        K=K,
        values=[(i * 7) % 4 / 3 for i in range(K)],
        noise="gaussian",
        R=0.0,
        B=30,
        oracle_budget=None,
        maximize=False,
        empty_call=None,
        empty_mean=0.0,
        seed=0,
    )


def dry_before_phase_case(K, B, phase):
    """A noiseless list run, best arm K - 1, whose oracle budget is what
    phases 1..phase-1 spend, so the sampler raises when phase pulls."""
    cumulative = budget_schedule(K, B)
    spent = sum((cumulative[k] - cumulative[k - 1]) * (K - k + 1) for k in range(1, phase))
    return dict(handoff_case(K), values=[1 - i / K for i in range(K)], B=B, oracle_budget=spent)


@settings(max_examples=300, deadline=None)
@given(case=sr_cases())
@example(case=handoff_case(19))
@example(case=handoff_case(20))
@example(case=handoff_case(25))
# only phase 1 pulls (the schedule is 0, 1, 1, ..., 1): the loop steps over
# phases 2..18 and the winner is the head of phase 1's ranking
@example(case=dict(handoff_case(19), B=20))
# phases 1 and 2 spend the oracle's 67 samples, and phase 3's call raises
@example(case=dry_before_phase_case(5, 100, 3))
def test_successive_reject_matches_keyed_min_reference(case):
    # same winner, same pulls served in the same order, same draws
    reference = one_arm(keyed_min_successive_reject)
    assert run_case(case, successive_reject) == run_case(case, reference)


@settings(max_examples=100, deadline=None)
@given(case=sr_cases(small_budget=True))
# the one-phase call raises at once: arm 0 wins and nothing is drawn
@example(case=dict(handoff_case(5), B=3, oracle_budget=0))
# K = 25 with the last arm served best: the one phase runs on arrays (B = 20,
# arm 19), is handed to lists (B = 19, arm 18), or is wide and comes back
# short after 15 arms (arm 14)
@example(case=dict(handoff_case(25), values=[1 - i / 25 for i in range(25)], B=20))
@example(case=dict(handoff_case(25), values=[1 - i / 25 for i in range(25)], B=19))
@example(case=dict(handoff_case(25), values=[1 - i / 25 for i in range(25)], B=22, oracle_budget=15))
def test_successive_reject_small_budget_matches_per_arm_reference(case):
    reference = one_arm(per_arm_small_budget)
    assert run_case(case, successive_reject) == run_case(case, reference)


@pytest.mark.parametrize("K", [1, 30])
def test_successive_reject_at_budget_zero_calls_no_sampler(K):
    def sampler(arms, count, rng):
        raise AssertionError(f"sampler called with {list(arms)}, {count}")

    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert successive_reject(K, sampler, 0, rng) == 0
    assert rng.bit_generator.state == state


def spent_before_phases(K, B):
    """Pulls a full run of successive rejects has spent before each phase
    k = 1..K-1, and the pulls per arm and survivors of that phase."""
    cumulative = budget_schedule(K, B)
    spent, phases = 0, []
    for k in range(1, K):
        pulls, alive = cumulative[k] - cumulative[k - 1], K - k + 1
        phases.append((spent, pulls, alive))
        spent += pulls * alive
    return phases


@st.composite
def wide_sr_cases(draw):
    K = draw(st.integers(ARRAY_DRAW_MIN, 150))
    lattice = draw(st.booleans())
    element = st.sampled_from([0, 1 / 3, 2 / 3, 1]) if lattice else st.floats(0, 1)
    B = K + draw(st.integers(1, 3000))
    # the oracle runs dry before, between or inside the batches of a wide
    # phase that pulls, or not at all
    wide = [p for p in spent_before_phases(K, B) if p[1] > 0 and p[2] >= ARRAY_DRAW_MIN]
    spent, pulls, alive = draw(st.sampled_from(wide))
    j = draw(st.integers(0, alive - 1))
    dry = draw(st.sampled_from(["before", "between", "inside", "never"]))
    budget = {
        "before": spent,
        "between": spent + j * pulls,
        "inside": spent + j * pulls + draw(st.integers(0, pulls - 1)),
        "never": None,
    }[dry]
    return dict(
        K=K,
        values=draw(st.lists(element, min_size=K, max_size=K)),
        noise=draw(st.sampled_from(["bernoulli", "gaussian"])),
        B=B,
        budget=budget,
        maximize=draw(st.booleans()),
        # the oracle serves arm i as node i, or through oracle_sampler as
        # node K - 1 - i
        direct=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=100, deadline=None)
@given(case=wide_sr_cases())
def test_wide_phases_on_the_oracle_match_keyed_min_reference(case):
    # wide phases hand the oracle int64 arrays and get float arrays back;
    # the reference pulls one arm per call
    seen = []
    for algorithm in (successive_reject, one_arm(keyed_min_successive_reject)):
        oracle = NoisyOracle(
            ValueTable(np.array(case["values"])),
            noise=case["noise"],
            R=0.5,
            budget=case["budget"],
            maximize=case["maximize"],
        )
        if case["direct"]:
            sampler = oracle.sample_means
        else:
            sampler = oracle_sampler(oracle, range(case["K"] - 1, -1, -1))
        rng = np.random.default_rng(case["seed"])
        winner = algorithm(case["K"], sampler, case["B"], rng)
        seen.append((winner, type(winner), oracle.used, rng.random()))
    assert seen[0] == seen[1]
    assert seen[0][1] is int


def test_hardness_pseudo_gap():
    # ranked gaps become [0.2, 0.2, 0.5]; max of 1/0.04, 2/0.04, 3/0.25
    assert hardness([0.2, 0.5]) == pytest.approx(50.0)
    assert hardness([0.3]) == pytest.approx(2 / 0.09)
    with pytest.raises(ValueError):
        hardness([])
    with pytest.raises(ValueError):
        hardness([0.0, 0.5])


def test_sr_error_bound_values():
    assert sr_error_bound(4, 50.0, 200) == pytest.approx(0.5045794320749739)
    # B <= K is vacuous
    assert sr_error_bound(4, 50.0, 3) == 1.0
    assert sr_error_bound(2, 200.0, 2000) == pytest.approx(math.exp(-1998.0 / 200.0))


def test_sr_error_bound_monotone_in_budget():
    vals = [sr_error_bound(5, 125.0, B) for B in (10, 100, 1000, 10000)]
    assert all(b >= a for a, b in zip(vals[1:], vals))


def test_loose_bound_formula():
    n, d1, B = 10, 0.5, 5000
    want = (n * (n - 1) / 2) * math.exp(-(B - n) * d1 * d1 / (n * log_bar(n)))
    assert sr_bound_loose(n, d1, B) == pytest.approx(min(1.0, want))
    assert sr_bound_loose(10, 0.3, 500) == 1.0  # clamped
    # B <= n is vacuous, also where the formula would take its 0.0 limit or
    # overflow math.exp
    assert sr_bound_loose(10, 1e200, 10) == 1.0
    assert sr_bound_loose(10, 1e100, 5) == 1.0


def test_loose_bound_takes_its_limit_where_delta1_squared_leaves_a_float():
    # delta1**2 used to raise OverflowError; the exponent runs to -inf there
    assert sr_bound_loose(10, 1e200, 5000) == 0.0
    assert sr_bound_loose(10, 1.4e154, 5000) == 0.0
    # a square that fits keeps the formula's bits
    for d1 in (0.05, 0.5, 1e-150, 1e150, 1.3e154):
        want = (10 * 9 / 2.0) * math.exp(-(5000 - 10) * d1**2 / (10 * log_bar(10)))
        assert sr_bound_loose(10, d1, 5000) == min(1.0, want)


def test_ed_bound_is_vacuous_at_a_round_of_at_most_d():
    # such a round adds a term of at least 1; a large gap used to overflow exp
    assert ed_error_bound(3, [1], [1000.0]) == 1.0
    assert ed_error_bound(3, [500, 3], [0.5, 1e300]) == 1.0
    # where exp did not overflow, the clamp gave the same 1.0
    assert ed_error_bound(15, [500, 15], [0.4, 0.4]) == 1.0
    t, gap = 500, 0.4
    want = (15 * 14 / 2.0) * math.exp(-(t - 15) * gap * gap / (15 * log_bar(15)))
    assert ed_error_bound(15, [t], [gap]) == min(1.0, want)


# a three-node path for the certificate rows
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
# oracle and generator for the descent rows; each row fails before a draw
PATH3_ORACLE = NoisyOracle(ValueTable(np.array([0.0, 0.5, 1.0])))
RNG0 = np.random.default_rng(0)

NAN_BOUND_CASES = [
    (sr_error_bound, (3, math.nan, 10), "H"),
    (sr_bound_loose, (3, math.nan, 10), "delta1"),
    (ed_error_bound, (3, [10], [math.nan]), "gaps"),
    (hardness, ([math.nan, 0.1],), "gaps"),
    (theory_sample_size, (2, math.nan, 0.5), "gamma"),
    (theory_sample_size, (2, 10.0, math.nan), "R"),
    (sa_round_bound_convex, (0.3, 9, math.nan, 0.8), "eps"),
    (sa_round_bound_convex, (0.3, 9, 0.001, math.nan), "initial_gap"),
    (sa_round_bound_nearly, (0.3, math.nan, 2, 9, 0.8), "c"),
    (sa_round_bound_nearly, (0.3, 0.05, 2, 9, math.nan), "F"),
    (sr_error_bound, (4, 50.0, math.nan), "B"),
    (sr_error_bound, (math.nan, 50.0, 200), "K"),
    (sr_bound_loose, (3, 0.5, math.nan), "B"),
    (ed_error_bound, (math.nan, [10], [0.5]), "d"),
    (explore_descend_restarts, (PATH3, PATH3_ORACLE, math.nan, RNG0), "budget"),
    (sa_round_bound_convex, (0.3, math.nan, 0.001, 0.8), "d"),
    (sa_round_bound_nearly, (0.3, 0.05, math.nan, 9, 0.8), "r"),
    (sa_round_bound_nearly, (0.3, 0.05, 2, math.nan, 0.8), "d"),
    (certify_strongly_convex, (PATH3, [0, 3, 5], math.nan), "m"),
    (certify_nearly_convex, (PATH3, [0, 3, 5], math.nan, 0.1), "alpha"),
    (certify_nearly_convex, (PATH3, [0, 3, 5], 0.5, math.nan), "c"),
]


@pytest.mark.parametrize(
    "bound, args, name", NAN_BOUND_CASES, ids=[f"{b.__name__}-{n}" for b, _, n in NAN_BOUND_CASES]
)
def test_closed_form_bounds_refuse_nan(bound, args, name):
    # every check is written so that NaN fails it
    with pytest.raises(ValueError, match=rf"\b{name} must be"):
        bound(*args)


INF_BOUND_CASES = [
    (theory_sample_size, (1, math.inf, 0.5), "gamma"),
    (theory_sample_size, (1, math.inf, 0.0), "gamma"),
    (sa_round_bound_nearly, (0.3, math.inf, 2, 9, 0.8), "c"),
    (sa_round_bound_convex, (0.3, 9, math.inf, 0.05), "eps"),
    (sa_round_bound_convex, (0.3, 9, 0.001, math.inf), "initial_gap"),
    (sa_round_bound_nearly, (0.3, 0.05, 2, 9, math.inf), "F"),
    (sr_error_bound, (3, math.inf, 10), "H"),
    (sr_bound_loose, (3, math.inf, 10), "delta1"),
    (ed_error_bound, (3, [10], [math.inf]), "gaps"),
    (hardness, ([math.inf, 0.1],), "gaps"),
    (sa_round_bound_convex, (math.inf, 9, 0.001, 0.05), "alpha"),
    (certify_strongly_convex, (PATH3, [0, 3, 5], math.inf), "m"),
    (certify_nearly_convex, (PATH3, [0, 3, 5], math.inf, 0.1), "alpha"),
    (certify_nearly_convex, (PATH3, [0, 3, 5], 0.5, math.inf), "c"),
    (certify_nearly_convex, (PATH3, [0, 3, 5], 0.5, -math.inf), "c"),
]


@pytest.mark.parametrize(
    "bound, args, name",
    INF_BOUND_CASES,
    ids=[f"{b.__name__}-{n}-{i}" for i, (b, _, n) in enumerate(INF_BOUND_CASES)],
)
def test_closed_form_bounds_refuse_infinity(bound, args, name):
    # inf must fail by name, not overflow, divide by zero, or give 0.0 or nan
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
        bound(*args)


def sweep_config(gamma):
    """An sa sweep over the three-node path at the given temperature."""
    table = ValueTable(np.array([0.2, 0.5, 0.8]))
    return ExperimentConfig(PATH3, table, "sa", (20,), 1, 0, params={"gamma": gamma})


def gaussian_draw(R):
    """One gaussian draw at noise scale R."""
    oracle = NoisyOracle(ValueTable(np.array([0.0, 1.0])), noise="gaussian", R=R)
    return oracle.sample_means([0], 1, np.random.default_rng(0))


def uphill_step(gamma):
    """One noiseless annealing step from the low end of a two-node path,
    so the proposal is uphill."""
    oracle = NoisyOracle(ValueTable(np.array([0.0, 1.0])), noise="gaussian", R=0.0)
    cfg = SAConfig(gamma=gamma, steps=1)
    return simulated_annealing(PATH3, oracle, 0, cfg, np.random.default_rng(0))


HUGE = 10**400  # finite, but no float holds it
TINY = Fraction(1, HUGE)  # above 0, but its float is 0.0

BEYOND_FLOAT_CASES = [
    (hardness, ([HUGE],), "gaps"),
    (hardness, ([TINY],), "gaps"),
    (ed_error_bound, (3, [40], [HUGE]), "gaps"),
    (sr_error_bound, (4, HUGE, 100), "H"),
    (sr_error_bound, (4, TINY, 100), "H"),
    (sr_bound_loose, (4, HUGE, 100), "delta1"),
    (sa_round_bound_convex, (0.3, 9, HUGE, 0.05), "eps"),
    (sa_round_bound_convex, (0.3, 9, 0.001, HUGE), "initial_gap"),
    (sa_round_bound_nearly, (0.3, HUGE, 2, 9, 3000.0), "c"),
    (sa_round_bound_nearly, (0.3, 0.05, 2, 9, HUGE), "F"),
    (sweep_config, (HUGE,), "gamma"),
    (gaussian_draw, (HUGE,), "R"),
    (uphill_step, (HUGE,), "gamma"),
]


def test_hardness_refuses_gaps_that_put_H_beyond_a_float():
    # 1e-200 squared underflows to 0.0 (a ZeroDivisionError), and 1e-160
    # made H inf, which sr_error_bound then refused as its own H
    for gaps in ([1e-200], [1e-160, 0.5]):
        with pytest.raises(ValueError, match=rf"^gaps down to {gaps[0]} put H beyond a float$"):
            hardness(gaps)
    assert hardness([1e-150]) == 2 / 1e-150**2


@pytest.mark.parametrize(
    "fn, args, name",
    BEYOND_FLOAT_CASES,
    ids=[f"{f.__name__}-{n}-{i}" for i, (f, _, n) in enumerate(BEYOND_FLOAT_CASES)],
)
def test_float_parameters_refuse_numbers_beyond_a_float(fn, args, name):
    # where the code computes in floats, a finite number no float holds must
    # fail by name, not raise OverflowError or divide by a rounded-off zero
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
        fn(*args)


BEYOND_FLOAT_COUNT_CASES = [
    (sr_error_bound, (4, 50.0, HUGE), "B"),
    (sr_bound_loose, (4, 0.5, HUGE), "B"),
    (budget_schedule, (4, HUGE), "B"),
    (ed_error_bound, (3, [HUGE], [0.5]), "schedule"),
    (sa_round_bound_convex, (0.3, HUGE, 0.001, 0.05), "d"),
    (sa_round_bound_nearly, (0.3, 0.05, HUGE, 9, 3000), "r"),
    (sa_round_bound_nearly, (0.3, 0.05, 2, HUGE, 3000), "d"),
    (theory_sample_size, (HUGE, 1.0, 1.0), "r"),
    (theory_sample_size, (HUGE, 1, 0.5), "r"),
]


@pytest.mark.parametrize(
    "fn, args, name",
    BEYOND_FLOAT_COUNT_CASES,
    ids=[f"{f.__name__}-{n}-{i}" for i, (f, _, n) in enumerate(BEYOND_FLOAT_COUNT_CASES)],
)
def test_counts_refuse_numbers_beyond_a_float_where_the_code_uses_floats(fn, args, name):
    # a whole count must fail by name, not raise OverflowError in float arithmetic
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
        fn(*args)


def test_exact_parameters_keep_numbers_beyond_a_float():
    # the exact entry points compute on ints and Fractions, so nothing rounds
    assert theory_sample_size(1, HUGE, 1) == 2 * HUGE**2
    assert lemma1_gap_bound(TINY, 1) == 1 + HUGE
    assert certify_strongly_convex(PATH3, [HUGE, 0, HUGE], TINY).certified
    # and an int that fits a float converts exactly, so it gives the float's answer
    assert sr_error_bound(4, 50, 200) == sr_error_bound(4, 50.0, 200)
    exact = sa_round_bound_nearly(Fraction(3, 10), Fraction(1, 20), 2, 9, 3000)
    assert exact == sa_round_bound_nearly(0.3, 0.05, 2, 9, 3000.0)


def test_sample_size_keeps_a_count_beyond_a_float_exact():
    # with gamma and R ints or Fractions the product stays exact, so r may exceed a float
    assert theory_sample_size(HUGE, 1, Fraction(1, 2)) == HUGE // 2


CLOUD = PointSet(np.random.default_rng(0).normal(size=(30, 2)))
KNN = make_knn_graph(CLOUD, 5)
RESULT = QueryResult((0, 1), (0.0, 1.0), 2)

FRACTIONAL_COUNT_CASES = [
    (sr_error_bound, (4.5, 50.0, 200), "K"),
    (budget_schedule, (4.5, 100), "K"),
    (exact_nn_all, (CLOUD, CLOUD.coords[:2], 2.5), "K"),
    (recall_at_k, (RESULT, RESULT, 1.5), "K"),
    (sgnn_query, (KNN, CLOUD, (0.0, 0.0), 2, 2, 1, 2.5, np.random.default_rng(0)), "K"),
    (sr_bound_loose, (10.5, 0.5, 5000), "n"),
    (default_rounds, (1.5,), "n"),
    (sa_round_bound_convex, (0.3, 9.5, 0.001, 0.05), "d"),
    (sa_round_bound_nearly, (0.3, 0.05, 2, 9.5, 3000.0), "d"),
    (ed_error_bound, (3.5, [10], [0.5]), "d"),
    (theory_sample_size, (1.5, 5.0, 1.0), "r"),
    (sa_round_bound_nearly, (0.3, 0.05, 1.5, 9, 3000.0), "r"),
    (sr_error_bound, (4, 50.0, 200.5), "B"),
    (sr_bound_loose, (4, 0.5, 200.5), "B"),
    (budget_schedule, (4, 100.5), "B"),
    (GridSpec, (2.5,), "D"),
    (make_plain_grid, (2.5,), "D"),
    (make_knn_graph, (CLOUD.coords, 2.5), "N"),
    (sgnn_query, (KNN, CLOUD, (0.0, 0.0), 2.5, 2, 1, 3, np.random.default_rng(0)), "I"),
    (explore_descend_restarts, (PATH3, PATH3_ORACLE, 400, RNG0, 2.5), "path_len"),
    (explore_descend_restarts, (PATH3, PATH3_ORACLE, 2000, RNG0, 4, 2.5), "restarts"),
    (explore_descend_restarts, (PATH3, PATH3_ORACLE, 1000.5, RNG0), "budget"),
    (explore_descend, (PATH3, PATH3_ORACLE, 0, (4, 2.5), RNG0), "round budget"),
    (explore_descend_restarts, (PATH3, PATH3_ORACLE, 2000, RNG0, 4, math.inf), "restarts"),
    (sgnn_query, (KNN, CLOUD, (0.0, 0.0), 2, 2.5, 1, 3, np.random.default_rng(0)), "J"),
    (sgnn_query, (KNN, CLOUD, (0.0, 0.0), 2, 2, 1.5, 3, np.random.default_rng(0)), "T"),
    (sgnn_query, (KNN, CLOUD, (0.0, 0.0), 2, math.nan, 1, 3, np.random.default_rng(0)), "J"),
    (descent_oracle, (PATH3, PATH3_ORACLE, 0, 10.5, RNG0), "round budget"),
    (descent_oracle, (PATH3, PATH3_ORACLE, 2.5, 40, RNG0), "node"),
    (explore_descend, (PATH3, PATH3_ORACLE, 2.5, (40,), RNG0), "start node"),
    (simulated_annealing, (PATH3, PATH3_ORACLE, 2.5, SAConfig(gamma=1.0, s=1, steps=1), RNG0), "start node"),
    (random_walk, (PATH3, 0, 2.5, RNG0), "walk length"),
    # a walk length below 0 is refused by the same rule
    (random_walk, (PATH3, 0, -1, RNG0), "walk length"),
]


@pytest.mark.parametrize(
    "fn, args, name",
    FRACTIONAL_COUNT_CASES,
    ids=[f"{f.__name__}-{n}-{i}" for i, (f, _, n) in enumerate(FRACTIONAL_COUNT_CASES)],
)
def test_counts_refuse_fractions(fn, args, name):
    # a count with a fractional part must fail by name, not compute with it
    # or fail deep inside with a TypeError
    with pytest.raises(ValueError, match=rf"\b{name} must be a whole number"):
        fn(*args)


# each entry that takes a node, called at node x, with the name its refusal
# gives and its graph's node count (PATH3 3, KNN 30); with J = 0 no walk
# runs, so smoothed_sa_search's own check must refuse
NODE_ENTRIES = {
    "descent_oracle": ("node", 3, lambda x, o, rng: descent_oracle(PATH3, o, x, 40, rng)),
    "explore_descend": ("start node", 3, lambda x, o, rng: explore_descend(PATH3, o, x, (40,), rng)),
    "simulated_annealing": (
        "start node", 3, lambda x, o, rng: simulated_annealing(PATH3, o, x, SAConfig(gamma=1.0, s=1, steps=1), rng)
    ),
    "smoothed_sa_search": (
        "start node", 30, lambda x, o, rng: smoothed_sa_search(KNN, DistanceCache(CLOUD, (0.0, 0.0)), x, 0, 1, rng)
    ),
    "DistanceCache.evaluate": ("node", 30, lambda x, o, rng: DistanceCache(CLOUD, (0.0, 0.0)).evaluate(x)),
    "Path": ("path node", 3, lambda x, o, rng: Path(PATH3, (x,))),
    "sa_transition_probs": ("node", 3, lambda x, o, rng: sa_transition_probs(PATH3, [0.0, 0.5, 1.0], x, 1.0)),
    "ValueTable.value": ("node", 3, lambda x, o, rng: o.values.value(x)),
    "ValueTable.gap_to_best": ("node", 3, lambda x, o, rng: o.values.gap_to_best(x)),
    "random_walk-T0": ("start node", 3, lambda x, o, rng: random_walk(PATH3, x, 0, rng)),
    "random_walk-T1": ("start node", 3, lambda x, o, rng: random_walk(PATH3, x, 1, rng)),
    "sa_step": ("node", 3, lambda x, o, rng: sa_step(PATH3, o, x, SAConfig(gamma=1.0, s=1), rng)),
}


@pytest.mark.parametrize("x", [-1, "n", 2.5])
@pytest.mark.parametrize("entry", sorted(NODE_ENTRIES))
def test_node_entries_refuse_a_node_outside_the_graph(entry, x):
    # by name and before any draw: -1 used to index from the end (evaluate
    # scored the last point), and 2.5 went through as a float or failed
    # with a bare TypeError
    name, n, call = NODE_ENTRIES[entry]
    x = n if x == "n" else x
    rule = f"must be a whole number, got {x}" if x == 2.5 else f"{x} out of range"
    o = NoisyOracle(ValueTable(np.array([0.0, 0.5, 1.0])))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{name} {re.escape(rule)}$"):
        call(x, o, rng)
    assert o.used == 0
    assert rng.random() == np.random.default_rng(0).random()


def test_node_entries_take_a_whole_node_of_another_type_as_its_int():
    # 2.0 and np.int64(2) are node 2: the same result and the same draws
    for entry, (_, n, call) in NODE_ENTRIES.items():
        seen = []
        for x in (2, 2.0, np.int64(2)):
            o = NoisyOracle(ValueTable(np.array([0.0, 0.5, 1.0])))
            rng = np.random.default_rng(0)
            got = call(x, o, rng)
            seen.append((repr(got), o.used, rng.random()))
        assert seen[0] == seen[1] == seen[2], entry
