"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all)
and then asserts. Monte-Carlo comparisons use a 3-sigma slack on the
empirical rate.
"""

import math
import time
from fractions import Fraction

import numpy as np

import graphopt as go
from references import bernoulli_sampler, grid_coords

GRID_SPEC = go.GridSpec(D=10, target_degree=15, seed=0)
_cache = {}


def grid_instance():
    if "grid" not in _cache:
        _cache["grid"] = go.make_grid_graph(GRID_SPEC)
    return _cache["grid"]


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    return line


def mc_slack(phat, trials):
    return 3.0 * math.sqrt(phat * (1.0 - phat) / trials)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_sr_bound_soundness():
    t0 = time.perf_counter()
    trials = 10**4
    instances = [
        ("K2 gap .1", [0.55, 0.45], [0.1]),
        ("K2 gap .2", [0.60, 0.40], [0.2]),
        ("K5 equal .2", [0.60, 0.40, 0.40, 0.40, 0.40], [0.2] * 4),
    ]
    worst = -1.0
    rows = []
    for idx, (name, means, gaps) in enumerate(instances):
        K = len(means)
        H = go.hardness(gaps)
        sampler = bernoulli_sampler(means)
        for B in (100, 500, 2000):
            errors = 0
            for t in range(trials):
                rng = go.trial_rng(101 + idx, B, t)
                errors += go.successive_reject(K, sampler, B, rng) != 0
            phat = errors / trials
            bound = go.sr_error_bound(K, H, B)
            margin = phat - bound - mc_slack(phat, trials)
            worst = max(worst, margin)
            rows.append((name, B, phat, bound))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0 and elapsed < 30
    report(1, ok, f"9 instance/budget combos, worst(err-bound-slack)={worst:+.4f}, {elapsed:.1f}s")
    for name, B, phat, bound in rows:
        assert phat <= bound + mc_slack(phat, trials), (name, B, phat, bound)
    assert elapsed < 30


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_ed_round_bound_soundness():
    t0 = time.perf_counter()
    g, table = grid_instance()
    # the degree-15 node whose arm set has the widest smallest gap
    node, gap = None, -1.0
    for x in range(g.n):
        if g.degree(x) != 15:
            continue
        vals = sorted(table.value(a) for a in (x,) + g.neighbors(x))
        if vals[1] - vals[0] > gap:
            gap, node = vals[1] - vals[0], x
    arms = (node,) + g.neighbors(node)
    best = min(arms, key=lambda a: (table.value(a), a))
    trials = 10**4
    results = []
    for T1 in (500, 2000):
        errors = 0
        for t in range(trials):
            rng = go.trial_rng(202, T1, t)
            oracle = go.NoisyOracle(table, budget=T1)
            errors += go.descent_oracle(g, oracle, node, T1, rng) != best
        phat = errors / trials
        bound = go.ed_error_bound(15, [T1], [gap])
        results.append((T1, phat, bound))
    elapsed = time.perf_counter() - t0
    ok = all(p <= b + mc_slack(p, trials) for _, p, b in results) and elapsed < 60
    detail = ", ".join(f"T1={T}: err {p:.4f} <= bound {b:.3g}" for T, p, b in results)
    report(2, ok, f"node {node} (gap {gap:.3f}): {detail}, {elapsed:.1f}s")
    for T1, phat, bound in results:
        assert phat <= bound + mc_slack(phat, trials), (T1, phat, bound)
    assert elapsed < 60


# ---------------------------------------------------------------- criterion 3


def _convex_path_exists(g, vals, x, target, m):
    def dfs(node, prev_delta):
        if node == target:
            return True
        for z in g.neighbors(node):
            delta = vals[node] - vals[z]
            if delta <= 0:
                continue
            if prev_delta is not None and prev_delta < (1 + m) * delta:
                continue
            if dfs(z, delta):
                return True
        return False

    return x == target or dfs(x, None)


def _brute_force_certified(g, vals, m):
    target = min(range(g.n), key=lambda i: (vals[i], i))
    if sum(1 for v in vals if v == vals[target]) > 1:
        return False
    return all(_convex_path_exists(g, vals, x, target, m) for x in range(g.n))


def _random_connected(n, rng):
    edges = set()
    order = list(rng.permutation(n))
    for a, b in zip(order, order[1:]):
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, 2 * n))):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return go.Graph.from_edges(n, sorted(edges))


def test_criterion_3_certifier_equivalence_and_grid_knife_edge():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    disagreements = 0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        g = _random_connected(n, rng)
        vals = [float(v) for v in rng.uniform(0.0, 1.0, size=n)]
        for m in (0.1, 0.5, 1.0, 2.0):
            dp = go.certify_strongly_convex(g, vals, m).certified
            bf = _brute_force_certified(g, vals, m)
            disagreements += dp != bf
    g, _ = go.make_plain_grid(10)
    vals = []
    for i in range(g.n):
        x, y = grid_coords(i, 10)
        vals.append(-(Fraction(4, 5) * (1 - Fraction(x * x + y * y, 200))))
    at_knife = go.certify_strongly_convex(g, vals, Fraction(2, 17)).certified
    above = go.certify_strongly_convex(g, vals, Fraction(1, 5)).certified
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and at_knife and not above and elapsed < 120
    report(
        3,
        ok,
        f"0 of 800 oracle checks disagree: {disagreements == 0}; grid certifies "
        f"m=2/17: {at_knife}, fails m=0.2: {not above}, {elapsed:.1f}s",
    )
    assert disagreements == 0
    assert at_knife and not above
    assert elapsed < 120


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_ed_beats_direct_sr_at_small_budget():
    t0 = time.perf_counter()
    g, table = grid_instance()
    stats = {}
    for algo in ("sr", "ed"):
        # target the unique peak at the grid centre
        cfg = go.ExperimentConfig(g, table, algo, (200,), 1000, seed=404, maximize=True)
        stats[algo] = go.gap_statistics(go.run_trials(cfg))[0]
    diff = stats["sr"].mean_gap - stats["ed"].mean_gap
    combined = math.hypot(stats["sr"].stderr_gap, stats["ed"].stderr_gap)
    elapsed = time.perf_counter() - t0
    ok = diff > 3 * combined and elapsed < 120
    report(
        4,
        ok,
        f"mean gap ed {stats['ed'].mean_gap:.4f} vs sr {stats['sr'].mean_gap:.4f}, "
        f"diff {diff:.4f} > 3se {3 * combined:.4f}, {elapsed:.1f}s",
    )
    assert diff > 3 * combined
    assert elapsed < 120


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_sa_budget_trend_kernel_and_acceptance():
    t0 = time.perf_counter()
    g, table = grid_instance()
    cfg = go.ExperimentConfig(
        g,
        table,
        "sa",
        (500, 4000),
        1000,
        seed=13,
        maximize=True,
        params={"gamma": 250.0},
    )
    s500, s4000 = go.gap_statistics(go.run_trials(cfg))
    diff = s500.mean_gap - s4000.mean_gap
    combined = math.hypot(s500.stderr_gap, s4000.stderr_gap)
    trend_ok = diff > 3 * combined

    rng = np.random.default_rng(505)
    worst_row = 0.0
    for _ in range(10**5):
        x = int(rng.integers(g.n))
        est = rng.normal(0.4, 0.2, size=g.n)
        _, probs = go.sa_transition_probs(g, est, x, gamma=250.0)
        worst_row = max(worst_row, abs(float(probs.sum()) - 1.0))
    rows_ok = worst_row < 1e-12

    # gamma * delta = 250 * 0.01 = 2.5, noiseless uphill proposal
    two = go.Graph.from_edges(2, [(0, 1)])
    uphill = go.NoisyOracle(go.ValueTable(np.array([0.0, 0.01])), noise="gaussian", R=0.0)
    sa_cfg = go.SAConfig(gamma=250.0, s=1, steps=1)
    arng = np.random.default_rng(506)
    reps = 10**5
    rate = sum(go.sa_step(two, uphill, 0, sa_cfg, arng) == 1 for _ in range(reps)) / reps
    want = math.exp(-2.5)
    accept_ok = abs(rate - want) < mc_slack(want, reps)

    elapsed = time.perf_counter() - t0
    ok = trend_ok and rows_ok and accept_ok and elapsed < 120
    report(
        5,
        ok,
        f"gap 4000={s4000.mean_gap:.4f} < gap 500={s500.mean_gap:.4f} "
        f"(diff {diff:.4f} > 3se {3 * combined:.4f}); row-sum err {worst_row:.1e}; "
        f"uphill rate {rate:.4f} ~ e^-2.5={want:.4f}, {elapsed:.1f}s",
    )
    assert trend_ok
    assert rows_ok
    assert accept_ok
    assert elapsed < 120


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_near_convexity_witnesses_and_implication():
    t0 = time.perf_counter()
    g, _ = go.make_plain_grid(3)
    base = np.array(
        [sum(c * c for c in grid_coords(i, 3)) / 18.0 for i in range(g.n)]
    )
    alpha, c = 0.3, 0.1
    failures = 0
    for k in range(100):
        rng = np.random.default_rng((606, k))
        vals = base + rng.uniform(-0.05, 0.05, size=g.n)
        rep = go.certify_nearly_convex(g, vals, alpha, c)
        if not rep.certified:
            failures += 1
            continue
        r = rep.r
        for x, path_nodes in rep.witness.items():
            try:
                if len(path_nodes) > 1:
                    go.Path(g, path_nodes)
            except ValueError:
                failures += 1
                continue
            if len(path_nodes) - 1 > r:
                failures += 1
            if max(vals[z] for z in path_nodes) > vals[x] + c + 1e-12:
                failures += 1
            if path_nodes[-1] not in rep.core:
                failures += 1

    implication_ok = True
    for D, m in ((3, Fraction(2, 3)), (4, Fraction(2, 5))):
        gg, _ = go.make_plain_grid(D)
        vals = []
        for i in range(gg.n):
            x, y = grid_coords(i, D)
            vals.append(-(Fraction(4, 5) * (1 - Fraction(x * x + y * y, 2 * D * D))))
        assert go.certify_strongly_convex(gg, vals, m).certified
        rep = go.certify_nearly_convex(gg, vals, m / (m + 1), Fraction(0))
        implication_ok &= rep.certified and rep.r == 0

    elapsed = time.perf_counter() - t0
    ok = failures == 0 and implication_ok and elapsed < 60
    report(
        6,
        ok,
        f"100 perturbed grids, replay failures {failures}; m-certified implies "
        f"(m/(m+1),0,0)-nearly convex: {implication_ok}, {elapsed:.1f}s",
    )
    assert failures == 0
    assert implication_ok
    assert elapsed < 60


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_sgnn_recall_evals_and_accuracy():
    t0 = time.perf_counter()
    n, dim, K = 2000, 10, 50
    rng = np.random.default_rng(2024)
    half = n // 2
    center = np.zeros(dim)
    center[0] = 3.0
    coords = np.vstack(
        [rng.normal(center, 1.0, (half, dim)), rng.normal(-center, 1.0, (half, dim))]
    )
    labels = tuple(["pos"] * half + ["neg"] * half)
    points = go.PointSet(coords, labels=labels)
    g = go.make_knn_graph(points, 10)
    I = J = go.default_rounds(n)  # ceil(log2 2000) = 11
    qrng = np.random.default_rng(2025)
    comp = qrng.integers(2, size=200)
    queries = qrng.normal(
        np.where(comp[:, None] == 0, center, -center), 1.0, (200, dim)
    )
    recalls, max_evals = [], 0
    agree_sgnn = agree_exact = 0
    for qi in range(200):
        q = queries[qi]
        truth = go.exact_nn(points, q, K)
        prng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([77, qi])))
        res = go.sgnn_query(g, points, q, I, J, 1, K, prng)
        recalls.append(go.recall_at_k(res, truth, K))
        max_evals = max(max_evals, res.distance_evals)
        want = "pos" if comp[qi] == 0 else "neg"
        agree_sgnn += go.classify_majority(res.candidates, labels) == want
        agree_exact += go.classify_majority(truth.candidates, labels) == want
    recall = float(np.mean(recalls))
    acc_gap = abs(agree_sgnn - agree_exact) / 200.0
    elapsed = time.perf_counter() - t0
    evals_ok = max_evals <= 0.3 * n
    acc_ok = acc_gap <= 0.03
    recall_ok = recall >= 0.8
    ok = evals_ok and acc_ok and recall_ok and elapsed < 120
    report(
        7,
        ok,
        f"recall@50 {recall:.3f} (need >= 0.8), max evals {max_evals} <= {int(0.3 * n)}: "
        f"{evals_ok}, accuracy delta {acc_gap:.3f} <= 0.03: {acc_ok}, {elapsed:.1f}s",
    )
    assert evals_ok
    assert acc_ok
    assert elapsed < 120
    # At I=J=11, T=1, N=10 the chains alone evaluate at most I*(2J+1) = 253
    # nodes and reach the top-50 region only in their last iterations, so
    # their pool gives recall near 0.2. The best-first refinement of the
    # pool over the kNN graph, which sgnn_query always runs, is what meets 0.8.
    assert recall_ok, f"mean recall@50 {recall:.3f} < 0.8"


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_determinism_and_budget_honesty():
    t0 = time.perf_counter()

    def strip_time(text):
        return "\n".join(",".join(r.split(",")[:-1]) for r in text.splitlines())

    g, table = grid_instance()
    identical = True
    honest = True
    for algo, params in (
        ("sr", {}),
        ("ed", {"path_len": 4}),
        ("sa", {"gamma": 250.0}),
    ):
        cfg = go.ExperimentConfig(g, table, algo, (150, 400), 20, seed=808, params=params)
        first = go.run_trials(cfg)
        second = go.run_trials(cfg)
        identical &= strip_time(go.records_to_csv(first)) == strip_time(
            go.records_to_csv(second)
        )
        honest &= all(r.samples <= r.budget for r in first + second)
    elapsed = time.perf_counter() - t0
    ok = identical and honest
    report(
        8,
        ok,
        f"sr/ed/sa x 2 budgets x 20 trials: byte-identical (sans time) {identical}, "
        f"samples <= budget {honest}, {elapsed:.1f}s",
    )
    assert identical
    assert honest
