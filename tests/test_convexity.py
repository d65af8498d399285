import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphopt import (
    Graph,
    GridSpec,
    Path,
    ValueTable,
    certify_nearly_convex,
    certify_strongly_convex,
    common_denominator,
    exact_ratio,
    make_grid_graph,
    make_plain_grid,
    parse_values,
    save_graph,
)
from references import (
    best_improvement,
    grid_coords,
    improvement_delta,
    is_strongly_convex_path,
    lemma1_gap_bound,
    reference_near,
    reference_strong,
)


def exists_convex_path(g, vals, x, target, m):
    """Exhaustive search for an m-strongly-convex path x -> target.

    Deltas must stay positive and shrink by a factor (1+m) per step, so
    the search walks the descending-value DAG only.
    """
    if x == target:
        return True

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

    return dfs(x, None)


def brute_force_certified(g, vals, m):
    target = min(range(g.n), key=lambda i: (vals[i], i))
    if sum(1 for v in vals if v == vals[target]) > 1:
        return False
    return all(exists_convex_path(g, vals, x, target, m) for x in range(g.n))


def random_connected_graph(n, rng):
    # random spanning tree plus a few extra edges
    edges = set()
    order = list(rng.permutation(n))
    for a, b in zip(order, order[1:]):
        edges.add((min(a, b), max(a, b)))
    extra = rng.integers(0, n)
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, sorted(edges))


def test_dp_matches_exhaustive_enumeration():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(4, 10))
        g = random_connected_graph(n, rng)
        vals = [float(v) for v in rng.uniform(0, 1, size=n)]
        for m in (0.1, 0.5, 1.0, 2.0):
            cert = certify_strongly_convex(g, vals, m)
            assert cert.certified == brute_force_certified(g, vals, m)
            checked += 1
            if cert.certified:
                for x in range(g.n):
                    if x == cert.minimizer:
                        continue
                    p = cert.witness_path(x)
                    assert is_strongly_convex_path(vals, p, m)
                    assert p.nodes[-1] == cert.minimizer
    assert checked == 240


def test_path_predicate_on_a_line():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    m = Fraction(1, 2)
    # deltas 9/4, 3/2, 1: consecutive ratios exactly (1+m)
    f3 = Fraction(0)
    f2 = f3 + 1
    f1 = f2 + Fraction(3, 2)
    f0 = f1 + Fraction(9, 4)
    vals = [f0, f1, f2, f3]
    p = Path(g, (0, 1, 2, 3))
    assert is_strongly_convex_path(vals, p, m)
    assert not is_strongly_convex_path(vals, p, m + Fraction(1, 1000))
    # non-improving step fails at any m
    assert not is_strongly_convex_path([f0, f1, f1, f3], Path(g, (0, 1, 2, 3)), m)


def test_line_certificate_knife_edge():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    m = Fraction(1, 2)
    vals = [Fraction(19, 4), Fraction(5, 2), Fraction(1), Fraction(0)]
    assert certify_strongly_convex(g, vals, m).certified
    assert not certify_strongly_convex(g, vals, m + Fraction(1, 10**9)).certified


def grid_fractions(D):
    g, _ = make_plain_grid(D)

    vals = []
    for i in range(g.n):
        x, y = grid_coords(i, D)
        vals.append(-(Fraction(4, 5) * (1 - Fraction(x * x + y * y, 2 * D * D))))
    return g, vals


def test_small_grid_knife_edge_is_exact():
    g, vals = grid_fractions(4)
    assert certify_strongly_convex(g, vals, Fraction(2, 5)).certified
    assert not certify_strongly_convex(g, vals, Fraction(2, 5) + Fraction(1, 10**6)).certified


def test_tied_minima_are_uncertifiable():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    cert = certify_strongly_convex(g, [0.0, 1.0, 0.0], 0.5)
    assert not cert.certified
    assert cert.tied_minima


def test_improvement_helpers():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    vals = [0.0, 3.0, 1.0]
    assert improvement_delta(g, vals, 1, 0) == pytest.approx(3.0)
    assert improvement_delta(g, vals, 1, 2) == pytest.approx(2.0)
    assert best_improvement(g, vals, 1) == pytest.approx(3.0)
    assert best_improvement(g, vals, 0) <= 0.0


def test_near_convexity_witnesses_and_infeasibility():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    vals = [0.0, 3.0, 1.0, 5.0]
    rep = certify_nearly_convex(g, vals, alpha=0.5, c=2.0)
    assert rep.certified
    assert rep.minimizer == 0
    assert set(rep.core) == {0, 1, 3}
    assert rep.r == 1
    assert rep.witness[2] == (2, 1)
    # climbing cap 1.9 cuts the only escape route of node 2
    rep2 = certify_nearly_convex(g, vals, alpha=0.5, c=1.9)
    assert not rep2.certified
    assert rep2.infeasible == (2,)
    with pytest.raises(ValueError):
        rep2.r


def test_strong_convexity_implies_near_convexity():
    # an m-certified instance is (m/(m+1), 0, 0)-nearly convex
    for D, m in ((3, Fraction(2, 3)), (4, Fraction(2, 5))):
        g, vals = grid_fractions(D)
        assert certify_strongly_convex(g, vals, m).certified
        rep = certify_nearly_convex(g, vals, alpha=m / (m + 1), c=Fraction(0))
        assert rep.certified
        assert rep.r == 0


def test_fraction_values_stay_exact():
    # float arithmetic misclassifies this instance; Fractions must not
    g, vals = grid_fractions(4)
    eps = Fraction(1, 10**40)
    assert not certify_strongly_convex(g, vals, Fraction(2, 5) + eps).certified


def test_lemma1_gap_bound():
    assert lemma1_gap_bound(0.5, 0.1) == pytest.approx(0.3)
    assert lemma1_gap_bound(2.0, 1.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        lemma1_gap_bound(0.0, 0.1)


@pytest.mark.parametrize("m", [Fraction(2, 17), Fraction(1, 1000)], ids=["2/17", "1/1000"])
def test_lemma1_bounds_every_gap_of_the_readme_certificate(tmp_path, m):
    # the README's certify instance, read as certify reads it: the negated
    # values as ints over one common denominator; by the paper's Lemma 1 an
    # m-strongly convex path from x whose first step is M(x) descends at
    # most (m+1)/m * M(x) in all, so the bound holds exactly at every node
    graph = tmp_path / "grid.txt"
    g, table = make_grid_graph(GridSpec(D=10, seed=0))
    save_graph(g, graph, values=table)
    exact = parse_values(f"{graph}.values", g.n, number=exact_ratio)
    vals = [-v for v in common_denominator(exact)[0]]
    cert = certify_strongly_convex(g, vals, m)
    assert cert.certified
    best = vals[cert.minimizer]
    for x in range(g.n):
        assert vals[x] - best <= lemma1_gap_bound(m, cert.first_step[x]), x


# ---------------------------------------------------------------------------
# Equivalence with the direct Fraction-arithmetic certificates.
#
# The certificates compute in the inputs' own arithmetic, splitting a
# Rational ratio into ints; the references in references.py do every step
# plainly.


def assert_same_certificates(g, vals, m, alpha, c, same_types=False):
    cert = certify_strongly_convex(g, vals, m)
    want = reference_strong(g, vals, m)
    assert {key: getattr(cert, key) for key in want} == want
    rep = certify_nearly_convex(g, vals, alpha, c)
    want_near = reference_near(g, vals, alpha, c)
    assert {key: getattr(rep, key) for key in want_near} == want_near
    if same_types:
        # non-Rational inputs keep their own arithmetic, result types included
        assert [type(v) for v in cert.first_step.values()] == [
            type(v) for v in want["first_step"].values()
        ]
        assert [type(v) for v in rep.elevation.values()] == [
            type(v) for v in want_near["elevation"].values()
        ]


@st.composite
def rational_instances(draw):
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # a random tree
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    g = Graph.from_edges(n, sorted(edges))
    dens = draw(st.sampled_from([(1,), (2, 3), (10, 100, 1000), tuple(range(1, 13))]))
    value = st.builds(Fraction, st.integers(-30, 30), st.sampled_from(dens))
    if draw(st.booleans()):
        vals = draw(st.lists(value, min_size=n, max_size=n))
    else:  # a small pool of values: tied minima and equal steps
        pool = draw(st.lists(value, min_size=1, max_size=3))
        vals = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if dens == (1,) and draw(st.booleans()):
        vals = [int(v) for v in vals]
    ratio = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
    m = draw(ratio)
    deltas = sorted({vals[a] - vals[b] for a, b in edges if vals[a] != vals[b]}, key=abs)
    if len(deltas) >= 2 and draw(st.booleans()):
        # knife edge: 1+m is exactly (or 1e-40 off) a ratio of two steps
        d1, d2 = draw(st.permutations([abs(d) for d in deltas]))[:2]
        eps = draw(st.sampled_from([0, Fraction(1, 10**40), -Fraction(1, 10**40)]))
        if d1 / d2 - 1 + eps > 0:
            m = d1 / d2 - 1 + eps
    alpha = draw(ratio)
    # c's denominator need not divide any value's denominator
    c = Fraction(draw(st.integers(0, 20)), draw(st.sampled_from([1, 7, 11, 97, 10**40])))
    return g, vals, m, alpha, c


@settings(max_examples=400, deadline=None)
@given(case=rational_instances())
def test_integer_certificates_match_fraction_reference(case):
    assert_same_certificates(*case)


# corners of the float range: signed zeros, the smallest subnormal and
# normal, and magnitudes whose difference overflows to inf
FLOAT_CORNERS = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1.0, -1.0,
                 1e308, -1e308, sys.float_info.max, -sys.float_info.max)


@st.composite
def float_instances(draw):
    g = draw(rational_instances())[0]
    value = st.one_of(st.sampled_from(FLOAT_CORNERS), st.floats(allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        vals = draw(st.lists(value, min_size=g.n, max_size=g.n))
    else:  # a small pool of values: tied minima and equal steps
        pool = draw(st.lists(value, min_size=1, max_size=3))
        vals = draw(st.lists(st.sampled_from(pool), min_size=g.n, max_size=g.n))
    ratio = st.one_of(st.sampled_from((5e-324, 1e-300, 0.5, 1.0, 1e300)),
                      st.floats(min_value=0, exclude_min=True, allow_infinity=False))
    c = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1e308)),
                  st.floats(min_value=0, allow_infinity=False))
    return g, vals, draw(ratio), draw(ratio), draw(c)


@settings(max_examples=400, deadline=None)
@given(case=float_instances())
def test_float_certificates_match_reference(case):
    # the near certifier tests the core in the min form f(x) - min f(z);
    # the reference takes the max form max f(x) - f(z), step by step
    assert_same_certificates(*case, same_types=True)


def test_mixed_lists_decide_the_core_in_the_max_form():
    # node 0 steps exactly by 1/10 to node 1 and by float(1/10) - 0.0, just
    # above 1/10, to node 2: the min form sees only the exact step, which
    # misses alpha * gap = 1/10 + 1e-21, and the max form's rounded one clears it
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    vals = [Fraction(1, 10), Fraction(0), 0.0]
    alpha = 1 + Fraction(1, 10**20)
    assert vals[0] - min(vals[1:]) < alpha * vals[0] <= best_improvement(g, vals, 0)
    assert 0 in certify_nearly_convex(g, vals, alpha, 0).core
    assert_same_certificates(g, vals, Fraction(1, 2), alpha, 0, same_types=True)


def test_integer_certificates_match_reference_at_the_knife_edge():
    g, vals = grid_fractions(4)
    eps = Fraction(1, 10**40)
    for m in (Fraction(2, 5) - eps, Fraction(2, 5), Fraction(2, 5) + eps):
        for c in (Fraction(0), Fraction(1, 3), Fraction(1, 7) + eps):
            assert_same_certificates(g, vals, m, m / (1 + m), c)
            assert_same_certificates(g, vals, m, m / (1 + m) + eps, c)


def test_unrelated_prime_denominators_match_the_reference():
    # one distinct prime denominator per node: no common denominator is
    # taken, and the certificates must still be exactly the reference's
    D = 4
    g, _ = make_plain_grid(D)
    primes = [p for p in range(2, 500) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    bowl = []
    for i in range(g.n):
        x, y = grid_coords(i, D)
        bowl.append(Fraction(x * x + y * y) + Fraction(1, primes[i]))
    hill = [1 - 2 * v for v in bowl]  # uncertifiable nodes and capped climbs
    params = ((Fraction(3, 10), Fraction(1, 10)), (Fraction(9, 10), 0), (Fraction(9, 10), 20))
    for vals in (bowl, hill):
        for m in (Fraction(1, 1000), Fraction(1, 2), Fraction(3)):
            for alpha, c in params:
                assert_same_certificates(g, vals, m, alpha, c, same_types=True)


def test_int64_arrays_certify_as_python_ints():
    # p * M(z) and the climb caps exceed int64 here; an array is unwrapped
    # to Python ints, so nothing overflows
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ints = [0, 2**62, 2**62 + 2**61]

    def both(vals, m, alpha, c):
        return certify_strongly_convex(g, vals, m), certify_nearly_convex(g, vals, alpha, c)

    for params in ((Fraction(1, 2), Fraction(1, 3), 2**62), (Fraction(1, 10**20), 1, 0)):
        assert both(np.array(ints), *params) == both(ints, *params)


@pytest.mark.filterwarnings("error")
def test_numpy_scalar_lists_certify_as_python_ints():
    # a list of numpy scalars is unwrapped like an array: no int64
    # overflow in p * M(z) or in the climb caps, and int results
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    cases = (
        ([0, 3, 5], (Fraction(1, 10**20), 1, 0)),
        ([0, 2**62, 2**62 + 2**61], (Fraction(1, 2), Fraction(1, 3), 2**62)),
    )
    for ints, (m, alpha, c) in cases:
        scalars = [np.int64(v) for v in ints]
        cert = certify_strongly_convex(g, scalars, m)
        assert cert == certify_strongly_convex(g, ints, m)
        assert all(type(v) is int for v in cert.first_step.values())
        assert certify_nearly_convex(g, scalars, alpha, c) == certify_nearly_convex(g, ints, alpha, c)


def test_float_and_mixed_inputs_keep_their_arithmetic():
    g, exact = grid_fractions(4)
    floats = [float(v) for v in exact]
    mixed = [v if i % 2 else float(v) for i, v in enumerate(exact)]
    for vals in (floats, mixed):
        for m, alpha, c in ((0.4, 0.3, 0.1), (Fraction(2, 5), Fraction(2, 7), Fraction(1, 7))):
            assert_same_certificates(g, vals, m, alpha, c, same_types=True)


def test_value_tables_certify_like_their_floats():
    # the plain grid is a hill; both certificates hold for -f
    g, table = make_plain_grid(3)
    negated = ValueTable(-table.means)
    floats = negated.means.tolist()
    strong = certify_strongly_convex(g, negated, 0.001)
    assert strong.certified and strong == certify_strongly_convex(g, floats, 0.001)
    near = certify_nearly_convex(g, negated, 0.3, 0.1)
    assert near.certified and near == certify_nearly_convex(g, floats, 0.3, 0.1)


def test_int_values_give_int_certificates():
    # ints over the common denominator give the ints that used to come
    # back as Fraction(v, 1)
    g, exact = grid_fractions(4)
    L = math.lcm(*(v.denominator for v in exact))
    ints = [int(v * L) for v in exact]
    m, alpha = Fraction(2, 5), Fraction(9, 10)
    cert = certify_strongly_convex(g, ints, m)
    assert all(type(v) is int for v in cert.first_step.values())
    assert cert.first_step == {
        x: Fraction(v) for x, v in reference_strong(g, ints, m)["first_step"].items()
    }
    rep = certify_nearly_convex(g, ints, alpha, 0)
    assert rep.elevation and all(type(v) is int for v in rep.elevation.values())
    assert rep.elevation == reference_near(g, ints, alpha, 0)["elevation"]
    # a climb: 3 -> 2 -> 1 peaks 1 above node 3 and 2 above node 2
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for c in (2, Fraction(2)):
        rep = certify_nearly_convex(path, [0, 5, 3, 4], alpha, c)
        assert rep.elevation == {2: 2, 3: 1}
        assert all(type(v) is int for v in rep.elevation.values())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_certifiers_refuse_non_finite_values_by_node(bad):
    # NaN compared false everywhere, so the near certificate used to come
    # back certified and the strong one uncertifiable
    g, table = make_plain_grid(2)
    floats = (-table.means).tolist()
    floats[3] = bad
    exact = [Fraction(1, 3)] * g.n
    exact[3] = bad
    for vals in (floats, np.array(floats), [np.float64(v) for v in floats], exact):
        with pytest.raises(ValueError, match="value of node 3 must be finite"):
            certify_nearly_convex(g, vals, 0.3, 0.1)
        with pytest.raises(ValueError, match="value of node 3 must be finite"):
            certify_strongly_convex(g, vals, 0.001)
