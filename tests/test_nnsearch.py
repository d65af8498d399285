import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphopt import (
    DistanceCache,
    Graph,
    PointSet,
    classify_majority,
    default_rounds,
    exact_nn,
    exact_nn_all,
    load_points,
    make_knn_graph,
    recall_at_k,
    save_points,
    sgnn_query,
    smoothed_sa_search,
)
from graphopt.nnsearch import _expand_best_first
from references import grouped_cloud, save_points_reference, sgnn_query_reference


def test_pointset_shape_and_labels():
    ps = PointSet(np.zeros((4, 3)), labels=("a", "b", "a", "b"))
    assert ps.n == 4
    assert ps.dim == 3
    with pytest.raises(ValueError):
        PointSet(np.zeros((4, 3)), labels=("a",))


def test_distance_cache_counts_unique_evaluations():
    ps = PointSet(np.array([[0.0], [3.0], [4.0]]))
    cache = DistanceCache(ps, np.array([0.0]))
    assert cache.evaluate(1) == pytest.approx(3.0)
    assert cache.evaluate(1) == pytest.approx(3.0)
    assert cache.evaluate(2) == pytest.approx(4.0)
    assert cache.evals == 2
    assert cache.nearest() == [(3.0, 1), (4.0, 2)]


def test_exact_nn_orders_by_distance_then_id():
    coords = np.array([[2.0], [1.0], [1.0], [0.5]])
    res = exact_nn(PointSet(coords), np.array([0.0]), 3)
    assert res.candidates == (3, 1, 2)  # tie between 1 and 2 -> lower id
    assert res.distances == pytest.approx((0.5, 1.0, 1.0))
    assert res.distance_evals == 4
    assert not res.short


def scan_nn(coords, query, K, qi=0):
    """The per-query scan exact_nn ran before its blocked prefilter; it
    refuses query ``qi`` when its K nearest include an infinite squared
    distance."""
    diff = coords - query
    d2 = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(d2, kind="stable")[:K]
    if np.isinf(d2[order]).any():
        raise ValueError(f"squared distance from query {qi} to a nearest point overflows a float")
    return tuple(int(i) for i in order), tuple(float(math.sqrt(d2[i])) for i in order)


def _nn_outcome(search, *args):
    try:
        return search(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def scan_cases(draw):
    kind = draw(st.sampled_from(["gaussian", "lattice", "scaled"]))
    n, m, dim = draw(st.integers(1, 80)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        # few distinct coordinates: ties, and queries sitting on points
        coords = rng.integers(-2, 3, size=(n + m, dim)).astype(float)
    else:
        coords = rng.normal(size=(n + m, dim))
    if kind == "scaled":
        coords = coords * draw(st.sampled_from([1e-160, 1e-6, 1e6, 1e150, 1e155])) + draw(
            st.sampled_from([0.0, 1e8])
        )
    K = draw(st.sampled_from([1, n]) | st.integers(1, n))
    return coords[:n], coords[n:], K


@settings(max_examples=150, deadline=None)
@given(case=scan_cases())
def test_exact_nn_matches_the_per_query_scan(case):
    coords, queries, K = case
    ps = PointSet(coords)

    def found(results):
        assert all(r.distance_evals == len(coords) and not r.short and r.chain_evals == 0
                   for r in results)
        return [(r.candidates, r.distances) for r in results]

    # both refuse the first query whose distances overflow, and exact_nn
    # calls its one query 0
    want = _nn_outcome(lambda: [scan_nn(coords, q, K, qi) for qi, q in enumerate(queries)])
    assert _nn_outcome(lambda: found(exact_nn_all(ps, queries, K))) == want
    for q in queries:
        assert _nn_outcome(lambda: found([exact_nn(ps, q, K)])[0]) == _nn_outcome(scan_nn, coords, q, K)


def test_exact_nn_matches_the_per_query_scan_across_query_blocks():
    # 2000 points make blocks of 131 queries: 300 queries run 131, 131 and a
    # short 38 through one reused estimate buffer; the lattice makes ties
    rng = np.random.default_rng(8)
    coords = rng.integers(-2, 3, size=(2300, 4)).astype(float)
    points, queries = coords[:2000], coords[2000:]
    ps = PointSet(points)
    results = exact_nn_all(ps, queries, 50)
    assert len(results) == 300
    for q, res in zip(queries, results):
        assert (res.candidates, res.distances) == scan_nn(points, q, 50)
    assert exact_nn_all(ps, np.zeros((0, 4)), 50) == []


# the group width is min(16, n // K): at K = 50, n = 799 takes width 15, 800
# and 801 take 16, and n = 99 takes 1; at K = 1 the edges are 15, 16 and 17
@pytest.mark.parametrize("n", [15, 16, 17, 99, 799, 800, 801])
@pytest.mark.parametrize("kind", ["gaussian", "grouped"])
@pytest.mark.parametrize("K", [1, 50, "n"])
def test_exact_nn_group_bound_matches_the_per_query_scan_at_width_edges(n, kind, K):
    K = n if K == "n" else min(K, n)
    if kind == "grouped":
        coords = grouped_cloud(n, 4, K, seed=n)
    else:
        coords = np.random.default_rng(n).normal(size=(n, 4))
    # queries on points put their nearest in their own group
    queries = np.vstack([coords[:20], np.random.default_rng(n + 1).normal(size=(10, 4))])
    results = exact_nn_all(PointSet(coords), queries, K)
    assert [(r.candidates, r.distances) for r in results] == [scan_nn(coords, q, K) for q in queries]


def test_exact_nn_refuses_a_query_whose_distances_overflow():
    # math.dist would give finite distances here; the squared ones overflow
    ps = PointSet(1e155 * np.random.default_rng(0).normal(size=(50, 3)))
    message = r"^squared distance from query 0 to a nearest point overflows a float$"
    with pytest.raises(ValueError, match=message):
        exact_nn(ps, np.zeros(3), 5)
    queries = np.vstack([ps.coords[:1], np.zeros((1, 3))])
    with pytest.raises(ValueError, match=message.replace("query 0", "query 1")):
        exact_nn_all(ps, queries, 1)


def test_exact_nn_refuses_non_finite_queries():
    ps = PointSet(np.arange(6, dtype=float).reshape(3, 2))
    for q in ([0.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            exact_nn(ps, np.array(q), 2)
    with pytest.raises(ValueError, match="queries must be"):
        exact_nn_all(ps, np.zeros((2, 3)), 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sgnn_refuses_non_finite_queries(bad):
    # refused like exact_nn refuses them, not answered with NaN or inf distances
    ps = PointSet(np.random.default_rng(0).normal(size=(60, 3)))
    g = make_knn_graph(ps, 5)
    with pytest.raises(ValueError, match="query coordinates must be finite"):
        sgnn_query(g, ps, [bad, 0.0, 0.0], 3, 3, 1, 5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="query coordinates must be finite"):
        DistanceCache(ps, [0.0, bad, 0.0])


def test_recall_at_k_counts_overlap():
    a = exact_nn(PointSet(np.arange(6, dtype=float)[:, None]), np.array([0.0]), 3)
    assert recall_at_k(a, a, 3) == 1.0
    flipped = exact_nn(PointSet(np.arange(6, dtype=float)[:, None]), np.array([5.0]), 3)
    assert recall_at_k(flipped, a, 3) == pytest.approx(0.0)


def test_classify_majority_and_ties():
    labels = ["cat", "dog", "dog", "cat", "bird"]
    assert classify_majority([1, 2, 0], labels) == "dog"
    # one vote each: the nearest candidate (first) wins
    assert classify_majority([4, 0, 1], labels) == "bird"
    with pytest.raises(ValueError):
        classify_majority([], labels)
    with pytest.raises(ValueError):
        classify_majority([0], None)


def test_classify_majority_names_a_candidate_without_a_label():
    # a negative id used to index from the end: ("a", "b", "c")[-1] voted "c"
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"^label missing for candidate {bad}: 3 labels$"):
            classify_majority([0, bad, bad], ("a", "b", "c"))
    # a mapping keeps its KeyError path, which names the missing id, and may
    # hold a label for a negative id
    with pytest.raises(ValueError, match="^label missing for candidate: 3$"):
        classify_majority([0, 3], {0: "a", 1: "b"})
    assert classify_majority([0, -1, -1], {0: "a", -1: "z"}) == "z"


def test_default_rounds_log2():
    assert default_rounds(2000) == 11
    assert default_rounds(1024) == 10
    assert default_rounds(1025) == 11
    assert default_rounds(1) == 1


def test_search_acceptance_probability():
    """First-iteration uphill acceptance at tau=1/2 shows up as e^{-0.4}/2.

    Path graph 0-1-2 with distances 1.0, 1.2, 0.5 from the query; with
    J=2, T=0 and start 0, the chain ends at node 2 exactly when the
    uphill move 0->1 is accepted (prob e^{(1.0-1.2)/0.5}) and the greedy
    second step then picks node 2 over node 0 (prob 1/2).
    """
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ps = PointSet(np.array([[1.0], [1.2], [0.5]]))
    q = np.array([0.0])
    rng = np.random.default_rng(11)
    reps = 20000
    ends = sum(smoothed_sa_search(g, DistanceCache(ps, q), 0, 2, 0, rng) == 2 for _ in range(reps))
    want = math.exp(-0.4) / 2
    sigma = math.sqrt(want * (1 - want) / reps)
    assert abs(ends / reps - want) < 3 * sigma


def test_search_zero_rounds_returns_start():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ps = PointSet(np.array([[1.0], [1.2], [0.5]]))
    cache = DistanceCache(ps, np.array([0.0]))
    assert smoothed_sa_search(g, cache, 1, 0, 0, np.random.default_rng(0)) == 1


def test_search_takes_J_and_T_as_whole_numbers():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ps = PointSet(np.array([[1.0], [1.2], [0.5]]))
    q = np.array([0.0])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="^T must be a whole number >= 0, got -1$"):
        smoothed_sa_search(g, DistanceCache(ps, q), 1, 0, -1, rng)
    for J in (-1, 2.5, "2"):
        with pytest.raises(ValueError, match=f"^J must be a whole number >= 0, got {J}$"):
            smoothed_sa_search(g, DistanceCache(ps, q), 1, J, 1, rng)
    assert rng.bit_generator.state == before
    # J=2.0 is J=2, as in sgnn_query: the same end node and the same draws
    twin = np.random.default_rng(0)
    for seed in range(10):
        ends = [smoothed_sa_search(g, DistanceCache(ps, q), seed % 3, J, 1, r)
                for J, r in ((2.0, rng), (2, twin))]
        assert ends[0] == ends[1]
        assert rng.bit_generator.state == twin.bit_generator.state


def test_search_stops_at_a_sink():
    # 0 -> 1 -> 2 with the query on node 2: the walk reaches the sink, which
    # has no neighbour to propose, after evaluating nodes 1 and 2
    g = Graph(3, True, ((1,), (2,), ()))
    cache = DistanceCache(PointSet(np.array([[0.0], [1.0], [2.0]])), (2.0,))
    assert smoothed_sa_search(g, cache, 0, 5, 1, np.random.default_rng(0)) == 2
    assert cache.evals == 2


def test_sgnn_single_restart_zero_rounds():
    """With J=0 the chain evaluates only its start; refinement then reaches
    the whole path, while on an edgeless graph the pool stays short."""
    ps = PointSet(np.array([[1.0], [1.2], [0.5]]))
    q = np.array([0.0])
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    res = sgnn_query(path, ps, q, I=1, J=0, T=0, K=2, rng=np.random.default_rng(3))
    assert res.distance_evals == 3
    assert res.chain_evals == 1
    assert res.candidates == (2, 0)
    assert res.distances == pytest.approx((0.5, 1.0))
    assert not res.short
    bare = Graph.from_edges(3, [])
    res = sgnn_query(bare, ps, q, I=1, J=0, T=0, K=2, rng=np.random.default_rng(3))
    assert res.distance_evals == 1
    assert len(res.candidates) == 1
    assert res.short


def test_sgnn_pool_is_exact_subset():
    """Returned non-top-K nodes can never beat the K-th exact distance."""
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(120, 4))
    ps = PointSet(coords)
    g = make_knn_graph(ps, 6)
    q = rng.normal(size=4)
    K = 10
    res = sgnn_query(g, ps, q, I=4, J=7, T=1, K=K, rng=rng)
    truth = exact_nn(ps, q, K)
    kth = truth.distances[K - 1]
    for node, dist in zip(res.candidates, res.distances):
        if node not in truth.candidates:
            assert dist >= kth
    assert res.distance_evals <= ps.n


def test_sgnn_refinement_is_exact_on_a_path():
    """On a 1-D path the distance to the query is unimodal along the graph,
    so best-first refinement from any single start finds the exact top K."""
    m, K = 15, 4
    g = Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])
    ps = PointSet(np.arange(m, dtype=float)[:, None])
    q = np.array([9.3])
    truth = exact_nn(ps, q, K)
    starts = set()
    for seed in range(80):
        starts.add(int(np.random.default_rng(seed).integers(m)))
        res = sgnn_query(g, ps, q, I=1, J=0, T=0, K=K, rng=np.random.default_rng(seed))
        assert res.candidates == truth.candidates
        assert res.distances == pytest.approx(truth.distances)
        assert not res.short
    assert starts == set(range(m))


def test_sgnn_query_draws_as_numpy_chains():
    """sgnn_query equals its I chains driven through smoothed_sa_search by
    a plain Generator, then refined: same result and final generator state."""
    rng = np.random.default_rng(31)
    ps = PointSet(rng.normal(size=(300, 4)))
    g = make_knn_graph(ps, 6)
    I, J, K = 5, 9, 10
    for seed in range(24):
        q = rng.normal(size=4)
        T = seed % 3
        ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:  # open on a buffered half-word
            for r in (ours, twin):
                r.integers(3)
        res = sgnn_query(g, ps, q, I=I, J=J, T=T, K=K, rng=ours)
        cache = DistanceCache(ps, q)
        for _ in range(I):
            start = int(twin.integers(g.n))
            cache.evaluate(smoothed_sa_search(g, cache, start, J, T, twin))
        assert res.chain_evals == cache.evals
        top = _expand_best_first(g, cache, K)
        assert top == cache.nearest()[:K]
        assert res.candidates == tuple(node for _, node in top)
        assert res.distances == tuple(d for d, _ in top)
        assert res.distance_evals == cache.evals
        assert ours.bit_generator.state == twin.bit_generator.state


@st.composite
def lattice_queries(draw):
    """A small integer-lattice cloud (many exact distance ties, duplicate
    points included), its kNN graph with some nodes made sinks, a lattice
    query and SGNN settings."""
    n = draw(st.integers(2, 60))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = rng.integers(-3, 4, size=(n, dim)).astype(float)
    knn = make_knn_graph(coords, draw(st.integers(1, min(6, n - 1))))
    sinks = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    adjacency = tuple(() if u in sinks else nbrs for u, nbrs in enumerate(knn.adjacency))
    query = rng.integers(-3, 4, size=dim).astype(float)
    kw = dict(
        I=draw(st.integers(1, 4)), J=draw(st.integers(0, 4)), T=draw(st.integers(0, 2)),
        K=draw(st.integers(1, n)),
    )
    return Graph(n, True, adjacency), PointSet(coords), query, kw, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=lattice_queries())
def test_sgnn_query_matches_the_plain_composition(case):
    """sgnn_query equals the reference that chains through cache.evaluate on
    a plain Generator and sorts the whole pool: same result, chain count
    and final generator state, with ties at the K-th distance ranked by id."""
    g, ps, q, kw, seed = case
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if seed % 2:  # open on a buffered half-word
        for r in (ours, twin):
            r.integers(3)
    assert sgnn_query(g, ps, q, rng=ours, **kw) == sgnn_query_reference(g, ps, q, rng=twin, **kw)
    assert ours.bit_generator.state == twin.bit_generator.state


def test_sgnn_query_refuses_a_non_pcg64_generator():
    ps = PointSet(np.array([[1.0], [1.2], [0.5]]))
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    mt = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        sgnn_query(g, ps, np.array([0.0]), I=1, J=1, T=1, K=1, rng=mt)


@pytest.mark.parametrize("n_graph", [100, 400])
def test_sgnn_query_refuses_a_graph_not_of_the_points(n_graph):
    # a smaller graph answered from its ids alone; a larger one hit an IndexError
    rng = np.random.default_rng(5)
    ps = PointSet(rng.normal(size=(300, 3)))
    g = make_knn_graph(rng.normal(size=(n_graph, 3)), 5)
    draws = np.random.default_rng(0)
    before = draws.bit_generator.state
    with pytest.raises(ValueError, match=f"^a graph of {n_graph} nodes for 300 points$"):
        sgnn_query(g, ps, np.zeros(3), I=3, J=3, T=1, K=5, rng=draws)
    assert draws.bit_generator.state == before


def test_recall_trend_is_non_decreasing_in_restarts():
    rng = np.random.default_rng(17)
    coords = rng.normal(size=(256, 3))
    ps = PointSet(coords)
    g = make_knn_graph(ps, 6)
    J = default_rounds(256)
    means = {}
    for I in (1, 4, 10):
        vals = []
        for seed in range(60):
            srng = np.random.default_rng((23, seed))
            q = srng.normal(size=3)
            res = sgnn_query(g, ps, q, I=I, J=J, T=1, K=10, rng=srng)
            vals.append(recall_at_k(res, exact_nn(ps, q, 10), 10))
        means[I] = float(np.mean(vals))
    assert means[1] <= means[4] + 0.02
    assert means[4] <= means[10] + 0.02
    assert means[10] > means[1]


def test_points_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    ps = PointSet(rng.normal(size=(12, 5)), labels=tuple("ab" * 6))
    # labels go to the sibling <path>.labels on save and come from it on load
    p = tmp_path / "pts.csv"
    save_points(ps, p)
    assert (tmp_path / "pts.csv.labels").exists()
    back = load_points(p)
    assert np.array_equal(back.coords, ps.coords)
    assert back.labels == ps.labels
    (tmp_path / "pts.csv.labels").unlink()
    assert load_points(p).labels is None

    unlabeled = PointSet(ps.coords)
    save_points(unlabeled, tmp_path / "pts3.csv")
    assert not (tmp_path / "pts3.csv.labels").exists()
    assert load_points(tmp_path / "pts3.csv").labels is None


# A label is one line of the labels file, read back stripped: non-empty,
# no line break (universal newlines also split on a carriage return) and
# no surrounding whitespace.
labels_text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
    lambda lab: lab == lab.strip() and "\n" not in lab and "\r" not in lab
)


@st.composite
def point_files(draw):
    n, dim = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coords = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=n, max_size=n))
    labels = draw(st.none() | st.lists(labels_text, min_size=n, max_size=n).map(tuple))
    return coords, labels


@settings(max_examples=200, deadline=None)
@given(case=point_files())
def test_point_file_round_trip(case, tmp_path_factory):
    coords, labels = case
    out = tmp_path_factory.mktemp("points")
    save_points(PointSet(np.array(coords), labels), out / "p.csv")
    back = load_points(out / "p.csv")
    assert back.coords.tolist() == coords
    assert back.labels == labels
    save_points(back, out / "again.csv")
    assert (out / "again.csv").read_bytes() == (out / "p.csv").read_bytes()
    if labels is not None:
        assert (out / "again.csv.labels").read_bytes() == (out / "p.csv.labels").read_bytes()


# the edges of the %.17g form: signed zero, the smallest subnormal and
# normal, the largest finite floats, a decimal that needs all 17 digits,
# and integral floats (written with no point below 1e17, with an exponent
# from there)
_edge_floats = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, -0.1, 1.0, -3.0, 1e16, 2.0**53 + 2, 1e17]


@st.composite
def written_clouds(draw):
    n, dim = draw(st.integers(1, 50)), draw(st.integers(1, 12))
    # the bulk from a seeded generator (drawing each float through hypothesis
    # costs seconds): magnitudes 1e-300..1e300, about a third integral
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-300, 301, size=(n, dim))
    integral = rng.random((n, dim)) < 0.3
    coords[integral] = rng.integers(-10**6, 10**6, size=int(integral.sum()))
    slot = st.integers(0, n * dim - 1)
    for i, v in draw(st.lists(st.tuples(slot, st.sampled_from(_edge_floats) | st.floats(
            allow_nan=False, allow_infinity=False)), max_size=3 * dim)):
        coords.flat[i] = v
    labels = draw(st.none() | st.lists(labels_text, min_size=n, max_size=n).map(tuple))
    return coords, labels


@settings(max_examples=200, deadline=None)
@given(case=written_clouds())
def test_save_points_writes_the_csv_writer_bytes(case, tmp_path_factory):
    coords, labels = case
    ps = PointSet(coords, labels)
    out = tmp_path_factory.mktemp("written")
    save_points(ps, out / "p.csv")
    save_points_reference(ps, out / "ref.csv")
    assert (out / "p.csv").read_bytes() == (out / "ref.csv").read_bytes()
    assert (out / "p.csv.labels").exists() == (labels is not None)
    if labels is not None:
        assert (out / "p.csv.labels").read_bytes() == (out / "ref.csv.labels").read_bytes()
    assert load_points(out / "p.csv").coords.tobytes() == ps.coords.tobytes()


@pytest.mark.parametrize(
    "labels",
    [(0, 1), ("a", ""), ("a\nb", "c"), ("a", "b\rc"), (" a", "b"), ("a", "b\t"), ("a", "\ud800")],
    ids=["not-str", "empty", "newline", "carriage-return", "leading-space", "trailing-tab",
         "lone-surrogate"],
)
def test_save_points_refuses_labels_the_file_cannot_hold(labels, tmp_path):
    with pytest.raises(ValueError, match="label"):
        save_points(PointSet(np.zeros((2, 1)), labels), tmp_path / "p.csv")
    assert not list(tmp_path.iterdir())


def test_load_points_label_count_mismatch(tmp_path):
    p = tmp_path / "pts.csv"
    lp = tmp_path / "pts.csv.labels"
    p.write_text("0.0,1.0\n2.0,3.0\n")
    lp.write_text("a\n")
    with pytest.raises(ValueError, match="expected 2 labels, got 1"):
        load_points(p)


def test_load_points_skips_a_blank_row(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.0,1.0\n\n2.0,3.0\n")
    assert load_points(p).coords.tolist() == [[0.0, 1.0], [2.0, 3.0]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.0,1.0\n2.0,x\n", r":2: could not convert string to float: 'x'$"),
        ("0.0,1.0\n\n2.0\n", r":3: inconsistent dimension$"),
        ("", r"pts\.csv: empty point file$"),
        ("\n\n", r"pts\.csv: empty point file$"),
        ("0.0,1.0\n\n2.0,nan\n", r"pts\.csv:3: coordinates must be finite, got 'nan'$"),
        ("0.0,1e400\n-inf,3.0\n", r"pts\.csv:1: coordinates must be finite, got '1e400'$"),
        # the first faulty line is named, whatever fault a later line has
        ("1,2\nnan,3\n4,5\n6,abc\n", r"pts\.csv:2: coordinates must be finite, got 'nan'$"),
        ("1,2\ninf,3\n4,5,6\n", r"pts\.csv:2: coordinates must be finite, got 'inf'$"),
    ],
    ids=[
        "not-a-number", "wrong-dimension", "empty", "only-blank-rows", "nan-after-a-blank-row", "beyond-a-float",
        "nan-before-a-parse-fault", "inf-before-a-dimension-fault",
    ],
)
def test_load_points_refuses_a_malformed_file(text, message, tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_points(p)
