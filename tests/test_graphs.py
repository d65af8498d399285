import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphopt import (
    Graph,
    GraphFormatError,
    GridSpec,
    Path,
    PointSet,
    grid_coords,
    grid_node_id,
    grid_value,
    load_graph,
    make_grid_graph,
    make_knn_graph,
    make_plain_grid,
    random_walk,
    save_graph,
)


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_from_edges_symmetrizes():
    g = triangle()
    assert g.neighbors(0) == (1, 2)
    assert g.degree(1) == 2
    assert g.has_edge(2, 0)
    assert g.edge_count() == 3


def test_validation_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph(3, False, ((0,), (0,), ()))  # self-loop
    with pytest.raises(ValueError):
        Graph(3, False, ((1, 1), (0, 0), ()))  # duplicates
    with pytest.raises(ValueError):
        Graph(3, False, ((2, 1), (0,), (0,)))  # unsorted
    with pytest.raises(ValueError):
        Graph(2, False, ((1,), (0, 5)))  # out of range
    with pytest.raises(ValueError):
        Graph(3, False, ((1,), (), ()))  # asymmetric undirected


def test_directed_graph_may_be_asymmetric():
    g = Graph(2, True, ((1,), ()))
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == ()


def test_path_checks_edges_and_repeats():
    g = triangle()
    Path(g, (0, 1, 2))
    with pytest.raises(ValueError):
        Path(g, (0, 1, 0))
    g2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        Path(g2, (0, 2))


def test_random_walk_matches_transition_matrix():
    """Two-step occupancy on a path graph vs the exact chain."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    P = np.array([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
    want = (np.linalg.matrix_power(P, 2))[0]
    rng = np.random.default_rng(7)
    hits = np.zeros(3)
    reps = 20000
    for _ in range(reps):
        hits[random_walk(g, 0, 2, rng)] += 1
    assert np.allclose(hits / reps, want, atol=0.02)


def test_random_walk_stops_at_dead_end():
    g = Graph(2, True, ((1,), ()))
    rng = np.random.default_rng(0)
    assert random_walk(g, 0, 10, rng) == 1


def test_plain_grid_shape_and_values():
    D = 3
    g, table = make_plain_grid(D)
    assert g.n == (2 * D + 1) ** 2
    center = grid_node_id(0, 0, D)
    corner = grid_node_id(D, D, D)
    assert g.degree(center) == 8
    assert g.degree(corner) == 3
    assert table.value(center) == pytest.approx(0.8)
    assert table.value(corner) == pytest.approx(0.0)
    # id <-> coordinate maps invert each other
    for i in range(g.n):
        x, y = grid_coords(i, D)
        assert grid_node_id(x, y, D) == i
        assert table.value(i) == pytest.approx(grid_value(x, y, D))


def test_augmented_grid_reaches_target_degree():
    spec = GridSpec(D=10, target_degree=15, seed=3)
    g, _ = make_grid_graph(spec)
    assert g.n == 441
    degs = [g.degree(i) for i in range(g.n)]
    assert min(degs) >= 8
    # augmentation tops up low-degree nodes; the bulk must sit at target
    assert sum(1 for d in degs if d >= 15) > 0.9 * g.n


def test_augmented_grid_deterministic():
    a, _ = make_grid_graph(GridSpec(D=5, target_degree=9, seed=42))
    b, _ = make_grid_graph(GridSpec(D=5, target_degree=9, seed=42))
    c, _ = make_grid_graph(GridSpec(D=5, target_degree=9, seed=43))
    assert a.adjacency == b.adjacency
    assert a.adjacency != c.adjacency


def brute_force_knn(coords, N):
    n = len(coords)
    out = []
    for i in range(n):
        d = np.sum((coords - coords[i]) ** 2, axis=1)
        order = sorted((float(d[j]), j) for j in range(n) if j != i)
        out.append(tuple(sorted(j for _, j in order[:N])))
    return out


def test_knn_graph_against_brute_force():
    rng = np.random.default_rng(11)
    coords = rng.normal(size=(60, 4))
    g = make_knn_graph(PointSet(coords), 5)
    assert g.directed
    want = brute_force_knn(coords, 5)
    for i in range(60):
        assert g.neighbors(i) == want[i]


def test_knn_graph_tie_prefers_lower_id():
    coords = np.array([[0.0], [1.0], [-1.0], [5.0]])
    g = make_knn_graph(PointSet(coords), 1)
    # nodes 1 and 2 are equidistant from 0; lower id wins
    assert g.neighbors(0) == (1,)


def argsort_knn(coords, N):
    """The per-row stable-argsort selection the block selection replaced."""
    n = coords.shape[0]
    adjacency = []
    chunk = max(1, min(n, 2_000_000 // n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        diff = coords[lo:hi, None, :] - coords[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        for row in range(hi - lo):
            d2[row, lo + row] = np.inf
            order = np.argsort(d2[row], kind="stable")[:N]
            adjacency.append(tuple(sorted(int(v) for v in order)))
    return Graph(n, True, tuple(adjacency))


@st.composite
def point_clouds(draw):
    kind = draw(st.sampled_from(["gaussian", "lattice", "line", "wide"]))
    n = draw(st.integers(2, 60))
    dim = draw(st.integers(1, 6))
    if kind == "line":
        dim = 1
    elif kind == "wide":
        # (rows, n, dim) blocks of about 2M floats: these span several blocks
        n, dim = draw(st.integers(60, 120)), draw(st.integers(400, 800))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        # few distinct coordinates: many exact distance ties
        coords = rng.integers(-2, 3, size=(n, dim)).astype(float)
    elif kind == "line":
        coords = rng.integers(-5, 6, size=(n, 1)) * 0.5
    else:
        coords = rng.normal(size=(n, dim))
    N = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    return coords, N


@settings(max_examples=150, deadline=None)
@given(case=point_clouds())
def test_knn_block_selection_matches_stable_argsort(case, tmp_path_factory):
    coords, N = case
    g = make_knn_graph(coords, N)
    want = argsort_knn(coords, N)
    assert g.adjacency == want.adjacency
    out = tmp_path_factory.mktemp("knn")
    save_graph(g, out / "new.txt")
    save_graph(want, out / "old.txt")
    assert (out / "new.txt").read_bytes() == (out / "old.txt").read_bytes()


def test_knn_block_selection_matches_stable_argsort_across_tall_blocks():
    # n^2 * dim above 2M floats: several row blocks, ties from the lattice
    rng = np.random.default_rng(5)
    for coords in (rng.normal(size=(640, 8)), rng.integers(-3, 4, size=(640, 8)) * 1.0):
        assert make_knn_graph(coords, 10).adjacency == argsort_knn(coords, 10).adjacency


def test_knn_graph_rejects_non_finite_points():
    coords = np.array([[0.0], [1.0], [np.nan]])
    with pytest.raises(ValueError, match="finite"):
        make_knn_graph(coords, 1)


def test_save_load_roundtrip(tmp_path):
    g, table = make_grid_graph(GridSpec(D=2, target_degree=8, seed=1))
    p = tmp_path / "g.txt"
    save_graph(g, p, values=table)
    g2, t2 = load_graph(p)
    assert g2.adjacency == g.adjacency
    assert g2.directed == g.directed
    assert np.array_equal(t2.means, table.means)
    # byte stability
    save_graph(g, tmp_path / "again.txt", values=table)
    assert (tmp_path / "g.txt").read_bytes() == (tmp_path / "again.txt").read_bytes()


def test_load_graph_without_values(tmp_path):
    g = triangle()
    p = tmp_path / "g.txt"
    save_graph(g, p)
    g2, t2 = load_graph(p)
    assert t2 is None
    assert g2.adjacency == g.adjacency


def test_load_graph_reports_bad_lines(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3 directed=0\n0: 1\n1: 0 zzz\n2:\n")
    with pytest.raises(GraphFormatError):
        load_graph(p)
