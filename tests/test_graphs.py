import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphopt import (
    Graph,
    GraphFormatError,
    GridSpec,
    Path,
    PointSet,
    graphs,
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


@pytest.mark.parametrize(
    "spec",
    [
        GridSpec(D=3, target_degree=15, seed=0),  # reaches the fallback, no pair left
        GridSpec(D=3, target_degree=47, seed=20),  # the fallback draws a pair
        GridSpec(D=10, target_degree=15, seed=0),
        GridSpec(D=25, target_degree=15, seed=7),
    ],
)
def test_grid_augmentation_draws_as_numpy(spec, monkeypatch):
    """The augmentation loop gives the graph that numpy's own scalar
    draws on the same seed give."""
    g, _ = make_grid_graph(spec)
    monkeypatch.setattr(graphs, "_Draws", nullcontext)  # the plain Generator
    want, _ = make_grid_graph(spec)
    assert g.adjacency == want.adjacency


# integers(n) ranges: trivial, small, a degree, large, and the 32-bit edges
_DRAW_RANGES = (1, 2, 3, 10, 2000, 2**31 + 5, 2**32 - 1, 2**32)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    lead=st.integers(0, 2),
    pattern=st.lists(st.sampled_from(_DRAW_RANGES) | st.none(), min_size=1, max_size=12),
    length=st.integers(0, 6 * graphs._DRAW_CHUNK),
)
@example(seed=0, lead=1, pattern=[None, 10, 2**31 + 5], length=5 * graphs._DRAW_CHUNK)
def test_draws_match_numpy_scalar_calls(seed, lead, pattern, length):
    """_Draws gives numpy's values and leaves numpy's full state; ``None``
    in the pattern stands for random(). ``lead`` integers(5) draws before
    it opens leave a buffered half-word (1) or a consumed one (2)."""
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(lead):
        for r in (ours, twin):
            r.integers(5)
    calls = [pattern[i % len(pattern)] for i in range(length)]
    with graphs._Draws(ours) as draws:
        got = [draws.random() if n is None else draws.integers(n) for n in calls]
    want = [twin.random() if n is None else int(twin.integers(n)) for n in calls]
    assert got == want
    assert ours.bit_generator.state == twin.bit_generator.state
    assert ours.random() == twin.random()
    assert ours.integers(7) == twin.integers(7)


def test_draws_refuse_ranges_beyond_32_bits():
    with graphs._Draws(np.random.default_rng(0)) as draws:
        for n in (0, -3, 2**32 + 1):
            with pytest.raises(ValueError, match="2\\*\\*32"):
                draws.integers(n)


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
        # n * dim of 24K-96K floats per row: these span several 256K-float blocks
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
    # n^2 * dim far above one block's 256K floats: many row blocks, ties from the lattice
    rng = np.random.default_rng(5)
    for coords in (rng.normal(size=(640, 8)), rng.integers(-3, 4, size=(640, 8)) * 1.0):
        assert make_knn_graph(coords, 10).adjacency == argsort_knn(coords, 10).adjacency


def knn_outcome(build, coords, N, path):
    """The bytes ``save_graph`` writes for ``build(coords, N)``, or the
    message of the ValueError it raises."""
    try:
        save_graph(build(coords, N), path)
    except ValueError as exc:
        return str(exc)
    return path.read_bytes()


def scaled_clouds():
    rng = np.random.default_rng(12)
    gauss = rng.normal(size=(90, 6))
    lattice = rng.integers(-1, 2, size=(90, 2)).astype(float)
    return {
        # squared norms overflow; the exact differences do not
        "x1e155-near": 1e155 * (1 + 0.01 * gauss),
        # squared norms finite, their pairwise sums not
        "x1e154-edge": 1e154 * rng.uniform(-1.3, 1.3, size=(90, 1)),
        # squared differences overflow too: every row ties at inf and the
        # lowest ids include the point itself, so both builds refuse it
        "x1e155": 1e155 * gauss,
        "x1e200": 1e200 * gauss,
        # every nonzero difference overflows; duplicates keep the graph buildable
        "x1e200-lattice": 1e200 * lattice,
        "x1e-160-subnormal": 1e-160 * gauss,
        "x1e-160-lattice": 1e-160 * lattice,
        "offset-1e8": gauss + 1e8,
        "all-equal": np.full((90, 6), 0.3),
        "dim-1": rng.integers(-4, 5, size=(90, 1)) * 0.25,
        "origin-and-duplicates": np.vstack([np.zeros((5, 3)), rng.normal(size=(40, 3))] * 2),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(scaled_clouds()))
@pytest.mark.parametrize("N", [1, 10, "n-1"])
def test_knn_graph_matches_stable_argsort_at_extreme_scales_and_ties(name, N, tmp_path):
    coords = scaled_clouds()[name]
    N = len(coords) - 1 if N == "n-1" else N
    got = knn_outcome(make_knn_graph, coords, N, tmp_path / "new.txt")
    assert got == knn_outcome(argsort_knn, coords, N, tmp_path / "old.txt")


def test_knn_graph_memory_when_every_point_is_a_candidate():
    # all points equal: every row ties everywhere, so the exact recheck is
    # n wide; it must still run in blocks and peak near a generic cloud
    def peak(coords):
        make_knn_graph(coords, 10)
        tracemalloc.start()
        try:
            make_knn_graph(coords, 10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    generic = peak(np.random.default_rng(3).normal(size=(1500, 10)))
    assert peak(np.full((1500, 10), 2.5)) <= 2 * generic


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


# ---------------------------------------------------------------------------
# Graph validation, edge building and the graph file format against the
# per-element loops they replaced


def reference_validate(n, directed, adjacency):
    """Graph.__post_init__ as a per-element loop."""
    if n <= 0:
        raise ValueError("graph must have at least one node")
    if len(adjacency) != n:
        raise ValueError("adjacency length must equal n")
    for u, nbrs in enumerate(adjacency):
        seen = set()
        for v in nbrs:
            if not 0 <= v < n:
                raise ValueError(f"node {u}: neighbor {v} out of range")
            if v == u:
                raise ValueError(f"self-loop at node {u}")
            if v in seen:
                raise ValueError(f"duplicate edge {u}->{v}")
            seen.add(v)
        if tuple(sorted(nbrs)) != tuple(nbrs):
            raise ValueError(f"adjacency of node {u} not sorted")
    if not directed:
        for u, nbrs in enumerate(adjacency):
            for v in nbrs:
                if u not in adjacency[v]:
                    raise ValueError(f"asymmetric undirected edge {u}-{v}")


def reference_from_edges(n, edges, directed):
    """Graph.from_edges as a per-edge loop over neighbour sets."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        adj[u].add(v)
        if not directed:
            adj[v].add(u)
    return tuple(tuple(sorted(s)) for s in adj)


def outcome(fn, *args):
    """(exception type, message) of a call, or (None, result)."""
    try:
        return None, fn(*args)
    except Exception as exc:  # compared with the reference, not swallowed
        return type(exc), str(exc)


# values out of range of every node; 2**70 does not fit in int64
FAR = st.sampled_from([-1, -7, 2**70, -(2**70)])


@st.composite
def valid_adjacency(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    rows = [[] for _ in range(n)]
    for u, v in sorted(edges):
        rows[u].append(v)
        if not directed:
            rows[v].append(u)
    return n, directed, [sorted(row) for row in rows]


@st.composite
def faulty_adjacency(draw):
    n, directed, rows = draw(valid_adjacency())
    for _ in range(draw(st.integers(0, 3))):
        u = draw(st.integers(0, n - 1))
        row = rows[u]
        at = draw(st.integers(0, len(row)))
        kind = draw(st.sampled_from(["range", "loop", "dup", "unsorted", "drop", "one-way"]))
        if kind == "range":
            row.insert(at, draw(FAR | st.integers(n, n + 3)))
        elif kind == "loop":
            row.insert(at, u)
        elif kind == "dup" and row:
            row.insert(at, draw(st.sampled_from(row)))
        elif kind == "unsorted" and len(row) > 1:
            i = draw(st.integers(0, len(row) - 2))
            row[i], row[i + 1] = row[i + 1], row[i]
        elif kind == "drop" and row:
            del row[min(at, len(row) - 1)]
        elif kind == "one-way":
            v = draw(st.integers(0, n - 1))
            if v != u and v not in row:
                row.append(v)
                row.sort()
    return n, directed, tuple(tuple(row) for row in rows)


@settings(max_examples=600, deadline=None)
@given(case=faulty_adjacency())
def test_validation_matches_the_per_element_loop(case):
    n, directed, adjacency = case
    want = outcome(reference_validate, n, directed, adjacency)
    got = outcome(Graph, n, directed, adjacency)
    assert got[0] == want[0]
    if want[0] is not None:
        assert got[1] == want[1]


def test_validation_reports_the_lowest_faulty_node():
    # node 1 has a duplicate and node 0 is unsorted: node 0 comes first
    with pytest.raises(ValueError, match="^adjacency of node 0 not sorted$"):
        Graph(3, True, ((2, 1), (2, 2), ()))
    # within a node the first faulty entry wins, range before self-loop
    with pytest.raises(ValueError, match="^node 1: neighbor 9 out of range$"):
        Graph(3, True, ((), (9, 1), ()))
    with pytest.raises(ValueError, match=r"^node 0: neighbor 1180591620717411303424 out of range$"):
        Graph(2, True, ((2**70,), ()))
    with pytest.raises(ValueError, match="^asymmetric undirected edge 0-2$"):
        Graph(3, False, ((1, 2), (0,), ()))


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node) | st.tuples(node, FAR) | st.tuples(FAR, node)
    # mostly valid lists, with repeats and both directions of an edge
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=20))
    if draw(st.booleans()):
        edges.insert(draw(st.integers(0, len(edges))), draw(edge))
    if edges:
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=5))]
    return n, edges, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(case=edge_lists())
def test_from_edges_matches_set_semantics(case):
    n, edges, directed = case
    want = outcome(reference_from_edges, n, edges, directed)
    got = outcome(lambda: Graph.from_edges(n, edges, directed=directed).adjacency)
    assert got == want


def test_from_edges_keeps_repeated_and_reversed_edges_once():
    edges = [(0, 1), (1, 0), (0, 1), (2, 3), (3, 2), (1, 2), (1, 2)]
    g = Graph.from_edges(4, edges)
    assert g.adjacency == ((1,), (0, 2), (1, 3), (2,)) == reference_from_edges(4, edges, False)
    d = Graph.from_edges(4, edges, directed=True)
    assert d.adjacency == ((1,), (0, 2), (3,), (2,)) == reference_from_edges(4, edges, True)


@st.composite
def reformatted(draw, text):
    """The same graph file with blank lines, surrounding whitespace and CRLF ends."""
    pad = st.sampled_from(["", " ", "\t", "  \t "])
    out = []
    for line in text.splitlines():
        out.extend(draw(pad) for _ in range(draw(st.integers(0, 1))))
        u, *rest = line.split(" ")
        sep = draw(st.sampled_from([" ", "\t", "   "]))
        out.append(draw(pad) + sep.join([u, *rest]) + draw(pad))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from(["", end, end + end]))


@settings(max_examples=200, deadline=None)
@given(case=valid_adjacency(max_n=14), data=st.data())
def test_graph_file_round_trip(case, data, tmp_path_factory):
    n, directed, rows = case
    g = Graph(n, directed, tuple(map(tuple, rows)))
    out = tmp_path_factory.mktemp("roundtrip")
    save_graph(g, out / "g.txt")
    back, _ = load_graph(out / "g.txt")
    assert (back.n, back.directed, back.adjacency) == (g.n, g.directed, g.adjacency)
    save_graph(back, out / "again.txt")
    assert (out / "again.txt").read_bytes() == (out / "g.txt").read_bytes()
    messy = data.draw(reformatted((out / "g.txt").read_text()))
    (out / "messy.txt").write_bytes(messy.encode())
    assert load_graph(out / "messy.txt")[0].adjacency == g.adjacency


GRAPH_FILE_FAULTS = [
    # (file text, error after "<path>")
    ("\n  \n\t\n", ": missing header line"),
    ("\n\nn 3 undirected 0\n0 1\n", ":3: bad header 'n 3 undirected 0'"),
    ("n 3 directed\n", ":1: bad header 'n 3 directed'"),
    ("n x directed 0\n", ":1: invalid literal for int() with base 10: 'x'"),
    ("n 0 directed 0\n", ":1: bad header values"),
    ("n 3 directed 2\n", ":1: bad header values"),
    # edge keys u * n + v would overflow int64; refused before any allocation
    ("n 3037000500 directed 1\n", ":1: bad header values"),
    ("n 9223372036854775807 directed 1\n0 1\n0 1\n", ":1: bad header values"),
    ("n 9223372036854775808 directed 0\n", ":1: bad header values"),
    ("n 3 directed 0\n0 1\n2\n", ":3: expected 'u v', got '2'"),
    ("n 3 directed 0\n0 1\n\n  0 1 2 \n", ":4: expected 'u v', got '0 1 2'"),
    ("n 3 directed 0\n0 1\n1 zz\n", ":3: invalid literal for int() with base 10: 'zz'"),
    ("n 3 directed 1\n0 3\n", ":2: edge (0,3) out of range"),
    ("n 3 directed 1\n-1 2\n", ":2: edge (-1,2) out of range"),
    ("n 3 directed 0\n0 99999999999999999999999\n", ":2: edge (0,99999999999999999999999) out of range"),
    ("n 3 directed 1\n0 1\n1 1\n", ":3: self-loop at 1"),
    ("n 3 directed 0\n0 1\n2 1\n", ":3: undirected edges need u < v"),
    ("n 3 directed 0\n0 1\n1 2\n0 1\n", ": duplicate edge (0, 1)"),
    ("n 4 directed 1\n2 3\n0 1\n1 0\n0 1\n2 3\n", ": duplicate edge (2, 3)"),
    # two defects: the earlier line is the one reported
    ("n 3 directed 0\n0 1\n1 1\n0 1 2\n", ":3: self-loop at 1"),
    ("n 3 directed 0\n0 1 2\n1 1\n", ":2: expected 'u v', got '0 1 2'"),
    ("n 3 directed 0\n0 x\n0 5\n", ":2: invalid literal for int() with base 10: 'x'"),
    ("n 3 directed 0\n0 5\n0 x\n", ":2: edge (0,5) out of range"),
    ("n 3 directed 0\n0 1\n0 1\n2 1\n", ":4: undirected edges need u < v"),
]


@pytest.mark.parametrize("text,error", GRAPH_FILE_FAULTS)
def test_graph_file_errors_name_the_earliest_fault(tmp_path, text, error):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(GraphFormatError) as exc:
        load_graph(p)
    assert str(exc.value) == f"{p}{error}"


def reference_parse(path):
    """The graph file parser as a per-line loop: its adjacency, or its error."""
    header = None
    edges = []
    n = 0
    directed = False
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "n" or parts[2] != "directed":
                raise GraphFormatError(f"{path}:{lineno}: bad header {line!r}")
            try:
                n = int(parts[1])
                flag = int(parts[3])
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
            if n <= 0 or flag not in (0, 1):
                raise GraphFormatError(f"{path}:{lineno}: bad header values")
            directed = bool(flag)
            header = line
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"{path}:{lineno}: edge ({u},{v}) out of range")
        if u == v:
            raise GraphFormatError(f"{path}:{lineno}: self-loop at {u}")
        if not directed and u >= v:
            raise GraphFormatError(f"{path}:{lineno}: undirected edges need u < v")
        edges.append((u, v))
    if header is None:
        raise GraphFormatError(f"{path}: missing header line")
    if len(set(edges)) != len(edges):
        dup = next(e for e in edges if edges.count(e) > 1)
        raise GraphFormatError(f"{path}: duplicate edge {dup}")
    return reference_from_edges(n, edges, directed)


@st.composite
def graph_files(draw):
    """Long edge lists, mostly well formed, with a few faulty lines."""
    n = draw(st.integers(2, 30))
    directed = draw(st.booleans())
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=300))
    lines = [f"{min(e)} {max(e)}" if not directed else f"{e[0]} {e[1]}" for e in edges]
    faults = st.sampled_from(
        ["", "7", "1 2 3", "0 x", "x 0", "1 1", f"0 {n}", "-1 0", "1 0", "0 1", "+1  0_1"]
    )
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(faults | st.sampled_from(lines or ["0 1"])))
    return f"n {n} directed {int(directed)}\n" + "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=graph_files())
def test_graph_file_parse_matches_the_per_line_loop(text, tmp_path_factory):
    p = tmp_path_factory.mktemp("parse") / "g.txt"
    p.write_text(text)
    assert outcome(lambda: load_graph(p)[0].adjacency) == outcome(reference_parse, p)
