"""Graph construction, random walks, and the text file formats.

Graphs are immutable adjacency structures over nodes 0..n-1. Undirected
graphs store both directions internally; the file format stores each
undirected edge once as ``u v`` with u < v.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import index, length_hint
from typing import Iterable, Sequence

import numpy as np

from .values import ValueTable, _digit_runs, _flag, _node, _whole, load_values, save_values


class GraphFormatError(ValueError):
    """A graph file failed to parse or validate."""


@dataclass(frozen=True)
class Graph:
    """Immutable graph with sorted adjacency lists.

    Invariants: ``n`` is a whole number >= 1, stored as an int (2.0 and
    numpy.int64(2) are taken as 2), ``directed`` equals True or False (0,
    1 and numpy bools do), node ids are integers in range, no self-loops,
    no duplicate edges, rows sorted, and symmetric adjacency when
    undirected. They are checked once, where a graph comes in from outside
    graphopt, by plain loops: ``Graph(...)`` checks every entry in turn and
    then every row, and ``from_edges`` and ``load_graph`` check the edges
    they are given. The grid and kNN builders make graphs that hold them
    by construction, and those are not checked again.
    """

    n: int
    directed: bool
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self):
        adjacency = self.adjacency
        _flag("directed", self.directed)
        n = _whole("n", self.n)
        object.__setattr__(self, "n", n)
        if n <= 0:
            raise ValueError("graph must have at least one node")
        if len(adjacency) != n:
            raise ValueError("adjacency length must equal n")
        for u, nbrs in enumerate(adjacency):
            seen = set()
            for v in nbrs:
                if not isinstance(v, (int, np.integer)):
                    raise ValueError(f"node {u}: neighbor {v!r} is not an integer")
                if not 0 <= v < n:
                    raise ValueError(f"node {u}: neighbor {v} out of range")
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                if v in seen:
                    raise ValueError(f"duplicate edge {u}->{v}")
                seen.add(v)
            if any(a > b for a, b in zip(nbrs, nbrs[1:])):
                raise ValueError(f"adjacency of node {u} not sorted")
        if not self.directed:
            edges = [(u, v) for u, nbrs in enumerate(adjacency) for v in nbrs]
            back = set(edges)
            for u, v in edges:
                if (v, u) not in back:
                    raise ValueError(f"asymmetric undirected edge {u}-{v}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], directed: bool = False) -> "Graph":
        """Graph on the set of ``edges``, each a pair of integers (numpy ones
        are stored as Python ints); a repeated edge is allowed."""
        n = _whole("n", n, 1)
        _flag("directed", directed)
        adj = [set() for _ in range(n)]
        for edge in edges:
            try:
                u, v = map(index, edge)
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of integers") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            adj[u].add(v)
            if not directed:
                adj[v].add(u)
        return _unchecked(n, directed, tuple(tuple(sorted(s)) for s in adj))

    def neighbors(self, x: int) -> tuple[int, ...]:
        return self.adjacency[x]

    def degree(self, x: int) -> int:
        """Out-degree of x (equals degree on undirected graphs)."""
        return len(self.adjacency[x])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edge_count(self) -> int:
        total = sum(len(nbrs) for nbrs in self.adjacency)
        return total if self.directed else total // 2


def _unchecked(n: int, directed: bool, adjacency: tuple[tuple[int, ...], ...]) -> Graph:
    """A Graph of fields that hold its invariants by construction, set
    without checking them again."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "directed", directed)
    object.__setattr__(g, "adjacency", adjacency)
    return g


def _from_pairs(n: int, directed: bool, u: np.ndarray, v: np.ndarray) -> Graph:
    """Graph on the int64 edges (u[i], v[i]), both directions when undirected.

    It checks nothing and trusts its callers for ids in 0..n-1 and no
    self-loop: ``load_graph`` passes the edges ``_parse_edges`` checked,
    and ``make_plain_grid`` edges that hold by construction.
    """
    keys = u * n + v
    if not directed:
        keys = np.concatenate((keys, v * n + u))
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]  # each edge once
    # ascending unique keys in range: rows sorted, no duplicate, symmetric when undirected
    src, dst = np.divmod(keys, n)
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    dst = dst.tolist()
    starts = [0, *ends[:-1]]
    return _unchecked(n, directed, tuple(tuple(dst[a:b]) for a, b in zip(starts, ends)))


@dataclass(frozen=True)
class Path:
    """A simple path bound to its host graph.

    Consecutive nodes must be adjacent (following edge direction on
    directed graphs) and no node may repeat.
    """

    graph: Graph
    nodes: tuple[int, ...]

    def __post_init__(self):
        n = self.graph.n
        object.__setattr__(self, "nodes", tuple(_node("path node", x, n) for x in self.nodes))
        if not self.nodes:
            raise ValueError("path must contain at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("path repeats a node")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if not self.graph.has_edge(a, b):
                raise ValueError(f"consecutive path nodes {a},{b} are not adjacent")


# 64-bit words a _Draws fetches per refill; those left unused are rewound
_DRAW_CHUNK = 256


class _Draws:
    """Context manager standing in for a PCG64 ``Generator``'s scalar
    ``integers(n)`` and ``random()``: the same values and the same final
    generator state, drawn from words fetched in bulk with ``random_raw``.

    A scalar numpy call costs a few µs, mostly call overhead. Both
    algorithms are numpy's own: ``integers(n)`` is Lemire's bounded method
    (arXiv:1805.10941) on a 32-bit half-word, low half first, the high half
    kept in the bit generator's ``has_uint32``/``uinteger`` buffer;
    ``random()`` is ``(w >> 11) * 2**-53`` on a whole word and leaves that
    buffer alone. On exit the unused words are rewound and the buffer is
    written back. The generator must take no other draw while the helper
    is open, so two helpers never nest on one generator.
    """

    def __init__(self, rng: np.random.Generator):
        bg = rng.bit_generator
        if not isinstance(bg, np.random.PCG64):
            raise TypeError(f"draws need a PCG64 bit generator, got {type(bg).__name__}")
        self._bg = bg

    def __enter__(self) -> "_Draws":
        state = self._bg.state
        self._has = bool(state["has_uint32"])
        self._half = state["uinteger"]  # numpy keeps a consumed half here too
        self._words = iter(())
        return self

    def __exit__(self, *exc) -> None:
        unused = length_hint(self._words)
        if unused:
            self._bg.advance(2**128 - unused)  # advance() also clears the buffer
        state = self._bg.state
        state["has_uint32"] = int(self._has)
        state["uinteger"] = self._half
        self._bg.state = state

    def _word(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            self._words = iter(self._bg.random_raw(_DRAW_CHUNK).tolist())
            return next(self._words)

    def integers(self, n: int) -> int:
        """Uniform on 0..n-1, as ``Generator.integers(n)`` for n in 1..2**32."""
        if not 1 < n <= 1 << 32:
            if n == 1:
                return 0  # numpy draws nothing for a range of one
            raise ValueError(f"integers(n) needs n in 1..2**32, got {n}")
        while True:
            if self._has:
                self._has = False
                m = self._half * n
            else:
                w = self._word()
                self._has = True
                self._half = w >> 32
                m = (w & 0xFFFFFFFF) * n
            low = m & 0xFFFFFFFF
            # reject only low < (2**32 - n) % n, a bound below n: low >= n skips the %
            if low >= n or low >= ((1 << 32) - n) % n:
                return m >> 32

    def random(self) -> float:
        """Uniform on [0, 1), as ``Generator.random()``."""
        return (self._word() >> 11) * 2.0**-53


def random_walk(g: Graph, start: int, T: int, rng: np.random.Generator) -> int:
    """Walk T uniform-neighbor steps from start; return the end node.

    A dead end (no out-neighbors) stops the walk early at that node. start
    must be a node id and T a whole number >= 0 (else ValueError).
    """
    if type(start) is not int or not 0 <= start < g.n:
        start = _node("start node", start, g.n)
    if type(T) is not int or T < 0:
        T = _whole("walk length", T, 0)
    cur = start
    for _ in range(T):
        nbrs = g.adjacency[cur]
        if not nbrs:
            break
        cur = nbrs[int(rng.integers(len(nbrs)))]
    return cur


# ---------------------------------------------------------------------------
# Synthetic grid instances


@dataclass(frozen=True)
class GridSpec:
    """Parameters for the augmented grid benchmark instance."""

    D: int
    target_degree: int = 15
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "D", _whole("D", self.D, 1))
        # at least 8: every node's plane neighbors come before any extra edge
        object.__setattr__(self, "target_degree", _whole("target_degree", self.target_degree, 8))
        object.__setattr__(self, "seed", _whole("seed", self.seed, 0))
        n = (2 * self.D + 1) ** 2
        if self.target_degree >= n:
            raise ValueError("target_degree must be < number of nodes")


def grid_value(x: int, y: int, D: int) -> float:
    """Height of the grid hill at (x, y): 0.8 * (1 - (x^2+y^2) / (2 D^2))."""
    return 0.8 * (1.0 - (x * x + y * y) / (2.0 * D * D))


def make_plain_grid(D: int) -> tuple[Graph, ValueTable]:
    """(2D+1)^2 grid with 8-neighbor (king-move) adjacency, no extra edges."""
    D = _whole("D", D, 1)
    side = 2 * D + 1
    ids = np.arange(side * side).reshape(side, side)  # ids[x + D, y + D]
    # each node to its (0,1), (1,-1), (1,0) and (1,1) neighbours
    u = np.concatenate([ids[:, :-1], ids[:-1, 1:], ids[:-1, :], ids[:-1, :-1]], axis=None)
    v = np.concatenate([ids[:, 1:], ids[1:, :-1], ids[1:, :], ids[1:, 1:]], axis=None)
    g = _from_pairs(side * side, False, u, v)
    c = np.arange(-D, D + 1)
    return g, ValueTable(grid_value(c[:, None], c[None, :], D).ravel())


def make_grid_graph(spec: GridSpec) -> tuple[Graph, ValueTable]:
    """Plain grid plus seeded random edges raising degrees toward the target.

    Extra undirected edges join uniformly sampled non-adjacent node pairs
    whose endpoints are both still below ``target_degree``; sampling stops
    when no such pair remains (an odd total deficit can leave one node
    short, which is accepted).
    """
    base, table = make_plain_grid(spec.D)
    n = base.n
    target = spec.target_degree
    adj = [set(nbrs) for nbrs in base.adjacency]

    cands = [u for u in range(n) if len(adj[u]) < target]
    pos = {u: i for i, u in enumerate(cands)}

    def drop(u: int) -> None:
        i = pos.pop(u)
        last = cands.pop()
        if last != u:
            cands[i] = last
            pos[last] = i

    def connect(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        for w in (u, v):
            if len(adj[w]) >= target:
                drop(w)

    with _Draws(np.random.default_rng(spec.seed)) as draws:
        while len(cands) >= 2:
            for _ in range(200):
                i = draws.integers(len(cands))
                j = draws.integers(len(cands))
                if i == j:
                    continue
                u, v = cands[i], cands[j]
                if v in adj[u]:
                    continue
                connect(u, v)
                break
            else:
                ordered = sorted(cands)
                pairs = [
                    (u, v)
                    for ii, u in enumerate(ordered)
                    for v in ordered[ii + 1 :]
                    if v not in adj[u]
                ]
                if not pairs:
                    break
                u, v = pairs[draws.integers(len(pairs))]
                connect(u, v)

    # every edge joins two distinct nodes both ways
    g = _unchecked(n, False, tuple(tuple(sorted(s)) for s in adj))
    return g, table


# ---------------------------------------------------------------------------
# k-nearest-neighbor graphs over point clouds

# rows per kNN block: neither the (rows, n) estimate buffer, which one
# product fills and every block reuses, nor the gathered (rows, candidates,
# dim) differences of the exact recheck hold more than this many floats (2 MB)
_KNN_BLOCK_FLOATS = 1 << 18


def make_knn_graph(points, N: int) -> Graph:
    """Directed graph linking each point to its N nearest others.

    Distance is Euclidean; ties prefer the lower node id. ``points`` is an
    (n, dim) finite float array (or anything exposing ``coords`` shaped
    that way). A cloud where some point's squared distance to one of its
    N nearest overflows a float is refused.
    """
    coords = np.asarray(getattr(points, "coords", points), dtype=float)
    if coords.ndim != 2 or coords.shape[0] < 2:
        raise ValueError("points must be an (n, dim) array with n >= 2")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates must be finite")
    n = coords.shape[0]
    N = _whole("N", N)
    if not 0 < N < n:
        raise ValueError(f"N must be in 1..{n - 1}")
    ids, d2 = _nearest(coords, coords, N, skip_self=True)
    overflow = np.isinf(d2).any(axis=1)
    if overflow.any():
        i = int(np.argmax(overflow))
        raise ValueError(f"squared distance from point {i} to a nearest neighbour overflows a float")
    # finite picks never include the point itself (at inf) or a padding slot
    return _unchecked(n, True, tuple(map(tuple, ids.tolist())))


def _nearest(queries: np.ndarray, points: np.ndarray, K: int, skip_self: bool):
    """The K nearest points to each query: ``(ids, d2)``, both (m, K), ids
    ascending along each row with their squared distances.

    The squared distance that decides is ``einsum`` over the differences
    ``query - point``; ties go to the lower id, which is the set a stable
    ``argsort(d2)[:K]`` takes. With ``skip_self`` the queries are the
    points and row i never takes point i. An estimate only proposes the
    candidates: one BLAS product of augmented rows ``[-2q, 1, |q|^2] .
    [p, |p|^2, 1]`` per block of queries, written into one block buffer
    that every block reuses. A point is a candidate when its estimate lies
    within the rounding bound of an upper bound on the K-th smallest
    estimate: the K-th smallest of the minima of about n/16 interleaved
    column groups. Ties aside, that admits about K * 16 candidates a row at
    worst, where each point's nearest share its group, and all n where
    every estimate ties. The estimate never decides, so its rounding (the
    BLAS build, its kernels and thread count) cannot change the result.
    Each block's candidates are rechecked in slices whose gathered
    differences hold at most ``_KNN_BLOCK_FLOATS`` floats, one slice's at
    a time.
    """
    m, dim = queries.shape
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    right = np.hstack([points, sq[:, None], np.ones((n, 1))]).T
    sq_q = sq if skip_self else np.einsum("ij,ij->i", queries, queries)
    # The estimate e = -2 q.p + sq_j + sq_i, a dot product of dim+2 terms
    # whose last two (1 * sq_j, sq_i * 1) are exact, is within E = 3 (dim+2)
    # eps (sq_i + sq_j) + A of the exact d = |q - p|^2 (both as computed),
    # for any summation order, blocking and FMA use. With u = eps/2, g_k =
    # k u / (1 - k u), S = |q|^2 + |p|^2 and D = |q - p|^2 exactly:
    # - a sum of k products, each term through at most k roundings, is off
    #   by at most g_k times the sum of the absolute products, plus A0 per
    #   rounded product of underflow (A0 = 2**-1075; a sum that underflows
    #   is exact). So sq_i and sq_j are off by g_dim S_i + dim A0 and g_dim
    #   S_j + dim A0, and the terms of e sum to D plus those two errors;
    # - -2q is exact, and 2|q_k p_k| <= q_k^2 + p_k^2, so the terms' absolute
    #   values sum to at most S + sq_i + sq_j and |e - D| <= g_dim S +
    #   g_(dim+2) (S + sq_i + sq_j) + 3 dim A0;
    # - each of d's dim terms is rounded by its difference, its square and
    #   at most dim - 1 additions: |d - D| <= g_(dim+2) D + dim A0, D <= 2S;
    # - so |e - d| <= 4 g_(dim+2) S + g_(dim+2) (sq_i + sq_j) + 4 dim A0 <=
    #   2.55 (dim+2) eps (sq_i + sq_j) + A, with S <= 1.011 (sq_i + sq_j +
    #   2 dim A0) from the first step and g_k <= 1.011 k u (dim below
    #   10**13). c = 3 leaves room for the rounding of E and of the
    #   threshold below, and A = 4 (dim+2) 2**-1074 covers the underflow terms.
    # The K-th smallest estimate is within max_j E of the K-th smallest d,
    # so every point whose d is at most that K-th d has an estimate at most
    # the K-th estimate plus 2 max_j E, and is a candidate. The bound needs
    # no overflow: a row whose sq_i + max sq exceeds 2**1020 (coordinates
    # about 1e153 and up) takes every point as a candidate, as a full scan.
    # Every term of a bounded row's product lies below 2**1021, and -2q
    # overflows only where sq_i is already inf, in an unbounded row.
    # In place of the K-th smallest estimate, each row takes the K-th
    # smallest of the minima of `groups` disjoint column groups (column j in
    # group j mod groups; the last n mod width columns are in none). Those K
    # minima are estimates of K distinct points, so this bound is at least
    # the K-th smallest estimate, and every point that the K-th estimate
    # would make a candidate is still one. A point whose estimate is at
    # most the bound lies in a group whose minimum is at most the bound (K
    # groups, ties aside) or among the ungrouped columns: about K width
    # points before the 2 max_j E slack, where the K-th estimate admits K.
    width = max(1, min(16, n // K))
    groups = n // width
    ids = np.empty((m, K), dtype=np.intp)
    d2 = np.empty((m, K))
    rows = max(1, _KNN_BLOCK_FLOATS // n)
    est = np.empty((min(rows, m), n))
    gmin = np.empty((len(est), groups))
    # overflow only ever makes a row unbounded, and NaN estimates stay in those rows
    with np.errstate(over="ignore", invalid="ignore"):
        sq_max = float(sq.max())
        err = 3 * (dim + 2) * np.finfo(float).eps * (sq_q + sq_max) + 4 * (dim + 2) * 2.0**-1074
        unbounded = sq_q + sq_max > 2.0**1020
        left = np.hstack([-2.0 * queries, np.ones((m, 1)), sq_q[:, None]])
        for lo in range(0, m, rows):
            hi = min(m, lo + rows)
            block = np.matmul(left[lo:hi], right, out=est[: hi - lo])
            if skip_self:
                block[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            low = block[:, : groups * width].reshape(hi - lo, width, groups).min(axis=1, out=gmin[: hi - lo])
            low.partition(K - 1, axis=1)
            cand = block <= (low[:, K - 1] + 2 * err[lo:hi])[:, None]
            cand[unbounded[lo:hi]] = True
            # per row, so no index array spans the block; a 32-bit sum holds
            # any row and runs about twice as fast as a native-int one
            counts = cand.sum(axis=1, dtype=np.uint32)
            step = max(1, _KNN_BLOCK_FLOATS // (int(counts.max()) * max(dim, 1)))
            for a in range(lo, hi, step):
                b = min(hi, a + step)
                c = counts[a - lo : b - lo]
                # each row's candidates, ascending, padded to the widest row
                fill = np.arange(c.max()) < c[:, None]
                idx = np.zeros(fill.shape, dtype=np.intp)
                idx[fill] = np.flatnonzero(cand[a - lo : b - lo]) % n
                diff = points[idx]
                np.subtract(queries[a:b, None, :], diff, out=diff)
                d = np.einsum("ijk,ijk->ij", diff, diff)
                del diff  # so the next slice's gather does not sit beside it
                d[~fill] = np.inf
                if skip_self:
                    d[idx == np.arange(a, b)[:, None]] = np.inf
                # a stable sort ranks ties lowest id first; the K taken go back to id order
                take = np.sort(np.argsort(d, axis=1, kind="stable")[:, :K], axis=1)
                ids[a:b] = np.take_along_axis(idx, take, axis=1)
                d2[a:b] = np.take_along_axis(d, take, axis=1)
    return ids, d2


# ---------------------------------------------------------------------------
# Text formats


def save_graph(g: Graph, path, values: ValueTable | Sequence[float] | None = None) -> None:
    """Header ``n <n> directed <0|1>`` then one ``u v`` line per edge.

    Undirected edges appear once with u < v; lines are sorted ascending,
    so output is byte-stable for a given graph. ``values``, when given,
    become a ValueTable and go to ``<path>.values``; a table whose length
    is not ``g.n`` raises ValueError before any write.
    """
    if values is not None:
        if not isinstance(values, ValueTable):
            values = ValueTable(values)
        if values.n != g.n:
            raise ValueError(f"{values.n} values for a graph of {g.n} nodes")
        save_values(values, f"{path}.values")
    names = list(map(str, range(g.n)))
    parts = [f"n {g.n} directed {1 if g.directed else 0}\n"]
    # rows are sorted, so this is ascending (u, v) order
    for u, nbrs in enumerate(g.adjacency):
        if not g.directed:
            nbrs = nbrs[bisect_right(nbrs, u) :]  # each undirected edge once, from its lower end
        if nbrs:
            lead = names[u] + " "
            parts.append(lead + ("\n" + lead).join(map(names.__getitem__, nbrs)) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def load_graph(path, *, with_values: bool = True) -> tuple[Graph, ValueTable | None]:
    """Parse a graph file; raises GraphFormatError with the line number.

    The edge lines are read in bulk when they hold only ASCII digits and
    ASCII whitespace, with every line blank or ``u v``, every number at
    most 21 digits long with only its last 18 nonzero, and every edge
    valid. Any other file (a sign, ``_``, a non-ASCII digit or space, a
    longer number, or a fault) is read line by line, which names the first
    faulty line.

    Values are loaded from ``<path>.values`` when that file exists;
    otherwise None is returned in their place. ``with_values=False``
    parses the graph file alone.
    """
    n, directed, u, v = _parse_edges(path)
    g = _from_pairs(n, directed, u, v)
    if g.edge_count() != len(u):
        # Counter keeps first-seen order: the first edge in the file that repeats
        dup = next(e for e, k in Counter(zip(u.tolist(), v.tolist())).items() if k > 1)
        raise GraphFormatError(f"{path}: duplicate edge {dup}")
    if not with_values:
        return g, None
    values_path = f"{path}.values"
    if not os.path.exists(values_path):
        return g, None
    return g, load_values(values_path, n=g.n)


# the class of each byte on the bulk path: 1 for an ASCII digit, 2 for the
# ASCII whitespace that str.split() splits on, 0 for anything else
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[ord("0") : ord("9") + 1] = 1
_BYTE_CLASS[[c for c in range(128) if chr(c).isspace()]] = 2


def _parse_edges(path) -> tuple[int, bool, np.ndarray, np.ndarray]:
    """n, directed and the edge arrays of a graph file; its text is freed
    before the graph is built from them.

    numpy reads and checks the edge lines in bulk (see ``_bulk_edges``);
    a body it does not take is walked line by line, and the first faulty
    line is reported.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # the header is the first line that is not blank; head is its line number
    start, head = 0, 1
    while True:
        end = text.find("\n", start)
        header = text[start:] if end < 0 else text[start:end]
        if header.strip():
            break
        if end < 0:
            raise GraphFormatError(f"{path}: missing header line")
        start, head = end + 1, head + 1
    parts = header.split()
    where = f"{path}:{head}"
    if len(parts) != 4 or parts[0] != "n" or parts[2] != "directed":
        raise GraphFormatError(f"{where}: bad header {header.strip()!r}")
    try:
        n = int(parts[1])
        flag = int(parts[3])
    except ValueError as exc:
        raise GraphFormatError(f"{where}: {exc}") from exc
    # edge keys u * n + v must fit int64, so n * n may not exceed 2**63 - 1
    if not 0 < n <= 3037000499 or flag not in (0, 1):
        raise GraphFormatError(f"{where}: bad header values")
    directed = bool(flag)

    body = "" if end < 0 else text[end + 1 :]
    del text
    pairs = _bulk_edges(body) if body.isascii() else None
    if pairs is not None:
        u, v = pairs[0::2], pairs[1::2]
        # digits only: no value is negative
        bad = (u >= n) | (v >= n) | (u == v)
        if not directed:
            bad |= u > v
        if not bad.any():
            return n, directed, u, v
    pairs = []
    for lineno, line in enumerate(body.split("\n"), start=head + 1):
        try:
            edge = _edge_line(line, n, directed)
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
        if edge is not None:
            pairs.append(edge)
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return n, directed, u, v


def _bulk_edges(body: str) -> np.ndarray | None:
    """The numbers of an ASCII edge-line body in file order, as int64; None
    unless every byte is a digit or whitespace, every line holds 0 or 2
    numbers and each number is one that ``values._digit_runs`` reads: at
    most 21 digits, of which only the last 18 may be nonzero."""
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    kind = np.take(_BYTE_CLASS, b)
    if not kind.all():
        return None
    # a number runs from a digit after a non-digit to the next non-digit
    digit = np.zeros(len(b) + 2, dtype=bool)
    digit[1:-1] = kind == 1
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts = bounds[0::2]
    if len(starts) % 2:
        return None
    # numbers 2i and 2i+1 share a line, and number 2i+2 is on a later one
    line = np.searchsorted(np.flatnonzero(b == ord("\n")), starts)
    if not (np.array_equal(line[0::2], line[1::2]) and (line[2::2] > line[1:-1:2]).all()):
        return None
    return _digit_runs(b, starts, bounds[1::2])


def _edge_line(line: str, n: int, directed: bool) -> tuple[int, int] | None:
    """The edge on one line after the header, or None for a blank line;
    ValueError names the line's first fault, in the order it is checked."""
    parts = line.split()
    if not parts:
        return None
    if len(parts) != 2:
        raise ValueError(f"expected 'u v', got {line.strip()!r}")
    u, v = map(int, parts)
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u},{v}) out of range")
    if u == v:
        raise ValueError(f"self-loop at {u}")
    if not directed and u > v:
        raise ValueError("undirected edges need u < v")
    return u, v
