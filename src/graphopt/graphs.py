"""Graph construction, random walks, and the text file formats.

Graphs are immutable adjacency structures over nodes 0..n-1. Undirected
graphs store both directions internally; the file format stores each
undirected edge once as ``u v`` with u < v.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain
from operator import length_hint
from typing import Iterable

import numpy as np

from .values import ValueTable, load_values, save_values


class GraphFormatError(ValueError):
    """A graph file failed to parse or validate."""


@dataclass(frozen=True)
class Graph:
    """Immutable graph with sorted adjacency lists.

    Invariants enforced at construction: node ids in range, no self-loops,
    no duplicate edges, and symmetric adjacency when undirected.
    """

    n: int
    directed: bool
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self):
        n = self.n
        if n <= 0:
            raise ValueError("graph must have at least one node")
        if len(self.adjacency) != n:
            raise ValueError("adjacency length must equal n")
        lens = np.fromiter(map(len, self.adjacency), dtype=np.intp, count=n)
        dst = _int_array(list(chain.from_iterable(self.adjacency)))
        src = np.repeat(np.arange(n), lens)
        fault = (dst < 0) | (dst >= n) | (dst == src)
        # a row that rises strictly is sorted and free of duplicates
        fault[1:] |= (dst[1:] <= dst[:-1]) & (src[1:] == src[:-1])
        if fault.any():
            u = int(src[np.argmax(fault)])
            raise ValueError(_row_fault(u, self.adjacency[u], n))
        if not self.directed:
            # keys u*n+v ascend already (rows in order, each rising); the
            # graph is symmetric iff they equal the reversed keys v*n+u
            keys = src * n + dst
            back = np.sort(dst * n + src)
            if not np.array_equal(keys, back):
                i = int(np.argmax(~np.isin(keys, back)))
                raise ValueError(f"asymmetric undirected edge {src[i]}-{dst[i]}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], directed: bool = False) -> "Graph":
        """Graph on the set of ``edges``; a repeated edge is allowed."""
        pairs = _int_array(list(edges)).reshape(-1, 2)
        return _from_pairs(n, directed, pairs[:, 0], pairs[:, 1])

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


def _int_array(values: list) -> np.ndarray:
    """``values`` as int64, or as exact Python ints when one lies beyond
    int64 (and so out of range of any graph)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _row_fault(u: int, nbrs, n: int) -> str:
    """The first fault in a faulty adjacency row, in the order it is checked."""
    seen = set()
    for v in nbrs:
        if not 0 <= v < n:
            return f"node {u}: neighbor {v} out of range"
        if v == u:
            return f"self-loop at node {u}"
        if v in seen:
            return f"duplicate edge {u}->{v}"
        seen.add(v)
    return f"adjacency of node {u} not sorted"


def _from_pairs(n: int, directed: bool, u: np.ndarray, v: np.ndarray) -> Graph:
    """Graph on the edges (u[i], v[i]), both directions when undirected.

    Raises on the first edge out of range or looping back to its source.
    """
    out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = out | (u == v)
    if bad.any():
        i = int(np.argmax(bad))
        if out[i]:
            raise ValueError(f"edge ({u[i]},{v[i]}) out of range")
        raise ValueError(f"self-loop at node {u[i]}")
    keys = u * n + v
    if not directed:
        keys = np.concatenate((keys, v * n + u))
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]  # each edge once
    src, dst = np.divmod(keys, n)
    ends = np.cumsum(np.bincount(src, minlength=max(n, 0))).tolist()  # Graph rejects n <= 0
    dst = dst.tolist()
    starts = [0, *ends[:-1]]
    return Graph(n, directed, tuple(tuple(dst[a:b]) for a, b in zip(starts, ends)))


@dataclass(frozen=True)
class Path:
    """A simple path bound to its host graph.

    Consecutive nodes must be adjacent (following edge direction on
    directed graphs) and no node may repeat.
    """

    graph: Graph
    nodes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("path must contain at least one node")
        for x in self.nodes:
            if not 0 <= x < self.graph.n:
                raise ValueError(f"path node {x} out of range")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("path repeats a node")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if not self.graph.has_edge(a, b):
                raise ValueError(f"consecutive path nodes {a},{b} are not adjacent")

    def __len__(self) -> int:
        return len(self.nodes)


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

    A dead end (no out-neighbors) stops the walk early at that node.
    """
    if not 0 <= start < g.n:
        raise ValueError(f"start node {start} out of range")
    if T < 0:
        raise ValueError("walk length must be >= 0")
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
        if self.D < 1:
            raise ValueError("D must be >= 1")
        if self.target_degree < 8:
            raise ValueError("target_degree must be >= 8 (the plane neighbors come first)")
        n = (2 * self.D + 1) ** 2
        if self.target_degree >= n:
            raise ValueError("target_degree must be < number of nodes")


def grid_node_id(x: int, y: int, D: int) -> int:
    """Node id of grid coordinate (x, y), both in -D..D."""
    if not (-D <= x <= D and -D <= y <= D):
        raise ValueError(f"coordinate ({x},{y}) outside the grid")
    return (x + D) * (2 * D + 1) + (y + D)


def grid_coords(node: int, D: int) -> tuple[int, int]:
    side = 2 * D + 1
    if not 0 <= node < side * side:
        raise ValueError(f"node {node} outside the grid")
    return node // side - D, node % side - D


def grid_value(x: int, y: int, D: int) -> float:
    """Height of the grid hill at (x, y): 0.8 * (1 - (x^2+y^2) / (2 D^2))."""
    return 0.8 * (1.0 - (x * x + y * y) / (2.0 * D * D))


def make_plain_grid(D: int) -> tuple[Graph, ValueTable]:
    """(2D+1)^2 grid with 8-neighbor (king-move) adjacency, no extra edges."""
    if D < 1:
        raise ValueError("D must be >= 1")
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
    deg = [len(s) for s in adj]

    cands = [u for u in range(n) if deg[u] < target]
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
            deg[w] += 1
            if deg[w] >= target:
                drop(w)

    with _Draws(np.random.default_rng(spec.seed)) as draws:
        while len(cands) >= 2:
            added = False
            for _ in range(200):
                i = draws.integers(len(cands))
                j = draws.integers(len(cands))
                if i == j:
                    continue
                u, v = cands[i], cands[j]
                if v in adj[u]:
                    continue
                connect(u, v)
                added = True
                break
            if added:
                continue
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

    g = Graph(n, False, tuple(tuple(sorted(s)) for s in adj))
    return g, table


# ---------------------------------------------------------------------------
# k-nearest-neighbor graphs over point clouds

# rows per kNN block: the (rows, n, dim) difference holds about this many
# floats (2 MB), so it stays in cache between the subtraction and the einsum
_KNN_BLOCK_FLOATS = 1 << 18


def make_knn_graph(points, N: int) -> Graph:
    """Directed graph linking each point to its N nearest others.

    Distance is Euclidean; ties prefer the lower node id. ``points`` is an
    (n, dim) finite float array (or anything exposing ``coords`` shaped
    that way).
    """
    coords = np.asarray(getattr(points, "coords", points), dtype=float)
    if coords.ndim != 2 or coords.shape[0] < 2:
        raise ValueError("points must be an (n, dim) array with n >= 2")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates must be finite")
    n, dim = coords.shape
    if not 0 < N < n:
        raise ValueError(f"N must be in 1..{n - 1}")
    adjacency: list[tuple[int, ...]] = []
    chunk = max(1, _KNN_BLOCK_FLOATS // (n * max(dim, 1)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        diff = coords[lo:hi, None, :] - coords[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        rows = np.arange(hi - lo)
        d2[rows, lo + rows] = np.inf
        # everything up to each row's N-th smallest distance is taken; a row
        # with ties there keeps all below it, then the ties lowest id first,
        # which is exactly the set a stable argsort(...)[:N] selects
        kth = np.partition(d2, N - 1, axis=1)[:, N - 1 : N]
        take = d2 <= kth
        tied = np.flatnonzero(np.count_nonzero(take, axis=1) > N)
        if tied.size:
            d, k = d2[tied], kth[tied]
            below, ties = d < k, d == k
            room = N - np.count_nonzero(below, axis=1)
            take[tied] = below | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
        ids = np.nonzero(take)[1].reshape(hi - lo, N)
        adjacency.extend(map(tuple, ids.tolist()))
    return Graph(n, True, tuple(adjacency))


# ---------------------------------------------------------------------------
# Text formats


def save_graph(g: Graph, path, values: ValueTable | None = None, values_path=None) -> None:
    """Header ``n <n> directed <0|1>`` then one ``u v`` line per edge.

    Undirected edges appear once with u < v; lines are sorted ascending,
    so output is byte-stable for a given graph. When ``values`` is given
    they are written alongside, to ``values_path`` or ``<path>.values``.
    """
    if values is not None:
        save_values(values, values_path if values_path is not None else f"{path}.values")
    lines = [f"n {g.n} directed {1 if g.directed else 0}\n"]
    # rows are sorted, so this is ascending (u, v) order
    lines += [
        f"{u} {v}\n"
        for u, nbrs in enumerate(g.adjacency)
        for v in nbrs
        if g.directed or u < v
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_graph(
    path, values_path=None, *, with_values: bool = True
) -> tuple[Graph, ValueTable | None]:
    """Parse a graph file; raises GraphFormatError with the line number.

    Values are loaded from ``values_path`` when given, else from
    ``<path>.values`` when that file exists; otherwise None is returned
    in their place. ``with_values=False`` parses the graph file alone.
    """
    g = _from_pairs(*_parse_edges(path))
    if not with_values:
        return g, None
    if values_path is None:
        default = f"{path}.values"
        values_path = default if os.path.exists(default) else None
    table = load_values(values_path, n=g.n) if values_path is not None else None
    return g, table


def _parse_edges(path) -> tuple[int, bool, np.ndarray, np.ndarray]:
    """n, directed and the edge arrays of a graph file, checked line by line
    in bulk; its text is freed before the graph is built from them."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")  # the lines readlines() gives, unterminated
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp, count=len(lines))
    filled = np.flatnonzero(counts)
    if not filled.size:
        raise GraphFormatError(f"{path}: missing header line")
    head = int(filled[0])
    parts = lines[head].split()
    where = f"{path}:{head + 1}"
    if len(parts) != 4 or parts[0] != "n" or parts[2] != "directed":
        raise GraphFormatError(f"{where}: bad header {lines[head].strip()!r}")
    try:
        n = int(parts[1])
        flag = int(parts[3])
    except ValueError as exc:
        raise GraphFormatError(f"{where}: {exc}") from exc
    if n <= 0 or flag not in (0, 1):
        raise GraphFormatError(f"{where}: bad header values")
    directed = bool(flag)

    # Every later line is blank or 'u v'. The first that is not, or that
    # holds a non-integer, ends the edges read; it is the fault reported
    # unless an edge before it is faulty. stop and edge_lines index lines.
    body = counts[head + 1 :]
    edge_lines = head + 1 + np.flatnonzero(body == 2)
    misshapen = np.flatnonzero((body != 0) & (body != 2))
    stop, stop_error = len(lines), None
    if misshapen.size:
        stop = head + 1 + int(misshapen[0])
        stop_error = f"expected 'u v', got {lines[stop].strip()!r}"
    tokens = "\n".join(lines[head + 1 : stop]).split()
    try:
        ints = list(map(int, tokens))
    except ValueError:
        k, exc = _first_non_integer(tokens)
        stop, stop_error = int(edge_lines[k // 2]), str(exc)
        ints = list(map(int, tokens[: k - k % 2]))
    pairs = _int_array(ints).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]

    out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    loop = u == v
    bad = out | loop
    if not directed:
        bad |= u > v
    if bad.any():
        i = int(np.argmax(bad))
        stop = int(edge_lines[i])
        if out[i]:
            stop_error = f"edge ({u[i]},{v[i]}) out of range"
        elif loop[i]:
            stop_error = f"self-loop at {u[i]}"
        else:
            stop_error = "undirected edges need u < v"
    if stop_error is not None:
        raise GraphFormatError(f"{path}:{stop + 1}: {stop_error}")

    keys = u * n + v
    order = np.argsort(keys, kind="stable")
    repeat = np.flatnonzero(np.diff(keys[order]) == 0)
    if repeat.size:
        # order[repeat] holds every repeated edge's first occurrence
        i = int(order[repeat].min())
        raise GraphFormatError(f"{path}: duplicate edge {(int(u[i]), int(v[i]))}")
    return n, directed, u, v


def _first_non_integer(tokens: list[str]) -> tuple[int, ValueError]:
    """Position of the first token int() rejects, and its error."""
    for k, token in enumerate(tokens):
        try:
            int(token)
        except ValueError as exc:
            return k, exc
    raise AssertionError("every token is an integer")
