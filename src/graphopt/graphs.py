"""Graph construction, random walks, and the text file formats.

Graphs are immutable adjacency structures over nodes 0..n-1. Undirected
graphs store both directions internally; the file format stores each
undirected edge once as ``u v`` with u < v.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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
        if self.n <= 0:
            raise ValueError("graph must have at least one node")
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length must equal n")
        for u, nbrs in enumerate(self.adjacency):
            seen = set()
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise ValueError(f"node {u}: neighbor {v} out of range")
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                if v in seen:
                    raise ValueError(f"duplicate edge {u}->{v}")
                seen.add(v)
            if tuple(sorted(nbrs)) != tuple(nbrs):
                raise ValueError(f"adjacency of node {u} not sorted")
        if not self.directed:
            for u, nbrs in enumerate(self.adjacency):
                for v in nbrs:
                    if u not in self.adjacency[v]:
                        raise ValueError(f"asymmetric undirected edge {u}-{v}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], directed: bool = False) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            adj[u].add(v)
            if not directed:
                adj[v].add(u)
        return Graph(n, directed, tuple(tuple(sorted(s)) for s in adj))

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
    edges = []
    for x in range(-D, D + 1):
        for y in range(-D, D + 1):
            u = grid_node_id(x, y, D)
            for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
                nx, ny = x + dx, y + dy
                if -D <= nx <= D and -D <= ny <= D:
                    edges.append((u, grid_node_id(nx, ny, D)))
    g = Graph.from_edges(side * side, edges, directed=False)
    means = np.empty(side * side)
    for x in range(-D, D + 1):
        for y in range(-D, D + 1):
            means[grid_node_id(x, y, D)] = grid_value(x, y, D)
    return g, ValueTable(means)


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
    rng = np.random.default_rng(spec.seed)

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

    while len(cands) >= 2:
        added = False
        for _ in range(200):
            i = int(rng.integers(len(cands)))
            j = int(rng.integers(len(cands)))
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
        pairs = [
            (u, v)
            for ii, u in enumerate(sorted(cands))
            for v in sorted(cands)[ii + 1 :]
            if v not in adj[u]
        ]
        if not pairs:
            break
        u, v = pairs[int(rng.integers(len(pairs)))]
        connect(u, v)

    g = Graph(n, False, tuple(tuple(sorted(s)) for s in adj))
    return g, table


# ---------------------------------------------------------------------------
# k-nearest-neighbor graphs over point clouds


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
    # rows per block: the (rows, n, dim) difference stays near 2M floats
    chunk = max(1, 2_000_000 // (n * max(dim, 1)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        diff = coords[lo:hi, None, :] - coords[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        rows = np.arange(hi - lo)
        d2[rows, lo + rows] = np.inf
        # the N-th smallest distance per row; everything below it is taken,
        # then ties at it fill up the row lowest id first, which is exactly
        # the set a stable argsort(...)[:N] selects
        kth = np.partition(d2, N - 1, axis=1)[:, N - 1 : N]
        below = d2 < kth
        ties = d2 == kth
        room = N - np.count_nonzero(below, axis=1)
        take = below | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
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
    if g.directed:
        pairs = [(u, v) for u in range(g.n) for v in g.adjacency[u]]
    else:
        pairs = [(u, v) for u in range(g.n) for v in g.adjacency[u] if u < v]
    for u, v in sorted(pairs):
        lines.append(f"{u} {v}\n")
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
    g = _parse_graph(path)
    if not with_values:
        return g, None
    if values_path is None:
        default = f"{path}.values"
        values_path = default if os.path.exists(default) else None
    table = load_values(values_path, n=g.n) if values_path is not None else None
    return g, table


def _parse_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    header = None
    edges: list[tuple[int, int]] = []
    n = 0
    directed = False
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
    try:
        return Graph.from_edges(n, edges, directed=directed)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
