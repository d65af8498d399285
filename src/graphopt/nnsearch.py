"""Smoothed annealing search for nearest neighbors on a proximity graph,
with the exact brute-force baseline and majority-vote classification.

Distances to the query are exact and noiseless; the stochasticity that
drives exploration comes from random-walk smoothing of the evaluation
point and from the temperature schedule.
"""

from __future__ import annotations

import csv
import heapq
import math
import os
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import Graph, _Draws, _nearest, random_walk
from .values import _node, _whole

TAU_FLOOR = 1e-9


@dataclass(frozen=True)
class PointSet:
    """Points in R^dim with optional per-point class labels."""

    coords: np.ndarray = field(repr=False)
    labels: tuple | None = None

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("coords must be a non-empty (n, dim) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != arr.shape[0]:
                raise ValueError("labels must cover all points")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.coords.shape[0])

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])

    @cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """The coordinates as tuples of Python floats, built once; scalar
        ``math.dist`` on these is several times faster than numpy per point."""
        return tuple(map(tuple, self.coords.tolist()))


@dataclass(frozen=True)
class QueryResult:
    """Candidates sorted by true distance to the query, nearest first.

    ``distance_evals`` counts unique points whose exact distance was
    computed; ``short`` marks a pool smaller than the K requested.
    ``chain_evals`` is the part of ``distance_evals`` that an SGNN query's
    chains computed before refinement (0 for an exact scan), so
    ``distance_evals - chain_evals`` is the refinement's share.
    """

    candidates: tuple[int, ...]
    distances: tuple[float, ...]
    distance_evals: int
    short: bool = False
    chain_evals: int = 0


def _query(points: PointSet, query) -> np.ndarray:
    """``query`` as a float vector; ValueError unless it is a finite point
    of the points' dimension."""
    q = np.asarray(query, dtype=float)
    if q.shape != (points.dim,):
        raise ValueError(f"query must have dimension {points.dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query coordinates must be finite")
    return q


class DistanceCache:
    """Per-query memo of exact distances; revisits are free."""

    def __init__(self, points: PointSet, query):
        self._rows = points.rows
        self._query = tuple(_query(points, query).tolist())
        self._dist: dict[int, float] = {}

    def evaluate(self, node: int) -> float:
        """Distance from ``node`` to the query; its id is checked on a miss."""
        d = self._dist.get(node)
        if d is None:
            node = _node("node", node, len(self._rows))
            d = self._dist[node] = math.dist(self._rows[node], self._query)
        return d

    @property
    def evals(self) -> int:
        return len(self._dist)

    def nearest(self) -> list[tuple[float, int]]:
        """Evaluated nodes as (distance, node), nearest first, ties by id."""
        return sorted(zip(self._dist.values(), self._dist.keys()))


def smoothed_sa_search(
    g: Graph, cache: DistanceCache, start: int, J: int, T: int, rng: np.random.Generator
) -> int:
    """Annealed walk toward the cache's query; returns the final node.

    Each of the J iterations compares the current node against a uniform
    random neighbor, both scored by the exact distance of a T-step
    random-walk endpoint. Better candidates always win; worse ones are
    accepted with probability e^{(f(y)-f(v))/tau} at temperature
    tau = 1 - j/J (floored just above zero, so the last iteration is
    effectively greedy). J=0 returns the start unevaluated. J and T must
    be whole numbers >= 0 (else ValueError). The endpoints are scored
    through the cache's memo directly, so they count in ``cache.evals``.
    """
    J = _whole("J", J, 0)
    T = _whole("T", T, 0)
    x = _node("start node", start, g.n)
    memo, rows, query, adjacency = cache._dist, cache._rows, cache._query, g.adjacency
    for j in range(1, J + 1):
        tau = max(1.0 - j / J, TAU_FLOOR)
        end = random_walk(g, x, T, rng)
        fy = memo.get(end)
        if fy is None:
            fy = memo[end] = math.dist(rows[end], query)
        nbrs = adjacency[x]
        if not nbrs:
            break
        u = nbrs[int(rng.integers(len(nbrs)))]
        end = random_walk(g, u, T, rng)
        fv = memo.get(end)
        if fv is None:
            fv = memo[end] = math.dist(rows[end], query)
        if fv <= fy or rng.random() < math.exp((fy - fv) / tau):
            x = u
    return x


def default_rounds(n: int) -> int:
    """ceil(log2 n), the restart/iteration count used when none is given."""
    return max(1, math.ceil(math.log2(_whole("n", n, 1))))


def sgnn_query(
    g: Graph,
    points: PointSet,
    query,
    I: int,
    J: int,
    T: int,
    K: int,
    rng: np.random.Generator,
) -> QueryResult:
    """K nearest candidates from I independent smoothed searches, refined
    best-first over the graph.

    Each restart draws a uniform start, runs ``smoothed_sa_search`` and
    evaluates its terminal; the pool starts as every node whose exact
    distance the chains computed. The pool is then expanded best-first
    over the graph's out-edges, as in the greedy search of HNSW: a
    frontier seeded with every evaluated node is popped nearest first,
    and each unevaluated out-neighbor of the popped node is evaluated and
    joins the frontier when it beats the current K-th best distance (or
    fewer than K are known). The expansion stops when the frontier's
    nearest node is farther than the K-th best, or the frontier is empty.
    It draws no random numbers, so the chains' draws do not depend on it.
    The chains draw through ``graphs._Draws``: the same numbers as numpy's
    scalar calls, faster; ``rng`` must therefore be PCG64 (else TypeError).

    The K nearest of the final pool, ties by id, are returned; the
    refinement keeps them in a bounded top-K heap as it evaluates, so the
    pool is never sorted whole. A pool smaller than K (the evaluated nodes
    reach fewer than K) is returned whole and flagged short. The result's
    ``chain_evals`` counts the pool the chains left, before refinement.
    A graph whose node count is not the number of points raises
    ValueError before any draw.
    """
    I = _whole("I", I, 1)
    J = _whole("J", J, 0)
    T = _whole("T", T, 0)
    K = _whole("K", K, 1)
    if g.n != points.n:
        raise ValueError(f"a graph of {g.n} nodes for {points.n} points")
    cache = DistanceCache(points, query)
    with _Draws(rng) as draws:
        for _ in range(I):
            start = draws.integers(g.n)
            x = smoothed_sa_search(g, cache, start, J, T, draws)
            cache.evaluate(x)
    chain_evals = cache.evals
    top = _expand_best_first(g, cache, K)
    return QueryResult(
        candidates=tuple(node for _, node in top),
        distances=tuple(d for d, _ in top),
        distance_evals=cache.evals,
        short=cache.evals < K,
        chain_evals=chain_evals,
    )


def _expand_best_first(g: Graph, cache: DistanceCache, K: int) -> list[tuple[float, int]]:
    """Evaluate into ``cache`` the nodes that best-first search over the
    out-edges of ``g`` reaches from the evaluated ones (see ``sgnn_query``);
    return the K nearest evaluated nodes as (distance, node), nearest
    first, ties by id: ``cache.nearest()[:K]``.

    The K best are kept as a max-heap of (-distance, -node), whose top is
    the K-th best in (distance, node) order. A new node at exactly the
    K-th distance with a lower id replaces the top, so ties rank by id as
    in a sort, but it leaves the K-th distance as it was and so does not
    join the frontier.
    """
    memo, rows, query = cache._dist, cache._rows, cache._query  # the memo is the visited set
    frontier = cache.nearest()  # sorted, so already a heap
    top = [(-d, -node) for d, node in frontier[:K]]
    heapq.heapify(top)
    while frontier:
        d, node = heapq.heappop(frontier)
        if len(top) == K and d > -top[0][0]:
            break
        for nbr in g.adjacency[node]:
            if nbr in memo:
                continue
            dn = memo[nbr] = math.dist(rows[nbr], query)
            if len(top) < K:
                heapq.heappush(top, (-dn, -nbr))
            elif dn < -top[0][0]:
                heapq.heapreplace(top, (-dn, -nbr))
            else:
                if dn == -top[0][0] and nbr < -top[0][1]:
                    heapq.heapreplace(top, (-dn, -nbr))
                continue
            heapq.heappush(frontier, (dn, nbr))
    return sorted((-nd, -nn) for nd, nn in top)


def exact_nn(points: PointSet, query, K: int) -> QueryResult:
    """Exhaustive scan baseline for one query; always evaluates all n
    points. Each call builds the points' side of the scan anew, so many
    queries are served faster by ``exact_nn_all``, from one scan."""
    return exact_nn_all(points, _query(points, query)[None, :], K)[0]


def exact_nn_all(points: PointSet, queries, K: int) -> list[QueryResult]:
    """``exact_nn`` for each row of the (m, dim) ``queries``, from one
    blocked scan of the points: per query the K nearest, nearest first and
    ties by id, with their distances. A query whose squared distance to one
    of its K nearest overflows a float is refused."""
    K = _whole("K", K)
    if not 1 <= K <= points.n:
        raise ValueError(f"K must be in 1..{points.n}")
    qs = np.asarray(queries, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != points.dim:
        raise ValueError(f"queries must be an (m, {points.dim}) array")
    if not np.all(np.isfinite(qs)):
        raise ValueError("query coordinates must be finite")
    ids, d2 = _nearest(qs, points.coords, K, skip_self=False)
    overflow = np.isinf(d2).any(axis=1)
    if overflow.any():
        i = int(np.argmax(overflow))
        raise ValueError(f"squared distance from query {i} to a nearest point overflows a float")
    # ids ascend along each row, so a stable sort by distance breaks ties by id
    order = np.argsort(d2, axis=1, kind="stable")
    ids = np.take_along_axis(ids, order, axis=1).tolist()
    dists = np.sqrt(np.take_along_axis(d2, order, axis=1)).tolist()
    return [QueryResult(tuple(c), tuple(d), points.n) for c, d in zip(ids, dists)]


def recall_at_k(result: QueryResult, exact: QueryResult, K: int) -> float:
    """Fraction of the exact top-K retrieved among the result's top-K."""
    K = _whole("K", K, 1)
    truth = set(exact.candidates[:K])
    got = set(result.candidates[:K])
    return len(truth & got) / min(K, len(truth))


def classify_majority(candidates, labels):
    """Modal label among the candidates (assumed sorted nearest first);
    label ties go to the label of the nearest tied candidate. ``labels`` is
    a sequence indexed by id or a mapping from id; a candidate without a
    label raises ValueError."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    if labels is None:
        raise ValueError("labels are required for classification")
    if not isinstance(labels, Mapping):
        # a negative id would index from the end
        n = len(labels)
        for c in candidates:
            if not 0 <= c < n:
                raise ValueError(f"label missing for candidate {c}: {n} labels")
    try:
        cand_labels = [labels[c] for c in candidates]
    except KeyError as exc:
        raise ValueError(f"label missing for candidate: {exc}") from exc
    counts = Counter(cand_labels)
    top = max(counts.values())
    return next(lab for lab in cand_labels if counts[lab] == top)


# ---------------------------------------------------------------------------
# Point-set files: CSV with one point per row; labels, when there are any,
# in the sibling file ``<path>.labels``, one label per line. Like graph
# value files, the labels are written there on save and picked up from
# there on load.


def save_points(ps: PointSet, path) -> None:
    """Write the points to ``path``, and their labels to ``<path>.labels``
    when they have any.

    The points file holds one point per line: each coordinate as ``%.17g``
    (enough digits to read back the same float), fields separated by ``,``
    and lines ended by ``\\r\\n`` (CRLF), with no quoting. These are the bytes a
    ``csv.writer`` writes for those fields. The labels file holds one label
    per line, and each file is written in one call.

    Each label must be a non-empty ``str`` that encodes as UTF-8, with no
    line break and no surrounding whitespace: the labels ``load_points``
    reads back as written. Any other raises ValueError before a file is
    written.
    """
    for i, lab in enumerate(ps.labels or ()):
        storable = isinstance(lab, str) and lab and lab == lab.strip()
        # UTF-8 encodes every code point but a lone surrogate, which "replace" swaps out
        storable = storable and lab.encode("utf-8", "replace").decode("utf-8") == lab
        if not storable or "\n" in lab or "\r" in lab:
            raise ValueError(
                f"label {i} ({lab!r}) cannot be saved: labels must be non-empty UTF-8"
                " strings with no line break or surrounding whitespace"
            )
    row = ",".join(["%.17g"] * ps.dim) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join([row % tuple(r) for r in ps.coords.tolist()]))
    if ps.labels is not None:
        with open(f"{path}.labels", "w", encoding="utf-8") as fh:
            fh.write("".join([f"{lab}\n" for lab in ps.labels]))


def load_points(path) -> PointSet:
    """Read the point file at ``path``, with labels from ``<path>.labels``
    when that file exists.

    The points file is any CSV that the ``csv`` module splits into rows and
    whose every field ``float()`` takes, so it need not be one that
    ``save_points`` wrote. Blank rows are skipped, and every other row must
    have the same dimension. The labels file holds one label per line,
    stripped, with blank lines skipped, and must hold one label per point.
    A field ``float()`` refuses or finds not finite, or a row of another
    dimension, raises ValueError naming ``<path>:<line>`` of the first
    faulty row. Each row is checked as it is read: its fields parse, then
    its dimension, then finiteness.
    """
    rows: list[list[float]] = []
    dim = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                point = list(map(float, row))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if len(point) != dim:
                if rows:
                    raise ValueError(f"{path}:{lineno}: inconsistent dimension")
                dim = len(point)
            if not all(map(math.isfinite, point)):
                bad = next(v for v, x in zip(row, point) if not math.isfinite(x))
                raise ValueError(f"{path}:{lineno}: coordinates must be finite, got {bad!r}")
            rows.append(point)
    if not rows:
        raise ValueError(f"{path}: empty point file")
    coords = np.array(rows)
    labels_file = f"{path}.labels"
    labels = None
    if os.path.exists(labels_file):
        with open(labels_file, "r", encoding="utf-8") as fh:
            labels = tuple(line.strip() for line in fh if line.strip())
        if len(labels) != len(rows):
            raise ValueError(f"{labels_file}: expected {len(rows)} labels, got {len(labels)}")
    return PointSet(coords, labels)
