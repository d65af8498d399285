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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import Graph, _Draws, _nearest, random_walk
from .oracle import _whole

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
    """

    candidates: tuple[int, ...]
    distances: tuple[float, ...]
    distance_evals: int
    short: bool = False


class DistanceCache:
    """Per-query memo of exact distances; revisits are free."""

    def __init__(self, points: PointSet, query):
        q = np.asarray(query, dtype=float)
        if q.shape != (points.dim,):
            raise ValueError(f"query must have dimension {points.dim}")
        self._rows = points.rows
        self._query = tuple(q.tolist())
        self._dist: dict[int, float] = {}

    def evaluate(self, node: int) -> float:
        d = self._dist.get(node)
        if d is None:
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
    effectively greedy). J=0 returns the start unevaluated.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    if not 0 <= start < g.n:
        raise ValueError(f"start node {start} out of range")
    x = start
    for j in range(1, J + 1):
        tau = max(1.0 - j / J, TAU_FLOOR)
        fy = cache.evaluate(random_walk(g, x, T, rng))
        nbrs = g.neighbors(x)
        if not nbrs:
            break
        u = nbrs[int(rng.integers(len(nbrs)))]
        fv = cache.evaluate(random_walk(g, u, T, rng))
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

    The K nearest of the final pool are returned; a pool smaller than K
    (the evaluated nodes reach fewer than K) is returned whole and
    flagged short.
    """
    I = _whole("I", I, 1)
    K = _whole("K", K, 1)
    cache = DistanceCache(points, query)
    with _Draws(rng) as draws:
        for _ in range(I):
            start = draws.integers(g.n)
            x = smoothed_sa_search(g, cache, start, J, T, draws)
            cache.evaluate(x)
    _expand_best_first(g, cache, K)
    top = cache.nearest()[:K]
    return QueryResult(
        candidates=tuple(node for _, node in top),
        distances=tuple(d for d, _ in top),
        distance_evals=cache.evals,
        short=cache.evals < K,
    )


def _expand_best_first(g: Graph, cache: DistanceCache, K: int) -> None:
    """Evaluate into ``cache`` the nodes that best-first search over the
    out-edges of ``g`` reaches from the evaluated ones (see ``sgnn_query``)."""
    evaluate, evaluated = cache.evaluate, cache._dist  # the memo is the visited set
    frontier = cache.nearest()  # sorted, so already a heap
    kth = [-d for d, _ in frontier[:K]]  # max-heap of the K best distances
    heapq.heapify(kth)
    while frontier:
        d, node = heapq.heappop(frontier)
        if len(kth) == K and d > -kth[0]:
            break
        for nbr in g.adjacency[node]:
            if nbr in evaluated:
                continue
            dn = evaluate(nbr)
            if len(kth) < K:
                heapq.heappush(kth, -dn)
            elif dn < -kth[0]:
                heapq.heapreplace(kth, -dn)
            else:
                continue
            heapq.heappush(frontier, (dn, nbr))


def exact_nn(points: PointSet, query, K: int) -> QueryResult:
    """Exhaustive scan baseline; always evaluates all n points."""
    q = np.asarray(query, dtype=float)
    if q.shape != (points.dim,):
        raise ValueError(f"query must have dimension {points.dim}")
    return exact_nn_all(points, q[None, :], K)[0]


def exact_nn_all(points: PointSet, queries, K: int) -> list[QueryResult]:
    """``exact_nn`` for each row of the (m, dim) ``queries``, from one
    blocked scan of the points: per query the K nearest, nearest first and
    ties by id, with their distances."""
    K = _whole("K", K)
    if not 1 <= K <= points.n:
        raise ValueError(f"K must be in 1..{points.n}")
    qs = np.asarray(queries, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != points.dim:
        raise ValueError(f"queries must be an (m, {points.dim}) array")
    if not np.all(np.isfinite(qs)):
        raise ValueError("query coordinates must be finite")
    ids, d2 = _nearest(qs, points.coords, K, skip_self=False)
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
    label ties go to the label of the nearest tied candidate."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    if labels is None:
        raise ValueError("labels are required for classification")
    try:
        cand_labels = [labels[c] for c in candidates]
    except (IndexError, KeyError) as exc:
        raise ValueError(f"label missing for candidate: {exc}") from exc
    counts = Counter(cand_labels)
    top = max(counts.values())
    tied = {lab for lab, cnt in counts.items() if cnt == top}
    for lab in cand_labels:
        if lab in tied:
            return lab
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Point-set files: CSV with one point per row; labels in a separate file,
# one label per line. Like graph value files, labels default to a sibling
# ``<path>.labels`` on save and are picked up from there on load.


def save_points(ps: PointSet, path, labels_path=None) -> None:
    """Write the points, and their labels when they have any.

    Each label must be a non-empty ``str`` that encodes as UTF-8, with no
    line break and no surrounding whitespace: the labels ``load_points``
    reads back as written. Any other raises ValueError before a file is
    written.
    """
    if labels_path is None and ps.labels is not None:
        labels_path = f"{path}.labels"
    if labels_path is not None:
        if ps.labels is None:
            raise ValueError("point set has no labels to save")
        for i, lab in enumerate(ps.labels):
            storable = isinstance(lab, str) and lab and lab == lab.strip()
            # UTF-8 encodes every code point but a lone surrogate, which "replace" swaps out
            storable = storable and lab.encode("utf-8", "replace").decode("utf-8") == lab
            if not storable or "\n" in lab or "\r" in lab:
                raise ValueError(
                    f"label {i} ({lab!r}) cannot be saved: labels must be non-empty UTF-8"
                    " strings with no line break or surrounding whitespace"
                )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in ps.coords:
            writer.writerow([f"{v:.17g}" for v in row])
    if labels_path is not None:
        with open(labels_path, "w", encoding="utf-8") as fh:
            for lab in ps.labels:
                fh.write(f"{lab}\n")


def load_points(path, labels_path=None) -> PointSet:
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: inconsistent dimension")
    if not rows:
        raise ValueError(f"{path}: empty point file")
    if labels_path is None and os.path.exists(f"{path}.labels"):
        labels_path = f"{path}.labels"
    labels = None
    if labels_path is not None:
        with open(labels_path, "r", encoding="utf-8") as fh:
            labels = tuple(line.strip() for line in fh if line.strip())
        if len(labels) != len(rows):
            raise ValueError(f"{labels_path}: expected {len(rows)} labels, got {len(labels)}")
    return PointSet(np.array(rows), labels)
