"""Test-side references: small helpers that only tests call.

The grid's node numbering is the one ``make_plain_grid`` and
``make_grid_graph`` build, so tests can name nodes by coordinate. The
paper's path definitions and Lemma 1 bound live here beside the
certificates they check, and so do plain reference certifiers and an
unmetered Bernoulli sampler.
"""

import csv
import heapq
import math
from typing import Sequence

import numpy as np

from graphopt.bandit import Sampler
from graphopt.convexity import _vals
from graphopt.graphs import Graph, Path, random_walk
from graphopt.nnsearch import TAU_FLOOR, DistanceCache, QueryResult
from graphopt.values import _finite, _node


def grid_node_id(x: int, y: int, D: int) -> int:
    """Node id of grid coordinate (x, y), both in -D..D."""
    if not (-D <= x <= D and -D <= y <= D):
        raise ValueError(f"coordinate ({x},{y}) outside the grid")
    return (x + D) * (2 * D + 1) + (y + D)


def grid_coords(node: int, D: int) -> tuple[int, int]:
    """Grid coordinate (x, y) of a node id; the inverse of grid_node_id."""
    side = 2 * D + 1
    if not 0 <= node < side * side:
        raise ValueError(f"node {node} outside the grid")
    return node // side - D, node % side - D


def improvement_delta(g, values, x: int, z: int):
    """Improvement f(x) - f(z) of the step x -> z; may be negative."""
    if not g.has_edge(x, z):
        raise ValueError(f"{z} is not a neighbor of {x}")
    return values[x] - values[z]


def best_improvement(g: Graph, values, x: int):
    """Largest one-step improvement from x (negative at a local minimum):
    the paper's core test, which ``reference_near`` applies node by node."""
    x = _node("node", x, g.n)
    nbrs = g.neighbors(x)
    if not nbrs:
        raise ValueError(f"node {x} has no neighbors")
    vals = _vals(g, values, 1)[0]
    return max(vals[x] - vals[z] for z in nbrs)


def is_strongly_convex_path(values, p: Path, m) -> bool:
    """Check the m-strong convexity of a concrete path.

    Every step must strictly improve and consecutive improvements must
    shrink geometrically: delta_{i-1} >= (1+m) * delta_i. A single edge
    only needs a strict improvement. The paper's definition, which the
    strong certificate's witness paths must meet.
    """
    _finite("m", m, 0, strict=True)
    if len(p.nodes) < 2:
        raise ValueError("path must contain at least one edge")
    vals = _vals(p.graph, values, 1)[0]
    deltas = [vals[a] - vals[b] for a, b in zip(p.nodes, p.nodes[1:])]
    if any(d <= 0 for d in deltas):
        return False
    one_plus_m = 1 + m
    return all(prev >= one_plus_m * nxt for prev, nxt in zip(deltas, deltas[1:]))


def lemma1_gap_bound(m, delta):
    """Optimality-gap bound (m+1)/m * delta from a first-step improvement:
    the paper's Lemma 1. Along an m-strongly convex path the steps shrink
    by 1+m, so they sum to at most (m+1)/m times the first."""
    _finite("m", m, 0, strict=True)
    _finite("delta", delta)
    return (m + 1) / m * delta


def reference_strong(g, vals, m):
    best_value = min(vals)
    tied = tuple(x for x in range(g.n) if vals[x] == best_value)
    x_star = tied[0]
    first_step, next_node = {x_star: 0}, {}
    for x in sorted(range(g.n), key=lambda x: (vals[x], x)):
        if x == x_star:
            continue
        best = best_z = None
        for z in g.neighbors(x):
            delta = vals[x] - vals[z]
            if delta <= 0 or z not in first_step:
                continue
            if (1 + m) * first_step[z] <= delta and (best is None or delta < best):
                best, best_z = delta, z
        if best is not None:
            first_step[x], next_node[x] = best, best_z
    uncertifiable = tuple(x for x in range(g.n) if x not in first_step)
    return dict(
        certified=not uncertifiable, minimizer=x_star, tied_minima=tied,
        first_step=first_step, next_node=next_node, uncertifiable=uncertifiable,
    )


def reference_near(g, vals, alpha, c):
    best_value = min(vals)
    x_star = min(x for x in range(g.n) if vals[x] == best_value)
    core = {x_star}
    for x in range(g.n):
        if x != x_star and g.neighbors(x):
            if best_improvement(g, vals, x) >= alpha * (vals[x] - vals[x_star]):
                core.add(x)
    hops, elevation, witness, infeasible = {}, {}, {}, []
    for x in range(g.n):
        if x in core:
            continue
        parent, frontier, found, depth = {x: None}, [x], None, 0
        while frontier and found is None:
            depth += 1
            nxt = []
            for u in frontier:
                for z in g.neighbors(u):
                    if z in parent or vals[z] > vals[x] + c:
                        continue
                    parent[z] = u
                    if z in core:
                        found = z
                        break
                    nxt.append(z)
                if found is not None:
                    break
            frontier = nxt
        if found is None:
            infeasible.append(x)
            continue
        nodes = [found]
        while parent[nodes[-1]] is not None:
            nodes.append(parent[nodes[-1]])
        nodes.reverse()
        hops[x] = depth
        elevation[x] = max(vals[z] for z in nodes) - vals[x]
        witness[x] = tuple(nodes)
    return dict(
        certified=not infeasible, minimizer=x_star, core=frozenset(core), hops=hops,
        elevation=elevation, witness=witness, infeasible=tuple(infeasible),
    )


def bernoulli_sampler(means: Sequence[float]) -> Sampler:
    """Unmetered Bernoulli arms with success probabilities ``means``, a
    non-empty 1-d sequence in [0, 1]; an arm's cost is its negated rate."""
    p = np.asarray(means, dtype=float)
    if p.ndim != 1 or p.size == 0 or not np.all((p >= 0) & (p <= 1)):
        raise ValueError("means must be a non-empty 1-d sequence of values in [0, 1]")

    def pull(phase: Sequence[int], count: int, rng: np.random.Generator):
        return [-(float(rng.binomial(count, p[a])) / count) for a in phase], [count] * len(phase)

    return pull


def sgnn_query_reference(g, points, query, I: int, J: int, T: int, K: int, rng):
    """``sgnn_query`` composed the plain way, for tests to compare against.

    The I chains run on ``rng`` itself (no ``_Draws``), score each walk
    endpoint through ``cache.evaluate(random_walk(...))``, and evaluate
    their terminal. The refinement tracks only the K best distances and
    takes the result from a full sort of the pool, ``cache.nearest()[:K]``.
    """
    cache = DistanceCache(points, query)
    for _ in range(I):
        x = int(rng.integers(g.n))
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
        cache.evaluate(x)
    chain_evals = cache.evals
    frontier = cache.nearest()
    kth = [-d for d, _ in frontier[:K]]  # max-heap of the K best distances
    heapq.heapify(kth)
    while frontier:
        d, node = heapq.heappop(frontier)
        if len(kth) == K and d > -kth[0]:
            break
        for nbr in g.neighbors(node):
            if nbr in cache._dist:
                continue
            dn = cache.evaluate(nbr)
            if len(kth) < K:
                heapq.heappush(kth, -dn)
            elif dn < -kth[0]:
                heapq.heapreplace(kth, -dn)
            else:
                continue
            heapq.heappush(frontier, (dn, nbr))
    top = cache.nearest()[:K]
    return QueryResult(
        candidates=tuple(node for _, node in top),
        distances=tuple(d for d, _ in top),
        distance_evals=cache.evals,
        short=cache.evals < K,
        chain_evals=chain_evals,
    )


def save_points_reference(ps, path) -> None:
    """``save_points``' files written through ``csv.writer``, one row per
    point with each coordinate formatted on its own, and one write per
    label, for tests to compare bytes against. Labels are not checked."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in ps.coords:
            writer.writerow([f"{v:.17g}" for v in row])
    if ps.labels is not None:
        with open(f"{path}.labels", "w", encoding="utf-8") as fh:
            for lab in ps.labels:
                fh.write(f"{lab}\n")


def argsort_knn(coords, N):
    """The per-row stable-argsort selection the block selection replaced;
    it refuses a row whose N nearest include an infinite squared distance."""
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
            if np.isinf(d2[row, order]).any():
                raise ValueError(
                    f"squared distance from point {lo + row} to a nearest neighbour overflows a float"
                )
            adjacency.append(tuple(sorted(int(v) for v in order)))
    return Graph(n, True, tuple(adjacency))


def grouped_cloud(n: int, dim: int, K: int, seed: int):
    """The worst (n, dim) cloud for the kNN group bound at K: point j at
    ``centers[j % groups]`` plus unit normal noise, where ``groups`` is the
    number of column groups the bound takes (``n // width``, width
    ``min(16, n // K)`` and at least 1). Each point's nearest then share
    its group, so the K-th smallest group minimum lies in a far cluster."""
    groups = n // max(1, min(16, n // K))
    rng = np.random.default_rng(seed)
    centers = 10 * rng.normal(size=(groups, dim))
    return centers[np.arange(n) % groups] + rng.normal(size=(n, dim))
