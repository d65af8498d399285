"""Certificates of graph convexity for minimization instances.

A value table here is any indexable sequence of numbers. The certificates
compute in the arithmetic the values carry: ints and fractions.Fraction
decide knife-edge instances exactly, floats give float results. When the
values and the ratio (m or alpha) are all ``numbers.Rational``, the ratio
is split once into an integer numerator and denominator, so int values are
compared on ints alone; put Fractions on one denominator first with
``values.common_denominator``, as ``certify`` does, to get that speed.
ValueTable, numpy array and numpy scalar inputs become Python numbers.

All definitions are oriented toward minimization: a step x -> z improves
when f(x) - f(z) > 0. Negate the values to reason about maximization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Rational
from typing import Sequence

import numpy as np

from .graphs import Graph, Path
from .oracle import _finite
from .values import ValueTable


def _vals(values) -> tuple[Sequence, set]:
    """The values as Python numbers, and the set of their types. A
    ValueTable, a numpy array and numpy scalars are unwrapped, so an int64
    cannot overflow in p * M(z); a list holding no numpy scalar is kept."""
    if isinstance(values, ValueTable):
        values = values.means
    if isinstance(values, np.ndarray):
        values = values.tolist()
    types = set(map(type, values))
    if any(issubclass(t, np.generic) for t in types):
        values = [v.item() if isinstance(v, np.generic) else v for v in values]
        types = set(map(type, values))
    return values, types


def _split(ratio, types):
    """``(p, q)`` with p/q == ratio: ints when ratio and every value type
    are Rational, so exact comparisons multiply ints; otherwise ``(ratio, 1)``."""
    if isinstance(ratio, Rational) and all(issubclass(t, Rational) for t in types):
        return int(ratio.numerator), int(ratio.denominator)
    return ratio, 1


def improvement_delta(g: Graph, values, x: int, z: int):
    """Improvement f(x) - f(z) of the step x -> z; may be negative."""
    if not g.has_edge(x, z):
        raise ValueError(f"{z} is not a neighbor of {x}")
    vals, _ = _vals(values)
    return vals[x] - vals[z]


def best_improvement(g: Graph, values, x: int):
    """Largest one-step improvement from x (negative at a local minimum)."""
    nbrs = g.neighbors(x)
    if not nbrs:
        raise ValueError(f"node {x} has no neighbors")
    vals, _ = _vals(values)
    return max(vals[x] - vals[z] for z in nbrs)


def is_strongly_convex_path(values, p: Path, m) -> bool:
    """Check the m-strong convexity of a concrete path.

    Every step must strictly improve and consecutive improvements must
    shrink geometrically: delta_{i-1} >= (1+m) * delta_i. A single edge
    only needs a strict improvement.
    """
    _finite("m", m, 0, strict=True)
    if len(p.nodes) < 2:
        raise ValueError("path must contain at least one edge")
    vals, _ = _vals(values)
    deltas = [vals[a] - vals[b] for a, b in zip(p.nodes, p.nodes[1:])]
    if any(d <= 0 for d in deltas):
        return False
    one_plus_m = 1 + m
    return all(prev >= one_plus_m * nxt for prev, nxt in zip(deltas, deltas[1:]))


@dataclass(frozen=True)
class StrongConvexityCertificate:
    """Result of the strong-convexity dynamic program.

    ``first_step[x]`` is the minimal feasible first improvement M(x) of a
    certifying path from x, and ``next_node[x]`` the neighbor realizing
    it; following next_node reconstructs a witness path to the minimizer.
    """

    graph: Graph = field(repr=False)
    m: object
    minimizer: int
    tied_minima: tuple[int, ...]
    first_step: dict = field(repr=False)
    next_node: dict = field(repr=False)
    uncertifiable: tuple[int, ...]

    @property
    def certified(self) -> bool:
        return not self.uncertifiable

    def witness_path(self, x: int) -> Path:
        if x not in self.first_step:
            raise ValueError(f"node {x} carries no certificate")
        nodes = [x]
        while nodes[-1] != self.minimizer:
            nodes.append(self.next_node[nodes[-1]])
        return Path(self.graph, tuple(nodes))


def certify_strongly_convex(g: Graph, values, m) -> StrongConvexityCertificate:
    """Decide whether every node admits an m-strongly convex path to x*.

    Nodes are processed in increasing value order with
    M(x) = min{ delta(x,z) : z a neighbor, delta(x,z) > 0,
    (1+m) * M(z) <= delta(x,z), M(z) defined } and M(x*) = 0. The minimal
    M is the right state because downstream feasibility only constrains
    the next step from above. Certified iff M is defined everywhere; the
    returned object lists any uncertifiable nodes and value ties at the
    minimum (certification targets the lowest-id minimizer).
    """
    _finite("m", m, 0, strict=True)
    vals, types = _vals(values)
    n = g.n
    if len(vals) != n:
        raise ValueError("value table size does not match graph")
    # (1+m) * M(z) <= delta is tested as p * M(z) <= q * delta, p/q = 1+m
    p, q = _split(1 + m, types)
    best_value = min(vals)
    tied = tuple(x for x in range(n) if vals[x] == best_value)
    x_star = tied[0]

    order = sorted(range(n), key=lambda x: (vals[x], x))
    first_step: dict = {x_star: 0}
    next_node: dict = {}
    for x in order:
        if x == x_star:
            continue
        vx = vals[x]
        best = None
        best_z = None
        for z in g.adjacency[x]:
            delta = vx - vals[z]
            if delta <= 0:
                continue
            mz = first_step.get(z)
            if mz is None:
                continue
            if p * mz <= q * delta and (best is None or delta < best):
                best = delta
                best_z = z
        if best is not None:
            first_step[x] = best
            next_node[x] = best_z
    uncertifiable = tuple(x for x in range(n) if x not in first_step)
    return StrongConvexityCertificate(
        g, m, x_star, tied, first_step, next_node, uncertifiable
    )


@dataclass(frozen=True)
class NearConvexityReport:
    """Result of the near-convexity check.

    ``core`` holds the nodes whose best one-step improvement is at least
    alpha times their optimality gap (plus the minimizer by convention).
    For every other node, ``hops``/``elevation``/``witness`` describe the
    shortest path into the core whose nodes stay within c above the start.
    """

    graph: Graph = field(repr=False)
    alpha: object
    c: object
    minimizer: int
    core: frozenset
    hops: dict = field(repr=False)
    elevation: dict = field(repr=False)
    witness: dict = field(repr=False)
    infeasible: tuple[int, ...]

    @property
    def certified(self) -> bool:
        return not self.infeasible

    @property
    def r(self) -> int:
        """Worst-case hop count into the core (0 when the core is all)."""
        if self.infeasible:
            raise ValueError("instance is not nearly convex at these parameters")
        return max(self.hops.values(), default=0)


def certify_nearly_convex(g: Graph, values, alpha, c) -> NearConvexityReport:
    """Find the improvement core and low-elevation escape paths into it.

    Core membership: best_improvement(x) >= alpha * (f(x) - f(x*)). Each
    node outside it needs a path into the core, of minimal hop count,
    never climbing more than c above the node's own value (checked on
    every path node, endpoints included); nodes without one are reported
    infeasible.
    """
    _finite("alpha", alpha, 0, strict=True)
    _finite("c", c, 0)
    vals, types = _vals(values)
    n = g.n
    if len(vals) != n:
        raise ValueError("value table size does not match graph")
    # best >= alpha * gap is tested as den * best >= num * gap
    num, den = _split(alpha, types)
    best_value = min(vals)
    x_star = min(x for x in range(n) if vals[x] == best_value)
    v_star = vals[x_star]

    core = {x_star}
    for x in range(n):
        nbrs = g.adjacency[x]
        if x == x_star or not nbrs:
            continue
        vx = vals[x]
        if den * max(vx - vals[z] for z in nbrs) >= num * (vx - v_star):
            core.add(x)

    hops: dict = {}
    elevation: dict = {}
    witness: dict = {}
    infeasible = []
    for x in range(n):
        if x in core:
            continue
        cap = vals[x] + c
        parent = {x: None}
        frontier = [x]
        found = None
        depth = 0
        while frontier and found is None:
            depth += 1
            nxt = []
            for u in frontier:
                for z in g.adjacency[u]:
                    if z in parent or vals[z] > cap:
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
    return NearConvexityReport(
        g, alpha, c, x_star, frozenset(core), hops, elevation, witness, tuple(infeasible)
    )


def lemma1_gap_bound(m, delta):
    """Optimality-gap bound (m+1)/m * delta from a first-step improvement."""
    _finite("m", m, 0, strict=True)
    _finite("delta", delta)
    return (m + 1) / m * delta
