"""Certificates of graph convexity for minimization instances.

A value table here is any indexable sequence of numbers. The certificates
compute in the arithmetic the values carry: ints and fractions.Fraction
decide knife-edge instances exactly, floats give float results. When the
values and the ratio (m or alpha) are all ``numbers.Rational``, the ratio
is split once into an integer numerator and denominator, so int values are
compared on ints alone; put Fractions on one denominator first with
``values.common_denominator``, as ``certify`` does, to get that speed.
ValueTable, numpy array and numpy scalar inputs become Python numbers,
and a NaN or infinite float value is refused by node. Both certifiers
take their values through one input step, ``_vals``, which does all this.

All definitions are oriented toward minimization: a step x -> z improves
when f(x) - f(z) > 0. Negate the values to reason about maximization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Rational
from typing import Sequence

import numpy as np

from .graphs import Graph, Path
from .values import ValueTable, _finite


def _vals(g: Graph, values, ratio) -> tuple[Sequence, tuple[int, ...], object, object]:
    """The values as Python numbers, the nodes at the least value in
    ascending order, and ``(p, q)`` with p/q == ratio: ints when ratio and
    every value type are Rational, so exact comparisons multiply ints, and
    ``(ratio, 1)`` otherwise. A ValueTable, a numpy array and numpy scalars
    are unwrapped, so an int64 cannot overflow in p * M(z); a list holding
    no numpy scalar is kept. A NaN or +-inf float value raises ValueError
    naming its node, and a table whose size is not ``g.n`` raises ValueError."""
    if isinstance(values, ValueTable):
        values = values.means
    if isinstance(values, np.ndarray):
        values = values.tolist()
    types = set(map(type, values))
    if any(issubclass(t, np.generic) for t in types):
        values = [v.item() if isinstance(v, np.generic) else v for v in values]
        types = set(map(type, values))
    if any(issubclass(t, float) for t in types):
        for x, v in enumerate(values):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"value of node {x} must be finite, got {v}")
    if len(values) != g.n:
        raise ValueError("value table size does not match graph")
    best_value = min(values)
    tied = tuple(x for x, v in enumerate(values) if v == best_value)
    if isinstance(ratio, Rational) and all(issubclass(t, Rational) for t in types):
        return values, tied, int(ratio.numerator), int(ratio.denominator)
    return values, tied, ratio, 1


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
    # (1+m) * M(z) <= delta is tested as p * M(z) <= q * delta, p/q = 1+m
    vals, tied, p, q = _vals(g, values, 1 + m)
    x_star = tied[0]

    # a stable sort orders equal values by id
    order = sorted(range(g.n), key=vals.__getitem__)
    adjacency = g.adjacency
    first_step: dict = {x_star: 0}
    next_node: dict = {}
    # bound[z] is p * M(z), set once when M(z) is fixed and None while it is
    # undefined: an edge reads one list entry and multiplies by p never
    bound = [None] * g.n
    bound[x_star] = p * 0
    for x in order:
        if x == x_star:
            continue
        vx = vals[x]
        best = None
        best_z = None
        for z in adjacency[x]:
            pz = bound[z]
            if pz is None:
                continue
            delta = vx - vals[z]
            if delta <= 0:
                continue
            if pz <= q * delta and (best is None or delta < best):
                best = delta
                best_z = z
        if best is not None:
            first_step[x] = best
            next_node[x] = best_z
            bound[x] = p * best
    uncertifiable = tuple(x for x in range(g.n) if bound[x] is None)
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

    Core membership, the paper's core test: the best one-step improvement
    max_z f(x) - f(z) over the neighbours z of x is at least
    alpha * (f(x) - f(x*)). It is tested in the min form f(x) - min_z f(z),
    the same number for ints, Fractions and floats alike: each subtracts
    exactly or with one monotone rounding, so the smallest f(z) gives the
    largest step (a tie of 0.0 and -0.0 can flip the sign of a zero step,
    which no comparison sees). A list mixing floats with ints or Fractions
    can put an exact step above a rounded one, so there the min form may
    fall short of the max form, never above it: a node it leaves out is
    tested in the max form, which decides.

    Each node outside the core needs a path into it, of minimal hop count,
    never climbing more than c above the node's own value (checked on every
    path node, endpoints included); nodes without one are reported
    infeasible.
    """
    _finite("alpha", alpha, 0, strict=True)
    _finite("c", c, 0)
    # best >= alpha * gap is tested as den * best >= num * gap
    vals, tied, num, den = _vals(g, values, alpha)
    x_star = tied[0]
    v_star = vals[x_star]

    adjacency = g.adjacency
    core = {x_star}
    for x in range(g.n):
        nbrs = adjacency[x]
        if x == x_star or not nbrs:
            continue
        vx = vals[x]
        need = num * (vx - v_star)
        # the min form, and the max form for a node it leaves out (mixed lists)
        if (den * (vx - min(map(vals.__getitem__, nbrs))) >= need
                or den * max(vx - vals[z] for z in nbrs) >= need):
            core.add(x)

    hops: dict = {}
    elevation: dict = {}
    witness: dict = {}
    infeasible = []
    for x in range(g.n):
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
                for z in adjacency[u]:
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
