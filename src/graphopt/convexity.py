"""Certificates of graph convexity for minimization instances.

A value table here is any indexable sequence of numbers. When the values
and the parameters are all ``numbers.Rational`` (int, fractions.Fraction),
the certificates map them once to Python ints over their common
denominator and decide knife-edge instances exactly on those integers;
int inputs give int results.
Any other input (floats, Decimal, a mix of floats and Fractions) keeps its
own arithmetic through plain Python operators. ValueTable inputs are
unwrapped to Python floats.

All definitions are oriented toward minimization: a step x -> z improves
when f(x) - f(z) > 0. Negate the values to reason about maximization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .graphs import Graph, Path
from .values import ValueTable, common_denominator


def _vals(values) -> Sequence:
    if isinstance(values, ValueTable):
        return values.means.tolist()
    return values


def _on_integers(vals, ratio, c=0):
    """One normalisation at entry: (values, L, (num, den) of ratio, c).

    When the values, ``ratio`` and ``c`` are all Rational, the values and
    c come back as ints over L, the lcm of their denominators, and ratio as
    its numerator and denominator, so every comparison is integer-exact. A
    value v maps back as Fraction(v, L), or as the int v when L is 1. Any
    other input comes back unchanged, with L None and ratio as (ratio, 1).
    """
    if not all(isinstance(v, Rational) for v in (ratio, c, *vals)):
        return vals, None, (ratio, 1), c
    pairs = [(int(v.numerator), int(v.denominator)) for v in vals]
    pairs.append((int(c.numerator), int(c.denominator)))
    ints, L = common_denominator(pairs)
    scaled_c = ints.pop()
    return ints, L, (int(ratio.numerator), int(ratio.denominator)), scaled_c


def improvement_delta(g: Graph, values, x: int, z: int):
    """Improvement f(x) - f(z) of the step x -> z; may be negative."""
    if not g.has_edge(x, z):
        raise ValueError(f"{z} is not a neighbor of {x}")
    vals = _vals(values)
    return vals[x] - vals[z]


def best_improvement(g: Graph, values, x: int):
    """Largest one-step improvement from x (negative at a local minimum)."""
    nbrs = g.neighbors(x)
    if not nbrs:
        raise ValueError(f"node {x} has no neighbors")
    vals = _vals(values)
    return max(vals[x] - vals[z] for z in nbrs)


def is_strongly_convex_path(values, p: Path, m) -> bool:
    """Check the m-strong convexity of a concrete path.

    Every step must strictly improve and consecutive improvements must
    shrink geometrically: delta_{i-1} >= (1+m) * delta_i. A single edge
    only needs a strict improvement.
    """
    if m <= 0:
        raise ValueError("m must be > 0")
    if len(p.nodes) < 2:
        raise ValueError("path must contain at least one edge")
    vals = _vals(values)
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
    if m <= 0:
        raise ValueError("m must be > 0")
    vals = _vals(values)
    n = g.n
    if len(vals) != n:
        raise ValueError("value table size does not match graph")
    # (1+m) * M(z) <= delta is tested as p * M(z) <= q * delta, p/q = 1+m
    vals, L, (p, q), _ = _on_integers(vals, 1 + m)
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
    if L is not None and L != 1:
        first_step = {x: Fraction(v, L) for x, v in first_step.items()}
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
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if c < 0:
        raise ValueError("c must be >= 0")
    vals = _vals(values)
    n = g.n
    if len(vals) != n:
        raise ValueError("value table size does not match graph")
    # best >= alpha * gap is tested as den * best >= num * gap
    vals, L, (num, den), climb = _on_integers(vals, alpha, c)
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
        cap = vals[x] + climb
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
    if L is not None and L != 1:
        elevation = {x: Fraction(v, L) for x, v in elevation.items()}
    return NearConvexityReport(
        g, alpha, c, x_star, frozenset(core), hops, elevation, witness, tuple(infeasible)
    )


def lemma1_gap_bound(m, delta):
    """Optimality-gap bound (m+1)/m * delta from a first-step improvement."""
    if not m > 0:
        raise ValueError(f"m must be > 0, got {m}")
    return (m + 1) / m * delta
