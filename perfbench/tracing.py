"""In-memory span tracing of graphopt, done entirely from outside the package.

Modules bind imported names at import time, so each public function is
wrapped where its caller looks it up (``graphopt.descend.successive_reject``
for descent rounds, ``graphopt.harness.successive_reject`` for direct SR,
and so on). Methods are wrapped on their class. Every wrapped call records
a span ``[name, start, end, parent, op]``; a span's self time is its
duration minus the durations of its direct children (calls are sequential,
so children never overlap).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager

import graphopt.annealing
import graphopt.cli
import graphopt.descend
import graphopt.graphs
import graphopt.harness
import graphopt.nnsearch
from graphopt.nnsearch import DistanceCache
from graphopt.oracle import NoisyOracle

# Counter hooks run after a wrapped call returns: hook(counts, args, result).


def _count_samples(counts, args, result):
    counts["oracle.samples"] += result[1]


def _count_arms(counts, args, result):
    counts["bandit.arms"] += args[0]


def _count_accepts(counts, args, result):
    # sa_step(g, oracle, x, cfg, rng) returns the proposal when it accepts;
    # proposals are neighbours and graphs have no self-loops.
    counts["annealing.sa_step.accepts"] += result != args[2]


def _count_evals(counts, args, result):
    counts["nnsearch.distance_evals"] += result.distance_evals


def _count_failed(counts, args, result):
    counts["harness.failed_trials"] += sum(1 for r in result if r.node == -1)


def _count_bytes(counts, args, result):
    counts["graphs.save_graph.bytes"] += os.path.getsize(args[1])


def _cli_name(args):
    return "cli." + args[0][0].replace("-", "_")


def patch_table():
    """(owner, attribute, span name, counter hook) for every traced call site."""
    h, d, a, n, c, g = (
        graphopt.harness,
        graphopt.descend,
        graphopt.annealing,
        graphopt.nnsearch,
        graphopt.cli,
        graphopt.graphs,
    )
    return [
        (h, "run_trials", "harness.run_trials", _count_failed),
        (h, "records_to_csv", "harness.records_to_csv", None),
        (h, "successive_reject", "bandit.successive_reject", _count_arms),
        (d, "successive_reject", "bandit.successive_reject", _count_arms),
        (NoisyOracle, "sample_mean", "oracle.sample_mean", _count_samples),
        (h, "explore_descend_restarts", "descend.explore_descend_restarts", None),
        (d, "explore_descend", "descend.explore_descend", None),
        (d, "descent_oracle", "descend.descent_oracle", None),
        (h, "simulated_annealing", "annealing.simulated_annealing", None),
        (a, "sa_step", "annealing.sa_step", _count_accepts),
        (n, "sgnn_query", "nnsearch.sgnn_query", _count_evals),
        (n, "smoothed_sa_search", "nnsearch.smoothed_sa_search", None),
        (n, "random_walk", "graphs.random_walk", None),
        (DistanceCache, "evaluate", "nnsearch.cache_evaluate", None),
        (n, "exact_nn", "nnsearch.exact_nn", None),
        (g, "make_grid_graph", "graphs.make_grid_graph", None),
        (g, "make_knn_graph", "graphs.make_knn_graph", None),
        (g, "save_values", "values.save_values", None),
        (g, "load_values", "values.load_values", None),
        (c, "cli", _cli_name, None),
        (c, "make_grid_graph", "graphs.make_grid_graph", None),
        (c, "make_knn_graph", "graphs.make_knn_graph", None),
        (c, "save_graph", "graphs.save_graph", _count_bytes),
        (c, "load_graph", "graphs.load_graph", None),
        (c, "load_points", "nnsearch.load_points", None),
        (c, "certify_strongly_convex", "convexity.certify_strongly_convex", None),
        (c, "certify_nearly_convex", "convexity.certify_nearly_convex", None),
    ]


class Tracer:
    """Span recorder; ``op`` tags new spans with the operation that caused them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def wrap(self, fn, name, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every call site in ``patch_table`` for the duration."""
        saved = []
        try:
            for owner, attr, name, hook in patch_table():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """``<span>.calls``, ``<span>.busy_s`` and ``<span>.self_s`` for
        every span name, plus the counter hooks' totals."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter(self.counts)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".busy_s"] += end - start
            out[name + ".self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
