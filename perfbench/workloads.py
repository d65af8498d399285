"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``setup`` and then
serves closed-loop operations ``op(i)``: operation i+1 starts only after
operation i returns. Operations are numbered from 0 and depend only on
(seed, i), so the first operations of every run at one seed are identical;
the correctness checks and the traced passes use them. Seed 0 reproduces
the acceptance tests' settings.

Library entry points are called through their modules (``harness.run_trials``
rather than a name imported here) so the traced run can patch them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from graphopt import cli, graphs, harness, nnsearch

# Offset between the input streams of consecutive workload seeds.
SEED_STRIDE = 10_000


@dataclass
class Part:
    """One timed piece of an operation: a run_trials call or a CLI command."""

    kind: str
    units: int
    seconds: float
    output: object = field(repr=False)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _strip_time(csv_text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


class Sweep:
    """Harness budget sweeps on the D=10, degree-15 grid with maximize=True.

    One operation makes one ``run_trials`` call per entry of ``configs``,
    each with ``chunk`` trials. Operation i of config (algo, budgets, base)
    uses master seed base + SEED_STRIDE * seed + i, so operation 0 at seed 0
    replays the first trials of the acceptance test that uses ``base``.
    """

    gap_kinds = ("sr", "ed", "sa")
    setup_loops = ("python",)

    def __init__(self, name, seed, configs, chunk, op_loops, trace_ops, check_ops, warmup_ops):
        self.name = name
        self.seed = seed
        self.configs = configs
        self.chunk = chunk
        self.op_loops = op_loops
        self.trace_ops = trace_ops
        self.check_ops = check_ops  # operations whose records the seed-0 digest covers
        self.warmup_ops = warmup_ops

    def setup(self, timer) -> None:
        spec = graphs.GridSpec(D=10, target_degree=15, seed=self.seed)
        (self.graph, self.values), _ = timer.part(graphs.make_grid_graph, spec)

    def _sweep(self, algo, budgets, seed, params):
        cfg = harness.ExperimentConfig(
            self.graph, self.values, algo, budgets, self.chunk,
            seed=seed, maximize=True, params=params,
        )
        return harness.run_trials(cfg)

    def op(self, i: int, timer) -> list[Part]:
        parts = []
        for algo, budgets, base, params in self.configs:
            seed = base + SEED_STRIDE * self.seed + i
            records, seconds = timer.part(self._sweep, algo, budgets, seed, params)
            parts.append(Part(algo, len(records), seconds, records))
        return parts

    def op_problem(self, parts) -> str | None:
        for part in parts:
            for r in part.output:
                if r.node == -1:
                    return f"failed {r.algo} trial at budget {r.budget}"
                if r.samples > r.budget:
                    return f"{r.algo} trial used {r.samples} samples > budget {r.budget}"
        return None

    def score(self, results) -> tuple[dict, dict]:
        records = [r for parts in results[: self.check_ops] for p in parts for r in p.output]
        facts = {"csv_digest": digest(_strip_time(harness.records_to_csv(records)))}
        gaps = {}
        for kind in self.gap_kinds:
            got = [r.gap for parts in results for p in parts if p.kind == kind for r in p.output]
            gaps[f"mean_gap.{kind}"] = float(np.mean(got)) if got else 0.0
        return facts, gaps

    def close(self) -> None:
        pass


def grid_sweep(seed: int) -> Sweep:
    # Criteria 4 (sr/ed at B=200, seed 404) and 5 (sa, gamma 250, seed 13);
    # ed at B=2000 gets 1 + 2000 // 1000 = 3 restarts, so the re-estimation
    # path runs.
    configs = (
        ("sr", (200,), 404, {}),
        ("ed", (200,), 404, {}),
        ("ed", (2000,), 404, {}),
        ("sa", (500, 4000), 13, {"gamma": 250.0}),
    )
    # Oracle draws, numpy scalar calls, dominate.
    return Sweep("grid-sweep", seed, configs, chunk=10, op_loops=("scalar",),
                 trace_ops=6, check_ops=4, warmup_ops=2)


def wide_sr(seed: int) -> Sweep:
    # Direct successive rejects over all 441 nodes, the paper's baseline
    # curve: budgets above n, so every trial runs the 440 elimination phases.
    configs = (("sr", (1000, 4000), 404, {}),)
    return Sweep("wide-sr", seed, configs, chunk=1, op_loops=("python",),
                 trace_ops=4, check_ops=2, warmup_ops=1)


class SgnnQuery:
    """Criterion 7: SGNN over 2000 points in two Gaussians (dim 10) on an
    N=10 kNN graph with I=J=11, T=1, K=50.

    Operation i answers query i mod 200 with walk stream
    (77 + SEED_STRIDE * seed, i) for the first 200 operations and
    (77 + SEED_STRIDE * seed, i mod 200, i // 200) after that, so operations
    0..199 at seed 0 are exactly the test's queries.
    """

    name = "sgnn-query"
    n, dim, K, N, queries = 2000, 10, 50, 10, 200
    check_ops = 200
    trace_ops = 200
    warmup_ops = 50
    setup_loops = ("memory",)  # the kNN build is a memory-bound distance scan
    op_loops = ("python", "scalar")

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds = nnsearch.default_rounds(self.n)  # I = J = 11

    def setup(self, timer) -> None:
        timer.part(self._build)

    def _build(self) -> None:
        rng = np.random.default_rng(2024 + SEED_STRIDE * self.seed)
        half = self.n // 2
        self.center = np.zeros(self.dim)
        self.center[0] = 3.0
        coords = np.vstack([
            rng.normal(self.center, 1.0, (half, self.dim)),
            rng.normal(-self.center, 1.0, (half, self.dim)),
        ])
        labels = tuple(["pos"] * half + ["neg"] * half)
        self.points = nnsearch.PointSet(coords, labels=labels)
        self.graph = graphs.make_knn_graph(self.points, self.N)
        qrng = np.random.default_rng(2025 + SEED_STRIDE * self.seed)
        self.comp = qrng.integers(2, size=self.queries)
        self.query_coords = qrng.normal(
            np.where(self.comp[:, None] == 0, self.center, -self.center), 1.0,
            (self.queries, self.dim),
        )

    def _query(self, i: int):
        qi, rep = i % self.queries, i // self.queries
        entropy = [77 + SEED_STRIDE * self.seed, qi] + ([rep] if rep else [])
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        return nnsearch.sgnn_query(
            self.graph, self.points, self.query_coords[qi],
            self.rounds, self.rounds, 1, self.K, rng,
        )

    def op(self, i: int, timer):
        return timer.part(self._query, i)[0]

    def op_problem(self, result) -> str | None:
        if result.distance_evals > 0.3 * self.n:
            return f"{result.distance_evals} distance evals > 0.3 n"
        return None

    def score(self, results) -> tuple[dict, dict]:
        """Recall and the label-accuracy delta over the first 200 queries,
        against exact_nn (kept out of the timed loop)."""
        recalls, agree_sgnn, agree_exact = [], 0, 0
        for qi, res in enumerate(results[: self.queries]):
            truth = nnsearch.exact_nn(self.points, self.query_coords[qi], self.K)
            recalls.append(nnsearch.recall_at_k(res, truth, self.K))
            want = "pos" if self.comp[qi] == 0 else "neg"
            agree_sgnn += nnsearch.classify_majority(res.candidates, self.points.labels) == want
            agree_exact += nnsearch.classify_majority(truth.candidates, self.points.labels) == want
        facts = {"accuracy_delta": abs(agree_sgnn - agree_exact) / self.queries}
        return facts, {"recall_at_50": float(np.mean(recalls))}

    def close(self) -> None:
        pass


class InstanceBuild:
    """The CLI path, run in-process through ``graphopt.cli.cli(argv)``.

    One operation runs gen-grid, the strong and the near certify of that
    grid (both with --negate, since the grid is a hill), and gen-knn over a
    two-Gaussian point cloud written during set-up. Sizes are scaled down
    from D=100 and 5000 points so that a run holds about 15 operations.
    """

    name = "instance-build"
    D, points_n, dim, N = 25, 1200, 10, 10
    check_ops = 1
    trace_ops = 1
    warmup_ops = 1
    setup_loops = ("python", "scalar")
    op_loops = ("python", "scalar", "memory")
    files = {
        "points": "points.csv", "grid": "grid.txt", "values": "grid.txt.values",
        "strong": "strong.csv", "near": "near.csv", "knn": "knn.txt",
    }
    outputs = ("grid", "values", "strong", "near", "knn")

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.dir = None

    def setup(self, timer) -> None:
        if self.dir is None:
            os.makedirs(self.workdir, exist_ok=True)
            self.dir = tempfile.mkdtemp(prefix="instance-build-", dir=self.workdir)
        timer.part(self._write_points)

    def _write_points(self) -> None:
        rng = np.random.default_rng(3031 + SEED_STRIDE * self.seed)
        half = self.points_n // 2
        center = np.zeros(self.dim)
        center[0] = 3.0
        coords = np.vstack([
            rng.normal(center, 1.0, (half, self.dim)),
            rng.normal(-center, 1.0, (self.points_n - half, self.dim)),
        ])
        nnsearch.save_points(nnsearch.PointSet(coords), os.path.join(self.dir, "points.csv"))

    def _commands(self):
        """(kind, reference loops, argv) of each command of one operation.
        gen-grid and certify are interpreter-bound; gen-knn is the
        memory-bound distance scan."""
        p = {name: os.path.join(self.dir, file) for name, file in self.files.items()}
        interp, scan = ("python", "scalar"), ("memory",)
        return (
            ("gen_grid", interp, ["gen-grid", "--D", str(self.D), "--seed", str(self.seed),
                                  "--out", p["grid"]]),
            ("certify", interp, ["certify", "--graph", p["grid"], "--negate", "--m", "1/1000",
                                 "--out", p["strong"]]),
            ("certify", interp, ["certify", "--graph", p["grid"], "--negate", "--nearly",
                                 "--alpha", "3/10", "--c", "1/10", "--out", p["near"]]),
            ("gen_knn", scan, ["gen-knn", "--points", p["points"], "--N", str(self.N),
                               "--out", p["knn"]]),
        )

    def op(self, i: int, timer) -> list[Part]:
        parts = []
        for kind, loops, argv in self._commands():
            with contextlib.redirect_stderr(io.StringIO()) as err:
                rc, seconds = timer.part(cli.cli, argv, loops=loops)
            parts.append(Part(kind, 1, seconds, (rc, err.getvalue())))
        return parts

    def op_problem(self, parts) -> str | None:
        # Adding edges to the hill only adds improving paths, so both
        # certificates hold at every seed and every command exits 0.
        for part in parts:
            rc, err = part.output
            if rc != 0:
                return f"{part.kind} exited {rc}: {err.strip()}"
        return None

    def score(self, results) -> tuple[dict, dict]:
        path = {name: os.path.join(self.dir, file) for name, file in self.files.items()}
        g, table = graphs.load_graph(path["grid"])
        knn, _ = graphs.load_graph(path["knn"])
        side = 2 * self.D + 1
        facts = {f"{name}_digest": file_digest(path[name]) for name in self.outputs}
        facts["shape_ok"] = (
            g.n == side * side and table is not None and table.n == g.n
            and knn.n == self.points_n and knn.edge_count() == self.points_n * self.N
        )
        return facts, {}

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


def make(name: str, seed: int, workdir):
    if name == "grid-sweep":
        return grid_sweep(seed)
    if name == "wide-sr":
        return wide_sr(seed)
    if name == "sgnn-query":
        return SgnnQuery(seed)
    if name == "instance-build":
        return InstanceBuild(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
