"""Deterministic experiment harness: budget sweeps of seeded trials
producing the gap-vs-budget CSV records.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .annealing import SAConfig, simulated_annealing
from .bandit import oracle_sampler, successive_reject, uniform_best_arm
from .descend import explore_descend_restarts
from .graphs import Graph
from .oracle import BudgetExhaustedError, NoisyOracle, _finite, _whole
from .values import ValueTable

CSV_HEADER = "trial,algo,budget,node,gap,samples,time_ms"

ALGORITHMS = ("sr", "ed", "sa")


@dataclass(frozen=True)
class TrialRecord:
    """One row of a sweep: the node a trial returned (-1 when it failed),
    its true suboptimality (NaN when failed), the oracle observations it
    consumed and its wall time."""

    trial: int
    algo: str
    budget: int
    node: int
    gap: float
    samples: int
    time_ms: float


# Each algorithm's parameters and their defaults; None for gamma means required.
_PARAM_DEFAULTS = {
    "sr": {},
    "ed": {"path_len": 4, "restarts": None},
    "sa": {"gamma": None, "s": 30, "steps": None},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One algorithm swept over budgets, repeated over seeded trials.

    Budgets strictly ascend; ``maximize`` sets each trial oracle's sense.
    ``params`` carries the per-algorithm knobs: ed takes path_len (>= 1)
    and restarts (None means the 1 + budget/1000 rule, an int >= 1 pins a
    count); sa takes gamma (required, finite, >= 0), s (>= 1), and
    optionally steps (>= 0; default: spend the budget, budget // (2 s)).
    Budgets, trials, the seed (>= 0) and the integer knobs must be whole
    numbers (4.0 is taken as 4).

    Every setting is checked here, once, and ``params`` is replaced by the
    resolved values with defaults filled in. The oracle settings are
    checked by building a NoisyOracle, and ed and sa need a neighbour at
    every node. A bad setting raises ValueError before any trial runs.
    """

    graph: Graph
    values: ValueTable
    algo: str
    budgets: tuple[int, ...]
    trials: int
    seed: int
    maximize: bool = False
    noise: str = "bernoulli"
    noise_scale: float = 0.5
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}; choose from {ALGORITHMS}")
        object.__setattr__(self, "budgets", tuple(_whole("budget", b, 1) for b in self.budgets))
        if not self.budgets:
            raise ValueError("need at least one budget")
        if any(a >= b for a, b in zip(self.budgets, self.budgets[1:])):
            # a repeated budget would replay the same trial streams
            raise ValueError(f"budgets must be strictly ascending, got {list(self.budgets)}")
        object.__setattr__(self, "trials", _whole("trials", self.trials, 1))
        if self.seed is None:
            raise ValueError("a master seed is required; no wall-clock seeding")
        object.__setattr__(self, "seed", _whole("seed", self.seed, 0))
        try:
            NoisyOracle(self.values, noise=self.noise, R=self.noise_scale)
        except ValueError as exc:
            raise ValueError(f"noise={self.noise!r}, noise_scale={self.noise_scale}: {exc}") from None
        if self.algo != "sr":
            # a descent or annealing run cannot move from a node without neighbours
            lonely = [x for x, nbrs in enumerate(self.graph.adjacency) if not nbrs]
            if lonely:
                raise ValueError(f"{self.algo} needs a neighbour at every node; {lonely[:10]} have none")
        object.__setattr__(self, "params", self._resolve_params())

    def _resolve_params(self) -> dict:
        defaults = _PARAM_DEFAULTS[self.algo]
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise ValueError(f"{self.algo} takes no parameter(s) {unknown}; it takes {sorted(defaults)}")
        p = {**defaults, **self.params}
        for key, lo in (("path_len", 1), ("restarts", 1), ("s", 1), ("steps", 0)):
            if p.get(key) is not None:
                p[key] = _whole(key, p[key], lo)
        if self.algo == "sa":
            if p["gamma"] is None:
                raise ValueError("sa requires params['gamma']")
            p["gamma"] = float(_finite("gamma", p["gamma"], 0))
        return p


def trial_rng(seed: int, budget: int, trial: int) -> np.random.Generator:
    """Independent stream per (seed, budget, trial), so adding budgets
    never perturbs existing trials."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, budget, trial])))


def _run_one(cfg: ExperimentConfig, oracle: NoisyOracle, budget: int, rng: np.random.Generator) -> int:
    """The node one trial of cfg.algo returns."""
    n = cfg.graph.n
    p = cfg.params
    if cfg.algo == "sr":
        best_arm = successive_reject if budget > n else uniform_best_arm
        return best_arm(n, oracle_sampler(oracle, range(n)), budget, rng)
    if cfg.algo == "ed":
        return explore_descend_restarts(
            cfg.graph, oracle, budget, rng, path_len=p["path_len"], restarts=p["restarts"]
        )
    steps = budget // (2 * p["s"]) if p["steps"] is None else p["steps"]
    sa_cfg = SAConfig(gamma=p["gamma"], s=p["s"], steps=steps)
    return simulated_annealing(cfg.graph, oracle, int(rng.integers(n)), sa_cfg, rng)


def run_trials(cfg: ExperimentConfig) -> list[TrialRecord]:
    """All (budget, trial) runs of the experiment, each on a fresh
    budget-capped oracle and its own rng stream.

    This is the one place a run is accounted: each trial's record holds
    the node the algorithm returned, its gap to the best value, the
    oracle's sample count and the wall time. ExperimentConfig has checked
    the settings, so the one trial expected to fail is an ed trial whose
    budget is too small to split into its rounds or restarts. A trial
    that raises ValueError or BudgetExhaustedError is recorded as a
    failed row (node -1, gap NaN, samples 0) and the sweep continues; any
    other exception propagates. Records come in (budget, trial) order,
    which is (algo, budget, trial) order: one algo, budgets ascending.
    """
    records = []
    for budget in cfg.budgets:
        for trial in range(cfg.trials):
            rng = trial_rng(cfg.seed, budget, trial)
            oracle = NoisyOracle(
                cfg.values, noise=cfg.noise, R=cfg.noise_scale, budget=budget, maximize=cfg.maximize
            )
            t0 = time.perf_counter()
            try:
                node = _run_one(cfg, oracle, budget, rng)
                gap, samples = cfg.values.gap_to_best(node, maximize=cfg.maximize), oracle.used
            except (BudgetExhaustedError, ValueError):
                node, gap, samples = -1, math.nan, 0
            time_ms = (time.perf_counter() - t0) * 1000.0
            records.append(TrialRecord(trial, cfg.algo, budget, node, gap, samples, time_ms))
    return records


@dataclass(frozen=True)
class GapStats:
    algo: str
    budget: int
    trials: int
    mean_gap: float
    stderr_gap: float
    mean_samples: float
    mean_time_ms: float


def gap_statistics(records: Iterable[TrialRecord]) -> list[GapStats]:
    """Aggregate records per (algo, budget), in that sort order.

    The standard error is the sample-std over sqrt(trials); a single
    record gets stderr 0. Failed rows (NaN gap) are excluded from the
    gap moments but still counted in ``trials``.
    """
    groups: dict[tuple[str, int], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.algo, rec.budget), []).append(rec)
    if not groups:
        raise ValueError("no records to aggregate")
    out = []
    for (algo, budget), recs in sorted(groups.items()):
        gaps = np.array([r.gap for r in recs if not math.isnan(r.gap)])
        if gaps.size == 0:
            mean_gap, stderr = math.nan, math.nan
        else:
            mean_gap = float(gaps.mean())
            stderr = float(gaps.std(ddof=1) / math.sqrt(gaps.size)) if gaps.size > 1 else 0.0
        out.append(
            GapStats(
                algo=algo,
                budget=budget,
                trials=len(recs),
                mean_gap=mean_gap,
                stderr_gap=stderr,
                mean_samples=float(np.mean([r.samples for r in recs])),
                mean_time_ms=float(np.mean([r.time_ms for r in recs])),
            )
        )
    return out


def format_float(x: float) -> str:
    """Shortest stable decimal form; full precision, no trailing cruft."""
    return repr(float(x))


def records_to_csv(records: Iterable[TrialRecord]) -> str:
    """CSV with the fixed header; bytes are deterministic apart from the
    time_ms column."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        buf.write(
            f"{r.trial},{r.algo},{r.budget},{r.node},"
            f"{format_float(r.gap)},{r.samples},{r.time_ms:.3f}\n"
        )
    return buf.getvalue()


def stats_to_csv(stats: Iterable[GapStats]) -> str:
    buf = io.StringIO()
    buf.write("algo,budget,trials,mean_gap,stderr_gap,mean_samples,mean_time_ms\n")
    for s in stats:
        buf.write(
            f"{s.algo},{s.budget},{s.trials},{format_float(s.mean_gap)},"
            f"{format_float(s.stderr_gap)},{format_float(s.mean_samples)},{s.mean_time_ms:.3f}\n"
        )
    return buf.getvalue()
