"""Deterministic experiment harness: budget sweeps of seeded trials
producing the gap-vs-budget CSV records.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field
from numbers import Rational, Real
from typing import Iterable

import numpy as np

from .annealing import SAConfig, simulated_annealing
from .bandit import oracle_sampler, successive_reject, uniform_best_arm
from .descend import explore_descend_restarts
from .graphs import Graph
from .oracle import BudgetExhaustedError, NoisyOracle
from .records import TrialRecord
from .values import ValueTable

CSV_HEADER = "trial,algo,budget,node,gap,samples,time_ms"

ALGORITHMS = ("sr", "ed", "sa")


@dataclass(frozen=True)
class ExperimentConfig:
    """One algorithm swept over budgets, repeated over seeded trials.

    ``params`` carries the per-algorithm knobs: ed takes path_len and
    restarts (None means the 1 + budget/1000 rule, int pins a count); sa
    takes gamma (required), s, and optionally steps (default: spend the
    budget, budget // (2 s)).
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
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
        if not self.budgets:
            raise ValueError("need at least one budget")
        if any(b <= 0 for b in self.budgets):
            raise ValueError("budgets must be positive")
        if list(self.budgets) != sorted(self.budgets):
            raise ValueError("budgets must be ascending")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed is None:
            raise ValueError("a master seed is required; no wall-clock seeding")
        if not math.isfinite(self.noise_scale):
            raise ValueError(f"noise_scale must be finite, got {self.noise_scale}")
        for key, value in self.params.items():
            # exact rationals are always finite and may be too large for a float
            inexact = isinstance(value, Real) and not isinstance(value, Rational)
            if inexact and not math.isfinite(value):
                raise ValueError(f"params[{key!r}] must be finite, got {value}")


def trial_rng(seed: int, budget: int, trial: int) -> np.random.Generator:
    """Independent stream per (seed, budget, trial), so adding budgets
    never perturbs existing trials."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, budget, trial])))


def _run_one(cfg: ExperimentConfig, budget: int, rng: np.random.Generator) -> TrialRecord:
    oracle = NoisyOracle(cfg.values, noise=cfg.noise, R=cfg.noise_scale, budget=budget)
    n = cfg.graph.n
    sign = 1.0 if cfg.maximize else -1.0
    minimize = not cfg.maximize
    if cfg.algo == "sr":
        t0 = time.perf_counter()
        best_arm = successive_reject if budget > n else uniform_best_arm
        node = best_arm(n, oracle_sampler(oracle, range(n), sign=sign), budget, rng)
        return TrialRecord(
            node=node,
            gap=cfg.values.gap_to_best(node, maximize=cfg.maximize),
            samples=oracle.used,
            time_ms=(time.perf_counter() - t0) * 1000.0,
        )
    if cfg.algo == "ed":
        return explore_descend_restarts(
            cfg.graph,
            oracle,
            budget,
            rng,
            path_len=int(cfg.params.get("path_len", 4)),
            restarts=cfg.params.get("restarts"),
            minimize=minimize,
        )
    sa_params = cfg.params
    if "gamma" not in sa_params:
        raise ValueError("sa requires params['gamma']")
    s = int(sa_params.get("s", 30))
    steps = sa_params.get("steps")
    if steps is None:
        steps = budget // (2 * s)
    sa_cfg = SAConfig(gamma=float(sa_params["gamma"]), s=s, steps=int(steps), minimize=minimize)
    x0 = int(rng.integers(n))
    return simulated_annealing(cfg.graph, oracle, x0, sa_cfg, rng)


def run_trials(cfg: ExperimentConfig) -> list[TrialRecord]:
    """All (budget, trial) runs of the experiment, each on a fresh
    budget-capped oracle and its own rng stream.

    A trial that runs out of budget or rejects its parameters
    (BudgetExhaustedError, ValueError) is recorded as a failed row (node
    -1, gap NaN) and the sweep continues; any other exception propagates.
    Records come back sorted by (algo, budget, trial).
    """
    records = []
    for budget in cfg.budgets:
        for trial in range(cfg.trials):
            rng = trial_rng(cfg.seed, budget, trial)
            try:
                rec = _run_one(cfg, budget, rng)
            except (BudgetExhaustedError, ValueError):
                rec = TrialRecord(node=-1, gap=math.nan, samples=0, time_ms=0.0)
            records.append(rec.tagged(trial, cfg.algo, budget))
    records.sort(key=lambda r: (r.algo, r.budget, r.trial))
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
    if math.isnan(x):
        return "nan"
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
