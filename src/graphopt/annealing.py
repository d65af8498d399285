"""Noisy simulated annealing with an exponential-weight acceptance kernel,
its sample-size rule, and the closed-form round/accuracy calculators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graphs import Graph
from .oracle import BudgetExhaustedError, NoisyOracle, _as_float, _finite, _whole


@dataclass(frozen=True)
class SAConfig:
    """Inverse temperature, samples per value estimate, and step count.

    gamma is fixed for the whole run. Each step re-estimates both the
    current node and the proposed neighbor with ``s`` fresh samples, so a
    full run costs 2*s*steps observations. The chain minimizes what the
    oracle observes (see NoisyOracle's ``maximize``).
    """

    gamma: float
    s: int = 1
    steps: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _as_float("gamma", self.gamma, 0))
        object.__setattr__(self, "s", _whole("s", self.s, 1))
        object.__setattr__(self, "steps", _whole("steps", self.steps, 0))


def _min1exp(z: float) -> float:
    """min(1, e^z) without overflowing for large positive z."""
    return 1.0 if z >= 0 else math.exp(z)


def sa_transition_probs(
    g: Graph, estimates, x: int, gamma: float
) -> tuple[list[int], np.ndarray]:
    """One-step kernel at x given per-node value estimates (minimization).

    Each neighbor y gets probability min(1, e^{gamma (est[x] - est[y])})
    divided by deg(x); the leftover mass is the self-loop. Returns the
    target list (neighbors in adjacency order, then x itself) and the
    matching probability vector, which is non-negative and sums to 1.
    The paper's kernel, kept for ``test_kernel_satisfies_detailed_balance``.
    """
    gamma = _as_float("gamma", gamma, 0)
    nbrs = g.neighbors(x)
    if not nbrs:
        raise ValueError(f"node {x} has no neighbors")
    d = len(nbrs)
    fx = estimates[x]
    probs = np.array([_min1exp(gamma * (fx - estimates[y])) / d for y in nbrs])
    self_loop = max(0.0, 1.0 - float(probs.sum()))
    return list(nbrs) + [x], np.append(probs, self_loop)


def sa_step(g: Graph, oracle: NoisyOracle, x: int, cfg: SAConfig, rng: np.random.Generator) -> int:
    """Propose a uniform neighbor and accept by exponential weight.

    Both endpoints are estimated fresh with cfg.s samples each, x then y,
    in one oracle call (no caching across steps; reusing estimates would
    correlate acceptance decisions). Near the budget cap an estimate
    covers only the samples still available; raises BudgetExhaustedError,
    leaving the state at x, when y cannot be estimated at all.
    """
    if not 0 <= x < g.n:
        raise ValueError(f"node {x} out of range")
    nbrs = g.neighbors(x)
    if not nbrs:
        raise ValueError(f"node {x} has no neighbors")
    y = nbrs[int(rng.integers(len(nbrs)))]
    means, _ = oracle.sample_means((x, y), cfg.s, rng)
    if len(means) < 2:
        raise BudgetExhaustedError(f"budget {oracle.budget} spent before node {y} was estimated")
    diff = means[0] - means[1]
    if diff >= 0 or rng.random() < math.exp(cfg.gamma * diff):
        return y
    return x


def simulated_annealing(
    g: Graph,
    oracle: NoisyOracle,
    x0: int,
    cfg: SAConfig,
    rng: np.random.Generator,
) -> int:
    """Run cfg.steps annealing steps from x0 and return the final node.

    Budget exhaustion stops the chain where it stands.
    """
    if not 0 <= x0 < g.n:
        raise ValueError(f"start node {x0} out of range")
    x = x0
    for _ in range(cfg.steps):
        try:
            x = sa_step(g, oracle, x, cfg, rng)
        except BudgetExhaustedError:
            break
    return x


def theory_sample_size(r: int, gamma: float, R: float) -> int:
    """Samples per estimate suggested by the analysis: ceil(2 r gamma^2 R^2),
    never below one. Exact when gamma and R are ints or Fractions; a float
    among them puts the product in floats, so r, gamma, R and the product
    must then fit a float."""
    r = _whole("r", r, 0)
    _finite("gamma", gamma, 0)
    _finite("R", R, 0)
    if not (isinstance(gamma, (int, Fraction)) and isinstance(R, (int, Fraction))):
        for name, x in (("r", r), ("gamma", gamma), ("R", R)):
            _as_float(name, x)
    if not (r and gamma and R):
        return 1  # a zero factor beside a huge float would make inf * 0 = nan
    size = 2 * r * gamma * gamma * R * R
    if isinstance(size, float) and not math.isfinite(size):
        raise ValueError(f"gamma={gamma} and R={R} put 2 r gamma^2 R^2 beyond a float")
    return max(1, math.ceil(size))


class ConvexRoundBound(NamedTuple):
    gamma: float
    t_min: int


class NearlyConvexRoundBound(NamedTuple):
    gamma: float
    beta: float
    t_min: int
    final_bound: float


def sa_round_bound_convex(alpha: float, d: int, eps: float, initial_gap: float) -> ConvexRoundBound:
    """Temperature and step count reaching accuracy eps on an
    alpha-improving instance of degree d.

    gamma = d / (e * alpha * eps); t_min is the smallest t with
    (1 - alpha/d)^t * initial_gap below eps*d/alpha, clamped at 0.
    ``initial_gap`` is the non-negative optimality gap of the start node
    (the source analysis writes the difference with the opposite sign).
    """
    alpha = _as_float("alpha", alpha, 0, strict=True, hi=1)
    d = _whole("d", d, 1)
    _as_float("d", d)
    eps = _as_float("eps", eps, 0, strict=True)
    initial_gap = _as_float("initial_gap", initial_gap, 0)
    gamma = d / (math.e * alpha * eps)
    arg = alpha * initial_gap / (eps * d)
    if arg <= 1.0:
        t_min = 0
    else:
        t_min = max(0, math.ceil(math.log(arg) / math.log(d / (d - alpha))))
    return ConvexRoundBound(gamma, t_min)


def sa_round_bound_nearly(
    alpha: float, c: float, r: int, d: int, F: float
) -> NearlyConvexRoundBound:
    """Temperature, contraction rate, step count, and the reachable
    accuracy for a (alpha, c, r)-nearly convex instance of degree d.

    gamma = 1/c; beta = 1 - alpha e^{-c r gamma} / d^{r+1}; t_min =
    ceil((r / log(1/beta)) * log(F * alpha * gamma)) clamped at 0, where
    F is the value range. The final accuracy (3/(alpha gamma)) d^{r+1}
    e^r is reported unclamped (it is comparative and can exceed the
    range; a warning is emitted when it does exceed F). When beta rounds
    to 1 no step count reaches F and ValueError names r and d.

    On the repository's own certified instances the final accuracy is
    vacuous. The perturbed D=10 grid certifies at alpha 0.3, c 0.2, r 1
    with degree about 15, where it is 3/(0.3*5) * 15^2 * e, about 1.2e3,
    while the value range is below 1. Only ``beta`` and ``t_min`` can be
    checked against a chain there.
    """
    alpha = _as_float("alpha", alpha, 0, strict=True, hi=1)
    c = _as_float("c", c, 0, strict=True)
    r = _whole("r", r, 1)
    _as_float("r", r)
    d = _whole("d", d, 1)
    _as_float("d", d)
    F = _as_float("F", F, 0, strict=True)
    gamma = 1.0 / c
    # d^(r+1) > e^40 > 2^54 makes beta round to 1 whatever alpha and c are,
    # so the power is not formed then
    huge = (r + 1) * math.log(d) > 40
    beta = 1.0 if huge else 1.0 - alpha * math.exp(-c * r * gamma) / d ** (r + 1)
    if beta == 1.0:
        raise ValueError(f"r={r} and d={d} make the bound vacuous: beta rounds to 1")
    arg = F * alpha * gamma
    if arg <= 1.0:
        t_min = 0
    else:
        t_min = max(0, math.ceil(r / math.log(1.0 / beta) * math.log(arg)))
    final_bound = 3.0 / (alpha * gamma) * d ** (r + 1) * math.exp(r)
    if final_bound > F:
        warnings.warn(
            f"accuracy bound {final_bound:.3g} exceeds the value range {F:.3g}; "
            "treat it as comparative only",
            stacklevel=2,
        )
    return NearlyConvexRoundBound(gamma, beta, t_min, final_bound)
