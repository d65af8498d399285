"""Noisy value oracles with a sample meter and optional hard budget."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .values import ValueTable

# Phases serving at least this many batches are drawn with one array call.
# On a 2-CPU x86 host a narrow bernoulli phase costs about 0.45 us per batch
# drawn by scalar calls against about 7 us plus 0.1 us per batch as one
# array call, so arrays win from about 16-20 batches (gaussian from about
# 8); at 20, grid-sweep ran about 4% faster than at 12.
ARRAY_DRAW_MIN = 20


def _whole(name: str, value, lo: int | None = None) -> int:
    """``value`` as an int (4.0 is taken as 4); ValueError naming ``name``
    unless it is a whole number, and at least ``lo`` when that is given."""
    try:
        n = int(value)
        if n == value and (lo is None or n >= lo):
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    rule = "" if lo is None else f" >= {lo}"
    raise ValueError(f"{name} must be a whole number{rule}, got {value}")


def _finite(name: str, value, lo=None, strict: bool = False, hi=None):
    """``value`` itself; ValueError naming ``name`` unless it is a finite
    real number, at least ``lo`` (above it when ``strict``) and below ``hi``
    where those are given. NaN and +-inf always fail; a Fraction or a huge
    int is compared exactly, never converted to a float."""
    try:
        if (
            -math.inf < value < math.inf
            and (lo is None or (lo < value if strict else lo <= value))
            and (hi is None or value < hi)
        ):
            return value
    except TypeError:
        pass
    rule = "" if lo is None else f" and {'>' if strict else '>='} {lo}"
    rule += "" if hi is None else f" and < {hi}"
    raise ValueError(f"{name} must be finite{rule}, got {value}")


class BudgetExhaustedError(RuntimeError):
    """The oracle's sample budget is spent; no observation was produced."""


@dataclass
class NoisyOracle:
    """Observation source over a value table.

    noise="bernoulli" returns 0/1 draws with success probability f(x)
    (values must then lie in [0, 1]); noise="gaussian" returns
    f(x) + N(0, R^2). Every scalar observation advances ``used`` by one;
    when ``budget`` is set, draws beyond it raise BudgetExhaustedError.

    The optimizers minimize what they observe; with ``maximize`` set the
    oracle returns negated observations, so they climb f. The sign is
    applied after the draw and leaves the random stream unchanged.
    """

    values: ValueTable
    noise: str = "bernoulli"
    R: float = 0.5
    budget: int | None = None
    maximize: bool = False
    used: int = field(default=0, init=False)

    def __post_init__(self):
        if self.noise not in ("bernoulli", "gaussian"):
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if self.noise == "bernoulli":
            lo, hi = self.values.means.min(), self.values.means.max()
            if lo < 0.0 or hi > 1.0:
                raise ValueError("bernoulli noise needs values in [0, 1]")
        _finite("R", self.R, 0 if self.noise == "gaussian" else None)
        if self.budget is not None:
            self.budget = _whole("budget", self.budget, 0)

    @property
    def remaining(self) -> int | None:
        if self.budget is None:
            return None
        return max(0, self.budget - self.used)

    def sample_mean(self, x: int, count: int, rng: np.random.Generator) -> tuple[float, int]:
        """The one-node case of sample_means, as a (mean, taken) pair."""
        means, taken = self.sample_means((x,), count, rng)
        return means[0], taken[0]

    def sample_means(
        self, xs: Sequence[int], count: int, rng: np.random.Generator
    ) -> tuple[list[float], list[int]]:
        """Mean of up to ``count`` observations of each x in turn, with the
        number taken, as two lists. This is the oracle's one draw path.

        Each mean is one closed-form draw, which matches the distribution
        of k independent observations: binomial(k, f) / k, or
        f + R / sqrt(k) * N(0, 1). The budget is reserved once for the
        whole list. When it runs dry only a prefix is served: full
        batches, then at most one partial batch; a spent budget raises.
        A phase of at least ARRAY_DRAW_MIN batches is drawn with one array
        call, a narrower one with scalar calls.
        """
        if not xs:
            return [], []
        if count <= 0:
            raise ValueError("count must be >= 1")
        want = len(xs) * count
        got = want if self.budget is None else min(want, self.budget - self.used)
        if got <= 0:
            raise BudgetExhaustedError(f"budget {self.budget} spent")
        self.used += got
        taken = [count] * len(xs)
        if got < want:
            full, part = divmod(got, count)
            taken = taken[:full] + [part] * (part > 0)
        if len(taken) < ARRAY_DRAW_MIN:
            # the array formulas on Python floats: the same IEEE operations
            f, sign = self.values.floats, -1.0 if self.maximize else 1.0
            if self.noise == "bernoulli":
                binomial = rng.binomial
                return [sign * (binomial(k, f[x]) / k) for x, k in zip(xs, taken)], taken
            normal, R = rng.standard_normal, self.R
            return [sign * (f[x] + R / math.sqrt(k) * normal()) for x, k in zip(xs, taken)], taken
        # one array call draws what the same scalar calls would, in order
        f = self.values.means[np.asarray(xs[: len(taken)])]
        k = np.array(taken)
        if self.noise == "bernoulli":
            means = rng.binomial(k, f, len(taken)) / k
        else:
            means = f + self.R / np.sqrt(k) * rng.standard_normal(len(taken))
        return (-means if self.maximize else means).tolist(), taken
