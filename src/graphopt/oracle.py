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
        if not math.isfinite(self.R):
            raise ValueError(f"noise scale R must be finite, got {self.R}")
        if self.noise == "gaussian" and self.R < 0:
            raise ValueError("gaussian noise scale R must be >= 0")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0 when set")

    @property
    def remaining(self) -> int | None:
        if self.budget is None:
            return None
        return max(0, self.budget - self.used)

    def _take(self, count: int) -> int:
        """Reserve up to ``count`` observations; 0 available raises."""
        if count <= 0:
            raise ValueError("count must be >= 1")
        if self.budget is not None:
            count = min(count, self.budget - self.used)
            if count <= 0:
                raise BudgetExhaustedError(f"budget {self.budget} spent")
        self.used += count
        return count

    def sample(self, x: int, rng: np.random.Generator) -> float:
        """One noisy observation of node x."""
        self._take(1)
        f = self.values.value(x)
        if self.noise == "bernoulli":
            obs = float(rng.random() < f)
        else:
            obs = f + self.R * float(rng.standard_normal())
        return -obs if self.maximize else obs

    def _mean(self, f, k, rng: np.random.Generator, size: int | None = None):
        """Mean of k observations of value f, from one closed-form draw
        (binomial, or normal with variance R^2/k). With arrays f and k and
        ``size`` their length, one array call draws what the same scalar
        calls would, in order."""
        if self.noise == "bernoulli":
            mean = rng.binomial(k, f, size) / k
        else:
            mean = f + self.R / np.sqrt(k) * rng.standard_normal(size)
        return -mean if self.maximize else mean

    def sample_mean(self, x: int, count: int, rng: np.random.Generator) -> tuple[float, int]:
        """Mean of up to ``count`` observations of x, with the number taken.

        Drawn in one closed-form batch, which matches the distribution of
        k independent draws. A nearly spent budget yields a partial batch;
        a spent one raises.
        """
        k = self._take(count)
        return float(self._mean(self.values.value(x), k, rng)), k

    def sample_means(
        self, xs: Sequence[int], count: int, rng: np.random.Generator
    ) -> tuple[list[float], list[int]]:
        """``sample_mean(x, count, rng)`` for each x in turn, as two lists.

        The budget is reserved once for the whole list. When it runs dry
        only a prefix is served: full batches, then at most one partial
        batch; a spent budget raises. Means, draws and meter are those of
        the one-by-one calls. A phase of at least ARRAY_DRAW_MIN batches is
        drawn with one array call, a narrower one with scalar calls.
        """
        if not xs:
            return [], []
        full, part = divmod(self._take(len(xs) * count), count)
        taken = [count] * full + [part] * (part > 0)
        if len(taken) < ARRAY_DRAW_MIN:
            # _mean's formulas on Python floats: the same IEEE operations
            f = self.values.floats
            if self.noise == "bernoulli":
                binomial = rng.binomial
                means = [binomial(k, f[x]) / k for x, k in zip(xs, taken)]
            else:
                normal, R = rng.standard_normal, self.R
                means = [f[x] + R / math.sqrt(k) * normal() for x, k in zip(xs, taken)]
            return [-m for m in means] if self.maximize else means, taken
        f = self.values.means[np.asarray(xs[: len(taken)])]
        return self._mean(f, np.array(taken), rng, len(taken)).tolist(), taken
