"""Node value tables: the ground-truth means that noisy oracles observe."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class ValueFormatError(ValueError):
    """A node-value file failed to parse or validate."""


@dataclass(frozen=True)
class ValueTable:
    """True mean value per node, indexed by node id.

    Wraps a read-only float array of length n. ``argmin``/``argmax`` break
    ties toward the lowest node id.
    """

    means: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.means, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("value table must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("value table entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "means", arr)

    @property
    def n(self) -> int:
        return int(self.means.shape[0])

    def value(self, x: int) -> float:
        return float(self.means[x])

    @cached_property
    def floats(self) -> tuple[float, ...]:
        """The values as Python floats, built once per table; scalar code
        indexes these several times faster than the numpy array."""
        return tuple(self.means.tolist())

    @cached_property
    def _bounds(self) -> tuple[float, float]:
        """The least and the greatest value, found once per table."""
        return float(self.means.min()), float(self.means.max())

    @cached_property
    def _extremes(self) -> tuple[int, int]:
        """argmin and argmax, found once per table."""
        return int(np.argmin(self.means)), int(np.argmax(self.means))

    def argmin(self) -> int:
        return self._extremes[0]

    def argmax(self) -> int:
        return self._extremes[1]

    def best(self, maximize: bool = False) -> int:
        return self.argmax() if maximize else self.argmin()

    def gap_to_best(self, x: int, maximize: bool = False) -> float:
        """Suboptimality of node x: always >= 0 regardless of sense."""
        f = self.floats
        best = f[self.best(maximize)]
        return best - f[x] if maximize else f[x] - best


def save_values(table: ValueTable | Sequence[float], path) -> None:
    """Write one ``node,value`` line per node, ids ascending from 0.

    Values that are not a ValueTable become one first, so what the reader
    would refuse (non-finite, empty) raises ValueError before any write.
    """
    if not isinstance(table, ValueTable):
        table = ValueTable(table)
    with open(path, "w", encoding="utf-8") as fh:
        for i, v in enumerate(table.means):
            fh.write(f"{i},{float(v):.17g}\n")


# an ASCII decimal: sign, digits with an optional point, optional exponent
_DECIMAL = re.compile(r"([-+]?)(?=[0-9]|\.[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?")


def exact_ratio(token: str) -> tuple[int, int]:
    """The exact value of ``token`` as a ``(numerator, denominator)`` pair.

    An ASCII decimal such as ``-2.5e-3``, ``.5`` or ``5.`` is read as its
    digits over a power of ten (over 1 when the exponent leaves no
    fraction); any other token is whatever ``Fraction(token)`` makes of it,
    errors included. The pair equals ``Fraction(token)`` as a value; a
    decimal keeps a power of ten below it but drops its trailing zeros, so
    ``1.50`` is ``(15, 10)`` and ``1.000`` is ``(1, 1)``, and a zero is
    ``(0, 1)``.

    A nonzero value that a float cannot hold raises ValueError: one that
    ``float`` rounds to infinity (at least ``2**1024 - 2**970``) or to zero
    (at most ``2**-1075``). A decimal's power of ten is not built before
    that test, so the cost of a token does not grow with its exponent.
    """
    m = _DECIMAL.fullmatch(token)
    if m is None:
        f = Fraction(token)
        _refuse_beyond_float(token, f)
        return f.numerator, f.denominator
    sign, whole, frac, exp = m.groups("")
    # Fraction's own steps, so an over-long digit string fails the same way
    num = int(whole or "0")
    if frac:
        num = num * 10 ** len(frac) + int(frac)
    if sign == "-":
        num = -num
    k = len(frac) - int(exp or "0")
    if num == 0:  # 0e-99999 must not raise a common denominator to 10**99999
        return 0, 1
    digits = whole + frac
    # 1 <= |num| < 10**len(digits), so the value lies in 10**-k .. 10**(len(digits) - k)
    if not len(digits) - 300 <= k <= 300:
        # past 10**310 and below 10**-325 no 10**k is built: a bound stands in
        if k < -309:
            _refuse_beyond_float(token, _FLOAT_INF)
        elif k > len(digits) + 324:
            _refuse_beyond_float(token, _FLOAT_ZERO)
        else:
            _refuse_beyond_float(token, num * Fraction(10) ** -k)
    if k <= 0:
        return num * 10**-k, 1
    # trailing zeros add digits but no value, and must not raise the common
    # denominator of a whole file
    z = min(k, len(digits) - len(digits.rstrip("0")))
    return num // 10**z, 10 ** (k - z)


# the least magnitudes that float() reads as infinity, and the greatest
# nonzero one it reads as 0.0 (both ties round to even)
_FLOAT_INF = Fraction(2**1024 - 2**970)
_FLOAT_ZERO = Fraction(1, 2**1075)


def _refuse_beyond_float(token: str, value) -> None:
    """ValueError unless ``value``, the value of ``token``, is zero or one
    that float() reads as a nonzero finite float."""
    if abs(value) >= _FLOAT_INF:
        raise ValueError(f"value {token} is beyond the largest float")
    if abs(value) <= _FLOAT_ZERO and value:
        raise ValueError(f"nonzero value {token} is below the least float")


def common_denominator(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Integers over one common denominator for ``(numerator, denominator)`` pairs.

    Returns ``(ints, L)`` with L the lcm of the denominators (1 for no
    pairs): pair ``(p, q)`` becomes ``p * (L // q)``, so ``ints[i] / L`` is
    the i-th value exactly.
    """
    dens = {q for _, q in pairs}
    L = math.lcm(*dens)
    scale = {q: L // q for q in dens}
    return [p * scale[q] for p, q in pairs], L


def parse_values(path, n: int | None = None, number: Callable = float) -> list:
    """Parse a ``node,value`` file into a list of ``number(text)`` values.

    Ids must be 0..n-1 ascending, no gaps; values must be finite. Pass
    ``number=exact_ratio`` (or ``fractions.Fraction``) to read the values
    exactly. Raises ValueFormatError with the offending line number on any
    defect.
    """
    vals: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueFormatError(f"{path}:{lineno}: expected 'node,value', got {line!r}")
            try:
                node = int(parts[0])
                val = number(parts[1])
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueFormatError(f"{path}:{lineno}: {exc}") from exc
            if node != len(vals):
                raise ValueFormatError(
                    f"{path}:{lineno}: node ids must ascend without gaps "
                    f"(expected {len(vals)}, got {node})"
                )
            # exact numbers such as Fraction or a ratio pair are always finite
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueFormatError(f"{path}:{lineno}: non-finite value")
            vals.append(val)
    if not vals:
        raise ValueFormatError(f"{path}: empty value file")
    if n is not None and len(vals) != n:
        raise ValueFormatError(f"{path}: expected {n} values, found {len(vals)}")
    return vals


def load_values(path, n: int | None = None) -> ValueTable:
    """Read a ``node,value`` file (see parse_values) into a ValueTable.

    A nonzero token too small for a float, such as ``1e-400``, reads as
    0.0 here, where ``exact_ratio`` refuses it.
    """
    return ValueTable(np.array(parse_values(path, n)))
