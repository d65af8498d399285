"""Node value tables: the ground-truth means that noisy oracles observe.

This module imports no other graphopt module, so it also holds the argument
checks every layer shares: ``_whole``, ``_node`` (the one test of a node
id), ``_flag``, ``_finite`` and ``_as_float``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import _RATIONAL_FORMAT, Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


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


def _node(name: str, x, n: int) -> int:
    """``x`` as a node id in 0..n-1: an int as it is, else through ``_whole``
    (4.0 is node 4); ValueError naming ``name`` unless it is one."""
    if type(x) is not int:
        x = _whole(name, x)
    if not 0 <= x < n:
        raise ValueError(f"{name} {x} out of range")
    return x


def _flag(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` equals True or False
    (0, 1 and numpy bools do)."""
    if value not in (True, False):
        raise ValueError(f"{name} must be True or False, got {value!r}")


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
    raise ValueError(f"{name} must be finite{_rule(lo, strict, hi)}, got {value}")


def _as_float(name: str, value, lo=None, strict: bool = False, hi=None) -> float:
    """``value`` checked by ``_finite`` and returned as a float; ValueError
    naming ``name`` also when no float holds it within the rule: beyond the
    float range, or rounding onto a strict bound (Fraction(1, 10**400) > 0
    becomes 0.0). An int that fits converts exactly."""
    _finite(name, value, lo, strict, hi)
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if math.isfinite(x) and x != hi and not (strict and x == lo):
        return x
    raise ValueError(f"{name} must be finite{_rule(lo, strict, hi)} as a float; it converts to {x}")


def _rule(lo, strict: bool, hi) -> str:
    rule = "" if lo is None else f" and {'>' if strict else '>='} {lo}"
    return rule + ("" if hi is None else f" and < {hi}")


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
        return float(self.means[_node("node", x, self.n)])

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
        x = _node("node", x, len(f))
        best = f[self.best(maximize)]
        return best - f[x] if maximize else f[x] - best


def save_values(table: ValueTable | Sequence[float], path) -> None:
    """Write one ``node,value`` line per node, ids ascending from 0.

    Values that are not a ValueTable become one first, so what the reader
    would refuse (non-finite, empty) raises ValueError before any write.
    """
    if not isinstance(table, ValueTable):
        table = ValueTable(table)
    text = "".join([f"{i},{v:.17g}\n" for i, v in enumerate(table.floats)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def exact_ratio(token: str) -> tuple[int, int]:
    """The exact value of ``token`` as a ``(numerator, denominator)`` pair.

    Every token is read in Fraction's grammar, errors included. A decimal
    such as ``-2.5e-3``, ``.5``, `` 1_0.5`` or one in non-ASCII digits is
    its digits over a power of ten (over 1 when the exponent leaves no
    fraction); a ratio ``p/q``, and any token that grammar does not take,
    is whatever ``Fraction(token)`` makes of it. The pair equals
    ``Fraction(token)`` as a value; a decimal keeps a power of ten below it
    but drops its trailing ASCII zeros, so ``1.50`` is ``(15, 10)`` and
    ``1.000`` is ``(1, 1)``, and a zero is ``(0, 1)``.

    A nonzero value that a float cannot hold raises ValueError: one that
    ``float`` rounds to infinity (at least ``2**1024 - 2**970``) or to zero
    (at most ``2**-1075``). A decimal far past that range is refused before
    its power of ten is built, so the cost of a token does not grow with
    its exponent.
    """
    m = _RATIONAL_FORMAT.match(token)  # the pattern Fraction(token) matches
    if m is None or m["denom"]:
        f = Fraction(token)
        _refuse_beyond_float(token, f)
        return f.numerator, f.denominator
    # Fraction's own steps in its order, so a group it refuses fails the same way
    whole, frac = m["num"], (m["decimal"] or "").replace("_", "")
    num = int(whole or "0")
    if frac:
        num = num * 10 ** len(frac) + int(frac)
    k = len(frac) - int(m["exp"] or "0")
    if num == 0:  # 0e-99999 must not raise a common denominator to 10**99999
        return 0, 1
    if m["sign"] == "-":
        num = -num
    digits = whole.replace("_", "") + frac
    # 1 <= |num| < 10**len(digits), so the value lies in 10**-k .. 10**(len(digits) - k)
    if not len(digits) - 300 <= k <= 300:
        # past 10**309 or below 10**-324 a bound stands in for the value
        if k < -309 or k > len(digits) + 324:
            _refuse_beyond_float(token, _FLOAT_INF if k < 0 else _FLOAT_ZERO)
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

    With ``number=exact_ratio``, a file in the form ``save_values`` writes
    is read in one numpy pass (see ``_bulk_exact``), whose digits are read
    as graph files' are (``_digit_runs``). Any other file, and any fault,
    is walked line by line, which reads each value in Fraction's grammar
    and names the first faulty line.
    """
    if number is exact_ratio:
        with open(path, "rb") as fh:
            vals = _bulk_exact(fh.read(), n)
        if vals is not None:
            return vals
    vals = []
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


# the line shape of the bulk pass; its numpy steps rely on what this states:
# the file ends in a newline, each line has one comma and at most one point
# and one e, both after the comma and the point first, and the byte after a
# comma or an e is a sign or a digit
_BULK_LINE = re.compile(rb"(?:\d+,-?\d+(?:\.\d+)?(?:e[-+]\d+)?\n)+")

# the bulk passes read a number of at most 21 digits ('%.17g' writes up to
# '0.000' and 17 more), of which only the last 18 may be nonzero: 10**18 - 1
# fits int64
_BULK_WIDTH, _BULK_DIGITS = 21, 18


def _bulk_exact(data: bytes, n: int | None) -> list[tuple[int, int]] | None:
    """``exact_ratio`` of each value of a file in the form ``save_values``
    writes, by one pattern match and one numpy pass; None for any other file.

    Every line is ``<id>,[-]<digits>[.<digits>][e(-|+)<digits>]`` in ASCII,
    with ids 0, 1, ... (n lines when n is given) and a final newline. Each
    number has at most 21 digits and no nonzero one before its last 18, a
    fraction does not end in 0 (``exact_ratio`` drops such zeros), and each
    value is ``m / 10**k`` with ``len(digits) - 300 <= k <= 300``, where
    ``exact_ratio`` makes no far-range test.
    """
    if not _BULK_LINE.fullmatch(data):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    nl = np.flatnonzero(b == ord("\n"))
    lines = len(nl)
    if n is not None and lines != n:
        return None
    comma = np.flatnonzero(b == ord(","))
    # the mantissa ends at the exponent, or at the newline where there is none
    point = np.full(lines, -1)
    mend = nl.copy()
    for c, into in ((".", point), ("e", mend)):
        at = np.flatnonzero(b == ord(c))
        into[np.searchsorted(nl, at)] = at
    minus = np.append(b == ord("-"), False)
    negative, negative_power = minus[comma + 1], minus[mend + 1]
    # without its point a mantissa is one run of digits; the places of the
    # comma, e and newline move back by the points before them
    has_point, has_power = point >= 0, mend < nl
    frac = np.where(has_point, mend - point - 1, 0)
    shift = np.cumsum(has_point)
    b = b[b != ord(".")]
    comma, mend, nl = comma - (shift - has_point), mend - shift, nl - shift
    lo = comma + 1 + negative
    ids, m, power = (
        _digit_runs(b, first, end)
        for first, end in (
            (np.concatenate(([0], nl[:-1] + 1)), comma),
            (lo, mend),
            # a line without a power has mend == nl: an empty run
            (np.where(has_power, mend + 2, nl), nl),
        )
    )
    if ids is None or m is None or power is None or not np.array_equal(ids, np.arange(lines)):
        return None
    # the value is m / 10**k
    k = frac - np.where(negative_power, -power, power)
    if ((k > 300) | (k < mend - lo - 300) | ((k > 0) & (m % 10 == 0) & (m != 0))).any():
        return None
    m = np.where(negative, -m, m)
    k[m == 0] = 0
    tens = {p: 10 ** abs(p) for p in set(k.tolist())}
    return [(v, tens[p]) if p > 0 else (v * tens[p], 1) for v, p in zip(m.tolist(), k.tolist())]


def _digit_runs(b: np.ndarray, first: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The numbers that the ASCII digit runs ``b[first:end]`` spell, as
    int64 (0 for an empty run); None if a run is longer than 21 digits or
    has a nonzero one before its last 18."""
    lens = end - first
    width = int(lens.max(initial=0))
    if width > _BULK_WIDTH:
        return None
    value = np.zeros(len(first), dtype=np.int64)
    for c in range(1, width + 1):  # the c-th digit from the right
        d = b[np.maximum(end - c, 0)].astype(np.int64) - ord("0")
        d[lens < c] = 0
        if c <= _BULK_DIGITS:
            value += d * 10 ** (c - 1)
        elif d.any():
            return None
    return value


def load_values(path, n: int | None = None) -> ValueTable:
    """Read a ``node,value`` file (see parse_values) into a ValueTable.

    A nonzero token too small for a float, such as ``1e-400``, reads as
    0.0 here, where ``exact_ratio`` refuses it.
    """
    return ValueTable(np.array(parse_values(path, n)))
