"""Core representations: raw real sequences and their fractional parts on the circle."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


def _is_int(v) -> bool:
    # JSON plans give floats and strings as they are; bool is an int subclass
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# the length of the blocks over which elementwise chains run: 512 KiB of float64
_BLOCK = 1 << 16


def _blocks(n: int, size: int = _BLOCK):
    """The slices of consecutive blocks of at most `size` indices that cover range(n)."""
    return (slice(a, min(a + size, n)) for a in range(0, n, size))


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("sequence values must be one-dimensional")
    if arr.size < 1:
        raise ValueError("sequence must contain at least one value")
    return arr


def _check_finite(arr: np.ndarray) -> None:
    """Refuses a NaN or an infinity, looking at a block of values at a time."""
    if not all(np.isfinite(arr[b]).all() for b in _blocks(arr.size)):
        raise ValueError("sequence values must be finite")


def _ascending(arr: np.ndarray) -> bool:
    """arr[i + 1] >= arr[i] for every i, a block at a time; False at a NaN."""
    return all(np.all(arr[b.start + 1:b.stop + 1] >= arr[b]) for b in _blocks(arr.size - 1))


@dataclass(frozen=True)
class RealSequence:
    """Raw real values x_1..x_N, before any reduction modulo 1.

    Indexing is 1-based in the mathematical sense: values[0] is x_1.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.values)
        _check_finite(arr)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def is_well_spaced(self) -> bool:
        """Exact check that consecutive values differ by at least 1."""
        if self.n == 1:
            return True
        return bool(np.all(np.diff(self.values) >= 1.0))

    def prefix(self, n: int) -> "RealSequence":
        if not 1 <= n <= self.n:
            raise ValueError(f"prefix length {n} out of range 1..{self.n}")
        return RealSequence(self.values[:n])


@dataclass(frozen=True)
class TorusPoints:
    """Fractional parts sorted ascending on [0, 1); the substrate of every statistic."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_float_array(self.points)
        # sorted values inside [0, 1) are finite, and a NaN fails a comparison,
        # so finiteness is looked at only to name the refusal
        if not (arr[0] >= 0.0 and arr[-1] < 1.0 and _ascending(arr)):
            _check_finite(arr)
            if not _ascending(arr):
                raise ValueError("torus points must be sorted ascending")
            raise ValueError("torus points must lie in [0, 1)")
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return int(self.points.size)


def frac_part(values, out=None) -> np.ndarray:
    """Fractional part mapping into [0, 1), mathematical mod (negative inputs wrap up).

    Values whose fractional part rounds to 1.0 in binary64 are mapped to 0.0 so
    the half-open invariant holds exactly. x - floor(x) is bitwise np.mod(x, 1.0)
    for finite x: one rounding of the same exact value, +0 for integers and -0.
    The result is written to out if given, a contiguous float64 array of the
    values' shape, a block of _BLOCK values at a time; out may be the values'
    own array, as each block is read before it is written.
    """
    x = np.asarray(values, dtype=np.float64)
    r = np.empty(x.shape) if out is None else out
    if r.shape != x.shape or r.dtype != np.float64 or not r.flags.c_contiguous:
        raise ValueError("out must be a contiguous float64 array of the values' shape")
    x, flat = x.reshape(-1), r.reshape(-1)
    low = np.empty(min(x.size, _BLOCK))
    for b in _blocks(x.size):
        y, f = flat[b], low[:b.stop - b.start]
        np.floor(x[b], out=f)
        np.subtract(x[b], f, out=y)
        y[y >= 1.0] = 0.0
    return r


def frac_reduce(seq: RealSequence, out=None) -> TorusPoints:
    """Reduce a raw sequence modulo 1 and sort; ties are kept as duplicates.
    The points are written to out if given, which may be seq.values itself."""
    r = frac_part(seq.values, out)
    r.sort()
    return TorusPoints(r)


def scale_by_alpha(seq: RealSequence, alpha: float) -> RealSequence:
    """Dilate a raw sequence by a nonzero real, as used by the metric experiments."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    return RealSequence(alpha * seq.values)
