"""Serialization: points files, line-delimited result records, and trial-plan
configuration files.

Points files are plain text with one decimal value per line at 17 significant
digits (binary64 round-trips exactly), headed by `# modone-points v1 n=<N>`.
Each line is byte for byte Python's `"%.17g"` of the value. The writer computes
the digits in numpy integer arithmetic, one chunk of values at a time: the
exact 128-bit product mant * 5**k, shifted right with round-half-even, gives
the 17 significant digits, and the line is laid out in byte slots whose
unprinted positions are NUL and then deleted. Values outside
1e-4 <= |x| < 2**51 (exponent notation, zeros, subnormals, and from 2**51 up,
where the digits need a left shift) are formatted by `"%.17g"` in the same chunk.
The reader is one `numpy.loadtxt` call.

Result records are one JSON object per line with a fixed key order, so equal
inputs produce byte-identical output streams.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .generators import _SCALE_PARAMETER, ScaleFunction
from .stats import CorrelationWindow
from .experiments import _KIND_PARAMETER, GeneratorConfig, TrialPlan

POINTS_HEADER_PREFIX = "# modone-points v1 n="
SCHEMA_VERSION = 1
_CHUNK = 1 << 15   # values per formatted chunk; its working set stays near 2 MB
_TEXT_WIDTH = 25    # the longest "%.17g\n" line: "-2.2250738585072014e-308\n"
_MASK32 = np.uint64(0xFFFFFFFF)
_POW5 = np.array([5 ** k for k in range(22)], dtype=np.uint64)   # k = 16 - e10, e10 in -5..16
_POW5_LO, _POW5_HI = _POW5 & _MASK32, _POW5 >> np.uint64(32)
_D_MIN, _D_END = np.uint64(10 ** 16), np.uint64(10 ** 17)
_ONE, _TEN = np.uint64(1), np.uint32(10)


def _round_digits(mant, q, e10):
    """D = mant * 2**q * 10**(16 - e10) rounded half to even, and the right shift
    s = -(16 - e10 + q) that it takes; D is exact where 1 <= s <= 63."""
    k = 16 - e10
    s = -(k + q)
    su = np.clip(s, 1, 63).astype(np.uint64)
    b0, b1 = _POW5_LO[k], _POW5_HI[k]
    a0, a1 = mant & _MASK32, mant >> np.uint64(32)
    # mant * 5**k < 2**101 as hi * 2**64 + lo, from 32-bit limbs
    low = a0 * b0
    mid = a0 * b1 + a1 * b0
    lo = low + (mid << np.uint64(32))
    hi = a1 * b1 + (mid >> np.uint64(32)) + (lo < low)
    d = (lo >> su) | (hi << (np.uint64(64) - su))
    half = _ONE << (su - _ONE)
    rem = lo & ((half << _ONE) - _ONE)
    d += (rem > half) | ((rem == half) & (d & _ONE).astype(bool))
    return d, s


def _format_lines(x: np.ndarray) -> bytes:
    """The bytes of `"%.17g\n" % v` for each v of the finite 1-D array x."""
    n = x.size
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)   # "%.17g" prints these without an exponent
    a[~fixed] = 1.0                    # any value in range; these rows are overwritten below
    frac, e2 = np.frexp(a)
    mant = np.ldexp(frac, 53).astype(np.uint64)   # a = mant * 2**q exactly
    q = e2 - 53
    e10 = np.floor(np.log10(a)).astype(np.int64)
    d, s = _round_digits(mant, q, e10)
    # log10 misses by one next to a power of ten, and rounding can carry to 10**17
    off = np.flatnonzero((d < _D_MIN) | (d >= _D_END))
    if off.size:
        e10[off] += np.where(d[off] < _D_MIN, -1, 1)
        d[off], s[off] = _round_digits(mant[off], q[off], e10[off])
    fixed &= (s >= 1) & (s <= 63)
    e10 = e10.astype(np.int8)
    neg = np.signbit(x)

    # One byte slot per row for each position some row of the chunk may print: the
    # sign; the columns j of "0000" + 17 digits, where column 4 + i holds digit i at
    # place value 10**(e10 - i); a dot after column 4 + e10; the newline. The slots
    # are rows of T, so each is filled contiguously; NUL marks what is not printed.
    lo, hi = (int(e10[fixed].min()), int(e10[fixed].max())) if fixed.any() else (0, -1)
    first, dots = 4 + min(lo, 0), range(4 + lo, min(4 + hi, 19) + 1)
    sign = int(neg.any())

    def slot(j):   # the slot of column j; a dot after it takes slot(j) + 1
        return sign + j - first + min(max(j - dots.start, 0), len(dots))

    width = slot(20) + 2
    if not fixed.all():
        width = max(width, _TEXT_WIDTH)
    T = np.zeros((width, n), dtype=np.uint8)
    if sign:
        np.multiply(neg, np.uint8(ord("-")), out=T[0])
    T[slot(20) + 1] = ord("\n")
    for j in range(first, 4):   # the zeros of a value below 1, up to its first digit
        np.multiply(e10 <= j - 4, np.uint8(ord("0")), out=T[slot(j)])
        if j in dots:
            np.multiply(e10 == j - 4, np.uint8(ord(".")), out=T[slot(j) + 1])
    d_hi = d // np.uint64(10 ** 8)
    parts = [(d - d_hi * np.uint64(10 ** 8)).astype(np.uint32), d_hi.astype(np.uint32)]
    seen = np.zeros(n, dtype=bool)   # a nonzero digit at or after digit i
    kept = seen                      # digit i + 1 is printed
    for i in range(16, -1, -1):      # digits 16..9 from parts[0], 8..0 from parts[1]
        t = parts[i <= 8]
        parts[i <= 8] = t // _TEN
        digit = (t - parts[i <= 8] * _TEN).astype(np.uint8)
        seen = seen | (digit != 0)
        keep = seen | (e10 >= i)     # every integer digit; fraction digits to the last nonzero
        np.multiply(digit + np.uint8(ord("0")), keep, out=T[slot(4 + i)])
        if 4 + i in dots:
            np.multiply((e10 == i) & kept, np.uint8(ord(".")), out=T[slot(4 + i) + 1])
        kept = keep
    slow = np.flatnonzero(~fixed)
    if slow.size:
        text = b"".join(("%.17g\n" % v).encode("ascii").ljust(width, b"\0")
                        for v in x[slow].tolist())
        T[:, slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, width).T
    return T.T.tobytes().translate(None, b"\0")


def write_points(path, values) -> None:
    """Write a 1-D array of finite values as a v1 points file; the input is
    checked before the path is opened."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"points must be one-dimensional, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"points must be finite, found {arr[bad[0]]} at index {bad[0]}")
    with open(path, "wb") as f:
        f.write(f"{POINTS_HEADER_PREFIX}{arr.size}\n".encode("ascii"))
        for i in range(0, arr.size, _CHUNK):
            f.write(_format_lines(arr[i:i + _CHUNK]))


def read_points(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as f:
        header = f.readline().rstrip("\n")
        if not header.startswith(POINTS_HEADER_PREFIX):
            raise ValueError(f"{path}: not a modone points file (bad header)")
        try:
            n = int(header[len(POINTS_HEADER_PREFIX):])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed points header") from exc
        try:
            with warnings.catch_warnings():   # an empty body fails the count check
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                vals = np.loadtxt(f, dtype=np.float64, comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if vals.shape[1] != 1:
        raise ValueError(f"{path}: expected one value per line, found {vals.shape[1]}")
    if len(vals) != n:
        raise ValueError(f"{path}: header says n={n} but found {len(vals)} values")
    return vals.ravel()


@dataclass(frozen=True)
class ResultRecord:
    """One statistic evaluation, serialized as a single JSON line. An error is
    always a standard error."""

    command: str
    statistic: str
    value: float
    n: int
    seed: Optional[int] = None
    window: Optional[str] = None
    error: Optional[float] = None
    wall_time_ms: Optional[float] = None

    def to_json_line(self, include_timing: bool = True) -> str:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "statistic": self.statistic,
            "n": self.n,
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.window is not None:
            obj["window"] = self.window
        obj["value"] = self.value
        if self.error is not None:
            obj["error"] = self.error
            obj["error_kind"] = "standard_error"
        if include_timing and self.wall_time_ms is not None:
            obj["wall_time_ms"] = self.wall_time_ms
        return json.dumps(obj, sort_keys=False, allow_nan=False)


# ---------------------------------------------------------------------------
# trial-plan configuration
#
# Example:
# {
#   "generator": {"kind": "theorem1", "c": 1.0},
#   "n_schedule": [10000, 200000],
#   "windows": [{"pair_s": 1.0}, {"k": 3, "intervals": [[0, 1], [0, 1]]}],
#   "trials": 20,
#   "master_seed": 7,
#   "alpha_mode": {"uniform": [1.0, 2.0]}
# }
# All seeds are mandatory; there are no entropy defaults. Values pass through
# unconverted, and the constructors reject what is not a number. A key that
# the object does not take is an error, not ignored.


def _expect(value, kind: type, what: str):
    """`value` itself when it has the JSON container type `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _only(obj: dict, keys, what: str) -> dict:
    """`obj` itself when it has no key outside `keys`."""
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}")
    return obj


def _scale_from_dict(obj) -> ScaleFunction:
    """The width family named by obj["family"], built from its one parameter."""
    fam = _expect(obj, dict, "scale").get("family")
    if not isinstance(fam, str) or fam not in _SCALE_PARAMETER:
        raise ValueError(f"unknown scale family {fam!r}")
    param = _SCALE_PARAMETER[fam]
    return getattr(ScaleFunction, fam)(_only(obj, ("family", param), "scale").get(param))


def _window_from_dict(obj) -> CorrelationWindow:
    if "pair_s" in _expect(obj, dict, "window"):
        return CorrelationWindow.pair(_only(obj, ("pair_s",), "window")["pair_s"])
    _only(obj, ("k", "intervals"), "window")
    return CorrelationWindow(k=obj.get("k"), intervals=obj.get("intervals"))


def plan_from_json(text: str) -> TrialPlan:
    obj = _only(_expect(json.loads(text), dict, "config"),
                ("generator", "n_schedule", "windows", "trials", "master_seed", "alpha_mode"),
                "config")
    gen = _only(_expect(obj.get("generator"), dict, "generator"),
                ("kind", "scale", *_KIND_PARAMETER.values()), "generator")
    config = GeneratorConfig(
        kind=gen.get("kind"),
        alpha=gen.get("alpha"),
        theta=gen.get("theta"),
        base=gen.get("base"),
        c=gen.get("c"),
        scale=_scale_from_dict(gen["scale"]) if "scale" in gen else None,
    )
    am = obj.get("alpha_mode", {"fixed": 1.0})
    if isinstance(am, dict) and list(am) == ["fixed"]:
        alpha_mode = ("fixed", am["fixed"])
    elif isinstance(am, dict) and list(am) == ["uniform"] and isinstance(am["uniform"], list):
        alpha_mode = ("uniform", *am["uniform"])
    else:
        raise ValueError("alpha_mode must carry only 'fixed' or a 'uniform' [lo, hi] list")
    return TrialPlan(
        generator=config,
        n_schedule=tuple(_expect(obj.get("n_schedule"), list, "n_schedule")),
        windows=tuple(_window_from_dict(w) for w in _expect(obj.get("windows"), list, "windows")),
        trials=obj.get("trials"),
        master_seed=obj.get("master_seed"),
        alpha_mode=alpha_mode,
    )
