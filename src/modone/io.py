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

The reader decodes the body in blocks of whole lines into one preallocated
array. A block whose lines all have the writer's form `-?[0-9]+.[0-9]+` in that
range is decoded in numpy: the digits D of each line come from the bytes
before its newline, eight at a time, and the candidate D / 10**f is certified
by the writer's own kernel, since a float whose 17-digit rounding is the line
is the line's correctly rounded value. Any other block (exponents, blank
lines, CRLF, spaces, more than 17 digits, ...) is read by `numpy.loadtxt`, so
every file reads to the same values as with `numpy.loadtxt` alone. Errors name
the file and its 1-based line.

Result records are one JSON object per line with a fixed key order, so equal
inputs produce byte-identical output streams.
"""

from __future__ import annotations

import json
import os
import stat
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

_PREFIX = POINTS_HEADER_PREFIX.encode("ascii")
_HEADER_BYTES = 64   # the header with an n of 40 digits and CRLF fits
_BLOCK = 1 << 17     # bytes read per block of whole lines; its working set is ~2 MB
_PAD = b"0" * 24     # before a block, so every line has 24 bytes before its newline
# _KEEP[j, c]: the bytes of word j of the three before a newline that hold a
# line of c digits, as a mask; _KEEP_ZEROS: those bytes as ASCII "0"
_KEEP = np.array([[(1 << 64) - (1 << (64 - 8 * min(max(c - after, 0), 8))) for c in range(25)]
                  for after in (16, 8, 0)], dtype=np.uint64)
_KEEP_ZEROS = _KEEP & np.uint64(0x3030303030303030)
_PAIRS = np.uint64(0x000000FF000000FF)
_PAIRS_HI = np.uint64(100 + (10 ** 6 << 32))
_PAIRS_LO = np.uint64(1 + (10 ** 4 << 32))
_POW10 = np.array([10 ** k for k in range(18)], dtype=np.uint64)
_POW10F = np.array([float(10 ** k) for k in range(21)])   # exact


def _round_digits(a, e10):
    """D = a * 10**(16 - e10) rounded half to even for positive finite a, and the
    right shift s that it takes; D is exact where 1 <= s <= 63."""
    frac, e2 = np.frexp(a)
    mant = np.ldexp(frac, 53).astype(np.uint64)   # a = mant * 2**(e2 - 53) exactly
    k = 16 - e10
    s = 53 - e2 - k
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
    e10 = np.floor(np.log10(a)).astype(np.int64)
    d, s = _round_digits(a, e10)
    # log10 misses by one next to a power of ten, and rounding can carry to 10**17
    off = np.flatnonzero((d < _D_MIN) | (d >= _D_END))
    if off.size:
        e10[off] += np.where(d[off] < _D_MIN, -1, 1)
        d[off], s[off] = _round_digits(a[off], e10[off])
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


class _BadLine(ValueError):
    """A body line that is not one finite number, at a 0-based index among the
    lines of its block."""

    def __init__(self, index: int, reason: str):
        super().__init__(reason)
        self.index = index


def _blocks(f):
    """The rest of the binary file f in blocks of whole lines, each ending in a
    newline; a last line without one gets one."""
    pieces = []
    while chunk := f.read(_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pieces.append(memoryview(chunk)[:cut])
            yield b"".join(pieces)
            pieces = []
        pieces.append(chunk[cut:])
    tail = b"".join(pieces)
    if tail:
        yield tail + b"\n"


def _decode_fast(block: bytes):
    """The values of a block whose lines are all `-?[0-9]+.[0-9]+` with at most 17
    significant digits and 1e-4 <= |x| < 2**51, and the number of its lines;
    None for any other block.

    With the dots deleted, the 24 bytes before each newline are read as three
    little-endian uint64 words, and each word's eight ASCII digits become a
    number by multiply-shift steps; together they give the line's digits D. The
    candidate D / 10**f (f fraction digits) is certified by the writer's kernel:
    a float whose 17-digit rounding is the line is the line's correctly rounded
    value, because 17 digits tell binary64 values apart. Above 2**53, float(D)
    is itself rounded, so a candidate can be an ulp off; it is stepped toward
    the line, and a line still off after that sends the block to the text path."""
    a = np.frombuffer(block, dtype=np.uint8)
    nl = np.flatnonzero(a == ord("\n"))
    dot = np.flatnonzero(a == ord("."))
    minus = np.count_nonzero(a == ord("-"))
    m = nl.size
    # no byte but digits, newlines, dots and minus signs; one dot per line
    if dot.size != m or np.count_nonzero(a - np.uint8(ord("0")) < 10) + 2 * m + minus != a.size:
        return None
    first = np.empty_like(nl)
    first[0], first[1:] = 0, nl[:-1] + 1
    neg = a[first] == ord("-")
    if np.count_nonzero(neg) != minus:   # a minus sign only as a line's first byte
        return None
    first += neg
    f = nl - dot - 1
    digits = nl - first - 1
    if not ((dot > first).all() and (f > 0).all() and (digits <= 24).all()):
        return None
    text = (_PAD + block).translate(None, b".")
    words = np.ndarray((len(text) - 7,), dtype="<u8", buffer=text, strides=(1,))
    end = nl + (len(_PAD) - 1 - np.arange(m))   # the newline of each line in text
    D = np.zeros(m, dtype=np.uint64)
    for back, keep, zeros in zip((24, 16, 8), _KEEP, _KEEP_ZEROS):   # words before the newline
        v = words[end - back]
        v &= keep[digits]
        v -= zeros[digits]
        v = v * np.uint64(10) + (v >> np.uint64(8))   # byte pairs 10 * b[i] + b[i + 1]
        v = ((v & _PAIRS) * _PAIRS_HI + ((v >> np.uint64(16)) & _PAIRS) * _PAIRS_LO) >> np.uint64(32)
        D *= np.uint64(10 ** 8)
        D += v
        if back == 24 and (v >= 10).any():   # 18 or more significant digits
            return None
    sig = np.searchsorted(_POW10, D, side="right")   # significant digits of D
    e10 = sig - 1 - f
    if not ((sig > 0) & (e10 >= -4) & (e10 <= 15)).all():
        return None
    x = D.astype(np.float64) / _POW10F[f]
    # up to 2**53, D and 10**f are exact and the one division rounds correctly
    rows = np.flatnonzero(D > np.uint64(2 ** 53))
    for _ in range(3):
        d, s = _round_digits(x[rows], e10[rows])
        want = D[rows] * _POW10[17 - sig[rows]]
        off = (d != want) | (s < 1) | (s > 63)
        if not off.any():
            break
        up = (d < want) & (s >= 1)   # s < 1: x reached 2**51
        rows = rows[off]
        x[rows] = np.nextafter(x[rows], np.where(up[off], np.inf, 0.0))
    else:
        return None
    np.negative(x, out=x, where=neg)
    return x, m


def _loadtxt(lines):
    """`numpy.loadtxt` of the lines as one column of finite values, or None."""
    try:   # the last row, "0", keeps loadtxt from warning on blank lines alone
        vals = np.loadtxt(lines + ["0"], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if vals.shape[1] != 1 or not np.isfinite(vals).all():
        return None
    return vals[:-1, 0]


def _why(line: str) -> str:
    """What is wrong with a body line that `_loadtxt` refuses."""
    try:
        vals = np.loadtxt([line], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return f"not a number: {ascii(line.strip())}"
    if vals.shape[1] != 1:
        return f"expected one value per line, found {vals.shape[1]}"
    return f"points must be finite, found {vals[0, 0]}"


def _decode_text(block: bytes):
    """The values of a block by `numpy.loadtxt`, its lines split as a file read in
    text mode splits them, and the number of those lines."""
    text = block.decode("ascii", errors="replace")   # U+FFFD is no number and no space
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[:-1]
    vals = _loadtxt(lines)
    if vals is not None:
        return vals, len(lines)
    lo, hi = 0, len(lines)   # lines[:lo] read, lines[:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _loadtxt(lines[:mid]) is None:
            hi = mid
        else:
            lo = mid
    raise _BadLine(lo, _why(lines[lo]))


def read_points(path) -> np.ndarray:
    """The values of a v1 points file, each the correctly rounded value of its
    line. A body line that is not one finite number, a header that is not
    `# modone-points v1 n=<digits>`, or a count other than n raises ValueError."""
    with open(path, "rb") as f:
        head = f.readline(_HEADER_BYTES)
        header = head.removesuffix(b"\n").removesuffix(b"\r")
        if not header.startswith(_PREFIX):
            raise ValueError(f"{path}: not a modone points file (bad header)")
        count = header[len(_PREFIX):]
        if not (count.isdigit() and (head.endswith(b"\n") or len(head) < _HEADER_BYTES)):
            raise ValueError(f"{path}: malformed points header")
        n = int(count)
        st = os.fstat(f.fileno())
        # each value takes a byte and all but the last a newline
        if stat.S_ISREG(st.st_mode) and n > (st.st_size - len(head) + 1) // 2:
            raise ValueError(f"{path}: header says n={n} but the file has only "
                             f"{st.st_size - len(head)} bytes after it")
        try:
            out = np.empty(n)
        except MemoryError:   # a pipe has no size to check n against
            raise ValueError(f"{path}: header says n={n}, more values than fit in memory") from None
        found, line = 0, 2   # values so far; the file line of the next block's first line
        for block in _blocks(f):
            try:
                vals, lines = _decode_fast(block) or _decode_text(block)
            except _BadLine as exc:
                raise ValueError(f"{path}: line {line + exc.index}: {exc}") from None
            if found + vals.size <= n:
                out[found:found + vals.size] = vals
            found, line = found + vals.size, line + lines
    if found != n:
        raise ValueError(f"{path}: header says n={n} but found {found} values")
    return out


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
