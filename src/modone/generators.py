"""Sequence families: base sequences, seeded random perturbations, and
continued-fraction machinery for the dilation experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .seqcore import RealSequence, _blocks, _is_real

# Width functions are clamped below this index: log log n is undefined or
# negative up to e^e ~ 15.15, and the asymptotic hypotheses only constrain the tail.
DEFAULT_N_MIN = 16

# Hard cap on any evaluated width, so that the step-2 construction keeps
# consecutive gaps >= 2 - 2*0.45 = 1.1 and stays well spaced.
WIDTH_CAP = 0.45


@dataclass(frozen=True, eq=False)
class ScaleFunction:
    """Perturbation half-width g(n), as a named family with one parameter.

    Families (natural logarithms throughout):
      beck:      g(n) = log n * (log log n)^(1+c) / n
      power_log: g(n) = (log n)^c / n
      constant:  g(n) = g0
      table:     g(n) = table[n-1]  (explicit per-index widths)

    Evaluation takes real n >= 1, clamps it at DEFAULT_N_MIN for the formula
    families and caps the value at WIDTH_CAP. A table keeps its own read-only
    copy of the widths.
    """

    family: str
    c: float = 0.0
    g0: float = 0.0
    values: Optional[np.ndarray] = None

    @classmethod
    def beck(cls, c: float) -> "ScaleFunction":
        if not (_is_real(c) and c > 0):
            raise ValueError(f"beck family needs c > 0, got {c!r}")
        return cls(family="beck", c=float(c))

    @classmethod
    def power_log(cls, c: float) -> "ScaleFunction":
        if not (_is_real(c) and c > 0):
            raise ValueError(f"power_log family needs c > 0, got {c!r}")
        return cls(family="power_log", c=float(c))

    @classmethod
    def constant(cls, g0: float) -> "ScaleFunction":
        if not (_is_real(g0) and g0 >= 0):
            raise ValueError(f"constant family needs g0 >= 0, got {g0!r}")
        return cls(family="constant", g0=float(g0))

    @classmethod
    def table(cls, values) -> "ScaleFunction":
        try:
            vals = np.array(values, dtype=np.float64)   # a copy
            if vals.ndim != 1:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"table widths must be numbers, got {values!r}") from None
        if not np.all(np.isfinite(vals) & (vals >= 0)):
            raise ValueError("table widths must be finite and nonnegative")
        vals.flags.writeable = False
        return cls(family="table", values=vals)

    def _formula(self, n: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):   # a huge c gives +inf, capped as for c = inf
            if self.family == "beck":
                ln = np.log(n)
                return ln * np.log(ln) ** (1.0 + self.c) / n
            if self.family == "power_log":
                return np.log(n) ** self.c / n
        if self.family == "constant":
            return np.full_like(n, self.g0, dtype=np.float64)
        raise ValueError(f"unknown scale family {self.family!r}")

    def eval(self, n) -> np.ndarray | float:
        """g at real arguments n >= 1 (vectorized), capped at WIDTH_CAP. The
        formula families clamp n at DEFAULT_N_MIN; a table rounds n half to
        even to the nearest index, which must lie in the table."""
        x = np.asarray(n, dtype=np.float64)
        if np.any(x < 1):
            raise ValueError("scale function indices start at 1")
        if self.family == "table":
            assert self.values is not None
            # rint is monotone, so the largest index decides; NaN fails here
            if x.size and not np.rint(np.max(x)) <= len(self.values):
                raise ValueError("index beyond the"
                                 f" table of length {len(self.values)}")
            idx = np.rint(x).astype(np.intp)
            idx -= 1
            out = self.values.take(idx)
        else:
            out = self._formula(np.maximum(x, float(DEFAULT_N_MIN)))
        if np.ndim(n) == 0:
            return float(min(out, WIDTH_CAP))
        return np.minimum(out, WIDTH_CAP, out=out)   # out is a new array

    def check_cap(self, n: int) -> None:
        """Raise ValueError if a given width up to index n exceeds WIDTH_CAP.
        eval caps every width; only beck and power_log (g0 = 0) clamp through it."""
        self.eval(n)   # a width table must reach n
        widest = np.max(self.values[:n]) if self.family == "table" else self.g0
        if widest > WIDTH_CAP:
            raise ValueError(f"{self.family} width {widest:g} exceeds {WIDTH_CAP}")


# The parameter of each width family; the family's constructor carries its name.
_SCALE_PARAMETER = {"beck": "c", "power_log": "c", "constant": "g0", "table": "values"}

# The two constructions: the step of each one's arithmetic base, and its width family.
_CONSTRUCTIONS = {"theorem1": (2.0, ScaleFunction.beck), "converse": (1.0, ScaleFunction.power_log)}


def _perturb(values: np.ndarray, scale: ScaleFunction, seed: int) -> RealSequence:
    """`perturb` of the base values, adding the shifts to `values` in place."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed {seed} is outside [0, 2**128)")
    rng = np.random.Generator(np.random.Philox(key=seed))
    for b in _blocks(values.size):
        g = scale.eval(np.arange(b.start + 1, b.stop + 1))
        values[b] += rng.random(b.stop - b.start) * (2.0 * g) - g
    return RealSequence(values)


def perturb(base: RealSequence, scale: ScaleFunction, seed: int) -> RealSequence:
    """x_n + z_n with i.i.d. shifts z_n ~ Unif[-g(n), g(n)].

    The shifts come from a counter-based generator (Philox) keyed by the
    seed, so z_n depends on (seed, n) only: prefixes agree for every N >= n,
    matching a single infinite random sequence. They are added to one copy of
    the base a block at a time; Philox's stream splits across calls exactly.
    """
    return _perturb(base.values.copy(), scale, seed)


def arithmetic_sequence(alpha: float, n: int) -> RealSequence:
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if n < 1:
        raise ValueError("need n >= 1")
    if not math.isfinite(alpha * n):
        raise ValueError(f"alpha={alpha:g} times n={n} is past the float64 range")
    x = np.arange(1, n + 1, dtype=np.float64)
    return RealSequence(np.multiply(x, alpha, out=x))


def power_sequence(theta: float, n: int) -> RealSequence:
    if theta <= 0:
        raise ValueError("need theta > 0")
    if n < 1:
        raise ValueError("need n >= 1")
    try:
        if math.isfinite(float(n) ** theta):
            return RealSequence(np.arange(1, n + 1, dtype=np.float64) ** theta)
    except OverflowError:
        pass
    raise ValueError(f"n={n} to the power theta={theta:g} is past the float64 range")


def van_der_corput(base: int, n: int) -> RealSequence:
    """Radical-inverse sequence in the given base, already inside [0, 1).

    The digits of each index are reversed into an integer numerator over
    base^digits, which is divided once, so every value is correctly rounded
    while base^digits stays within 2^53.
    """
    if base < 2:
        raise ValueError("need base >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    digits, den = 0, 1
    while den <= n:
        digits, den = digits + 1, den * base
    if den >= 2**63:
        raise ValueError(f"base^digits = {base}^{digits} does not fit in 64 bits")
    k = np.arange(1, n + 1, dtype=np.int64)
    num = np.zeros(n, dtype=np.int64)
    digit = np.empty(n, dtype=np.int64)
    place = den
    for _ in range(digits):
        place //= base
        np.divmod(k, base, out=(k, digit))
        num += digit * place
    return RealSequence(num / den)


def gen_base(kind: str, n: int, *, alpha: float = None, theta: float = None,
             base: int = None) -> RealSequence:
    """Dispatcher over the named base families."""
    if kind == "arithmetic":
        return arithmetic_sequence(alpha, n)
    if kind == "power":
        return power_sequence(theta, n)
    if kind == "van_der_corput":
        return van_der_corput(base, n)
    raise ValueError(f"unknown base kind {kind!r}")


def gen_theorem1(c: float, n: int, seed: int) -> RealSequence:
    """Well-spaced construction: x_n = 2n + z_n with the beck width family. The
    width cap keeps every gap at least 2 - 2*0.45 = 1.1, for every seed."""
    step, family = _CONSTRUCTIONS["theorem1"]
    return _perturb(arithmetic_sequence(step, n).values, family(c), seed)


def gen_converse(c: float, n: int, seed: int) -> RealSequence:
    """Counterexample construction: x_n = n + z_n with power_log widths, 0 < c <= 1/2."""
    if not 0 < c <= 0.5:
        raise ValueError("need 0 < c <= 1/2")
    step, family = _CONSTRUCTIONS["converse"]
    return _perturb(arithmetic_sequence(step, n).values, family(c), seed)


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    error: float


def _convergent_pairs(quotients):
    """(p_k, q_k) of [a_0; a_1, ..., a_k] for each k in turn, by the recurrence
    p_k = a_k p_{k-1} + p_{k-2} (the same for q) from p/q = 0/1, 1/0."""
    p_prev, q_prev, p, q = 0, 1, 1, 0
    for a in quotients:
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        yield p, q


def _quotients(num: int, den: int):
    """The partial quotients of num/den, by Euclid's algorithm."""
    while den:
        yield num // den
        num, den = den, num % den


def convergents(alpha: float, q_max: int) -> list[Convergent]:
    """Continued-fraction convergents p/q of alpha with q <= q_max, q increasing.
    They expand the exact binary64 value in integers and end at alpha itself."""
    if q_max < 1:
        raise ValueError("need q_max >= 1")
    alpha = float(alpha)
    out = []
    for p, q in _convergent_pairs(_quotients(*alpha.as_integer_ratio())):
        if q > q_max:
            break
        out.append(Convergent(p, q, abs(alpha - p / q)))
    return out


# Default dilation value for the counterexample experiments. Built from an
# explicit continued fraction with two engineered large partial quotients
# (29 and 40), so the convergents q = 22661 and q = 670226 both satisfy the
# quality bound |alpha - p/q| <= 1/(q^2 log q log log q) that the
# rational-cluster mechanism needs, at denominators small enough to simulate;
# the multiples k*q of each stay resonant inside the window at its schedule
# size because the following quotient exceeds log q * (log log q)^(2/3). The
# small leading value keeps the dilated perturbation widths below the cluster
# spacing at those sizes, which is what makes the excess visible against the
# self-pair deficit.
*_, _LIOUVILLE = _convergent_pairs(
    [0, 11, 9, 1, 2, 1, 1, 3, 1, 2, 1, 1, 29, 40, 2, 1, 1, 3, 1, 2, 1, 1, 4])
LIOUVILLE_ALPHA = _LIOUVILLE[0] / _LIOUVILLE[1]   # correctly rounded

GOLDEN_ALPHA = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class ConverseSchedule:
    """Evaluation sizes N = floor(q sqrt(log q) (log log q)^(1/3)) for the
    largest usable convergent denominators of alpha."""

    n_values: tuple
    q_values: tuple
    complete: bool  # False when fewer than the requested count were available


def schedule_size(q: int) -> int:
    if q < 16:
        raise ValueError("schedule needs q >= 16")
    return math.floor(q * math.sqrt(math.log(q)) * (math.log(math.log(q))) ** (1.0 / 3.0))


_SCHEDULE_Q_MAX = 1_000_000


def converse_schedule(alpha: float, count: int) -> ConverseSchedule:
    """Sizes at which the counterexample statistic is evaluated.

    Takes the `count` largest convergent denominators 16 <= q <= _SCHEDULE_Q_MAX;
    if fewer exist the schedule is returned incomplete rather than failing.
    """
    if count < 1:
        raise ValueError("need count >= 1")
    qs = [cv.q for cv in convergents(alpha, _SCHEDULE_Q_MAX) if cv.q >= 16]
    chosen = qs[-count:]
    return ConverseSchedule(
        n_values=tuple(schedule_size(q) for q in chosen),
        q_values=tuple(chosen),
        complete=len(chosen) == count,
    )
