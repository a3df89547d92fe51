"""Local statistics of points on the circle: pair and k-level correlation,
discrepancy, additive energy, and the gap distribution.

Counting conventions (deliberate, measure-zero for randomized inputs): the
pair statistic uses a strict < threshold on circle distance; k-level windows
are half-open [lo, hi); the energy count uses strict |.| < gamma over ordered
quadruples; discrepancy uses closed intervals including degenerate ones.
A symmetric k = 2 window (-s, s) is the pair window (`CorrelationWindow.is_pair`)
and is scored by the pair statistic at s wherever a window is scored, in
`stat --klevel` and in trial plans alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import (RealSequence, TorusPoints, _is_int, _is_real, frac_part,
                      frac_reduce, scale_by_alpha)


# ---------------------------------------------------------------------------
# pair correlation


def check_pair_window(s: float, n: int) -> None:
    """Raise ValueError unless the pair statistic accepts s at N = n."""
    if not s > 0:
        raise ValueError("need s > 0")
    if s / n >= 0.5:
        raise ValueError("window s/N must be smaller than half the circle")


def _rank(y2: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted(y2, v, side) for the sorted y2 = [y, y + 1] of N points
    and one query v[i] per anchor i, fast when most ranks lie near i.

    The rank starts at i. Forward pass k adds y2[i + k] < v[i] (<= for side
    "right") and backward pass k subtracts y2[i - k] >= v[i] (> for "right").
    As y2 is sorted, each anchor's mask holds for a prefix of its passes, so
    the sum is the exact rank, decided by the comparisons a binary search
    makes, over contiguous slices and without a branch per anchor. A
    direction stops after ceil(log2 2N) passes, or once fewer than
    N / ceil(log2 2N) anchors still move; those anchors (queries wrapped
    around the circle, clusters, long runs of ties) get np.searchsorted,
    which bounds the cost near twice that of one searchsorted.
    """
    n = v.size
    passes = math.ceil(math.log2(2 * n))
    few = n / passes
    ahead, behind = ((np.less, np.greater_equal) if side == "left"
                     else (np.less_equal, np.greater))
    # one mask buffer and one int8 step per anchor (|step| <= passes <= 64)
    # serve every pass, so no pass allocates
    mask = np.empty(n, dtype=bool)
    bits = mask.view(np.int8)
    step = np.zeros(n, dtype=np.int8)
    rest = []

    def settled(m: np.ndarray, first: int, last: bool) -> bool:
        # m[j] is anchor first + j's mask in the latest pass
        moving = np.count_nonzero(m)
        if moving >= few and not last:
            return False
        if moving:
            rest.append(np.flatnonzero(m) + first)
        return True

    for k in range(passes):
        ahead(y2[k:k + n], v, out=mask)
        step += bits
        if settled(mask, 0, k == passes - 1):
            break
    # anchor i runs out of backward passes at k = i, where rank 0 is exact
    for k in range(1, min(passes, n - 1) + 1):
        m = mask[:n - k]
        behind(y2[:n - k], v[k:], out=m)
        step[k:] -= bits[:n - k]
        if settled(m, k, k == passes):
            break
    r = np.arange(n)
    r += step
    for idx in rest:
        r[idx] = np.searchsorted(y2, v[idx], side=side)
    return r


def pair_correlation_count(pts: TorusPoints, s: float) -> int:
    """#{ordered pairs m != n with circle distance |x_m - x_n| < s/N}.

    One rank over the extended circle (`_rank`): about as many whole-array
    passes as a typical point has neighbours within s/N, in place of a binary
    search per point.
    """
    n = pts.n
    check_pair_window(s, n)
    y = pts.points
    y2 = np.concatenate([y, y + 1.0])
    # for each i, forward neighbours j with y2[j] - y[i] < s/N; each unordered
    # pair is seen exactly once because s/N < 1/2
    hi = _rank(y2, y + s / n, "left")
    return 2 * int(np.sum(np.maximum(hi - np.arange(1, n + 1), 0)))


def pair_correlation(pts: TorusPoints, s: float) -> float:
    """(1/N) * #{ordered pairs m != n with circle distance |x_m - x_n| < s/N}."""
    return pair_correlation_count(pts, s) / pts.n


# ---------------------------------------------------------------------------
# k-level correlation


@dataclass(frozen=True)
class CorrelationWindow:
    """Difference windows for the k-tuple statistic: k-1 intervals, each
    applied to x_{a_1} - x_{a_j} at scale 1/N, taken modulo 1."""

    k: int
    intervals: tuple

    def __post_init__(self):
        if not (_is_int(self.k) and self.k >= 2):
            raise ValueError(f"need an integer k >= 2, got {self.k!r}")
        try:
            ivs = tuple((lo, hi) for lo, hi in self.intervals)
        except (TypeError, ValueError):
            ivs = None
        if ivs is None or not all(_is_real(v) for iv in ivs for v in iv):
            raise ValueError(f"intervals must be (lo, hi) number pairs, got {self.intervals!r}")
        ivs = tuple((float(lo), float(hi)) for lo, hi in ivs)
        if len(ivs) != self.k - 1:
            raise ValueError(f"expected {self.k - 1} intervals, got {len(ivs)}")
        for lo, hi in ivs:
            if not lo < hi:
                raise ValueError("each window needs lo < hi")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def pair(cls, s: float) -> "CorrelationWindow":
        if not (_is_real(s) and s > 0):
            raise ValueError(f"need s > 0, got {s!r}")
        return cls(k=2, intervals=((-s, s),))

    @property
    def is_pair(self) -> bool:
        """A symmetric k = 2 window (-s, s), scored by the strict-< pair
        statistic at s rather than by the half-open k-level count."""
        lo, hi = self.intervals[0]
        return self.k == 2 and lo == -hi

    @property
    def poisson_target(self) -> float:
        """Limit value for i.i.d. uniform points: the product of window lengths."""
        out = 1.0
        for lo, hi in self.intervals:
            out *= hi - lo
        return out

    def describe(self) -> str:
        return f"k={self.k}:" + ",".join(f"{lo:g}:{hi:g}" for lo, hi in self.intervals)


def check_k_level_window(window: CorrelationWindow, n: int) -> None:
    """Raise ValueError unless k_level_correlation accepts the window at N = n."""
    if n < window.k:
        raise ValueError(f"need at least k={window.k} points")
    for lo, hi in window.intervals:
        if (hi - lo) / n >= 0.5:
            raise ValueError("window width per coordinate must stay below half the circle")


def _arc_counts(y2: np.ndarray, lo: float, hi: float, n: int):
    """Per anchor y[i], the index range [lo_idx, hi_idx) into y2 = [y, y + 1]
    of the points in the half-open difference window [lo/N, hi/N) pulled back
    around it, x in (y[i] - hi/N, y[i] - lo/N] on the circle, and whether
    that range holds the anchor itself (as i or i + N).

    Both ends are y - c/N plus the one integer per anchor that lifts the
    lower end into [0, 1). So the upper end is the anchor itself in y2 when
    lo = 0, and points coincident with it stay in [0, hi)."""
    y = y2[:n]
    end = y - hi / n
    # y is sorted, so the lift is -turns before `cut` and -(turns + 1) from it
    turns = math.floor(end[0])
    cut = int(np.searchsorted(end, turns + 1.0, side="left"))
    ranks = []
    for c in (hi, lo):   # one buffer serves both ends
        np.subtract(y, c / n, out=end)
        end[:cut] -= turns
        end[cut:] -= turns + 1
        ranks.append(_rank(y2, end, "right"))
    lo_idx, hi_idx = ranks
    i = np.arange(n)
    hit = ((lo_idx <= i) & (i < hi_idx)) | ((lo_idx <= i + n) & (i + n < hi_idx))
    return lo_idx, hi_idx, hit


def _set_partitions(items: tuple):
    """Every set partition of `items`, as a list of blocks."""
    if not items:
        yield []
        return
    for part in _set_partitions(items[1:]):
        yield [(items[0],)] + part
        for i, block in enumerate(part):
            yield part[:i] + [(items[0],) + block] + part[i + 1:]


def _common_count(ranges: list, n: int) -> np.ndarray:
    """Per anchor, the points other than the anchor that lie in every one of
    the cyclic index sets {p mod N : lo_idx <= p < hi_idx}."""
    (lo0, hi0, hit), rest = ranges[0], ranges[1:]
    pieces = [(lo0, hi0)]
    for lo, hi, slot_hit in rest:
        # a range holds each index at most once, so only the lift starting in
        # [lo0, lo0 + N) and the one before it can meet [lo0, hi0)
        start = lo0 + np.mod(lo - lo0, n)
        end = start + (hi - lo)
        pieces = [(np.maximum(a, s), np.minimum(b, e)) for a, b in pieces
                  for s, e in ((start, end), (start - n, end - n))]
        hit = hit & slot_hit
    return sum(np.maximum(b - a, 0) for a, b in pieces) - hit


def k_level_correlation(pts: TorusPoints, window: CorrelationWindow) -> float:
    """(1/N) * #{k-tuples of distinct indices whose differences from the first
    coordinate fall in the prescribed windows modulo 1}.

    Per anchor, let c_B count the points other than the anchor that lie in
    the windows of every slot of a block B of the k-1 slots. Moebius
    inversion over the set partitions pi of the slots counts the assignments
    of distinct points to the slots as sum_pi mu(pi) prod_{B in pi} c_B,
    with mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)!; that is c_1 for k = 2 and
    c_1 c_2 - c_12 for k = 3.

    Cost: two ranks (`_rank`) over the N anchors per distinct interval, each
    about as many whole-array passes as points lie between a typical anchor
    and its window end,
    plus Bell(k-1) vectorized products (1, 2, 5, 15, 52 for k = 2..6);
    c_B is computed once per distinct set of intervals in B.
    """
    n = pts.n
    check_k_level_window(window, n)
    y2 = np.concatenate([pts.points, pts.points + 1.0])
    ranges = {iv: _arc_counts(y2, *iv, n) for iv in set(window.intervals)}
    del y2
    # the per-anchor products stay exact in int64 below this bound
    widest = max(int(np.max(hi - lo)) for lo, hi, _ in ranges.values())
    dtype = np.int64 if n * widest ** (window.k - 1) < 2**63 else object
    counts = {}

    def count(block):
        key = tuple(sorted({window.intervals[j] for j in block}))
        if key not in counts:
            counts[key] = _common_count([ranges[iv] for iv in key], n).astype(dtype, copy=False)
        return counts[key]

    total = 0
    for part in _set_partitions(tuple(range(window.k - 1))):
        mu = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in part)
        total += mu * int(np.sum(math.prod(count(b) for b in part)))
    return total / n


# ---------------------------------------------------------------------------
# discrepancy


def _sorted_discrepancy(y: np.ndarray, i: np.ndarray) -> tuple[float, float]:
    """(D, D*) of the sorted points y, with i = 0, 1, ..., len(y) or longer."""
    m = y.size
    over = np.max(i[1:m + 1] / m - y)    # interval ending just below a point
    under = np.max(y - i[:m] / m)        # interval starting just above one
    return float(max(over, 0.0) + max(under, 0.0)), float(max(over, under, 0.0))


def discrepancy(pts: TorusPoints) -> tuple[float, float]:
    """Exact (D_N, D*_N) from the sorted-order formulas, closed-interval
    convention (degenerate intervals allowed, so D_N >= 1/N)."""
    return _sorted_discrepancy(pts.points, np.arange(pts.n + 1, dtype=np.float64))


@dataclass(frozen=True)
class DiscrepancyProfile:
    """Per-prefix discrepancy of a raw sequence reduced modulo 1."""

    n_grid: np.ndarray
    d_values: np.ndarray
    star_values: np.ndarray
    m_value: float    # max over the grid of n * D_n
    exact: bool       # True when the grid visited every prefix

    def running_max_nd(self) -> np.ndarray:
        return np.maximum.accumulate(self.n_grid * self.d_values)


def _geometric_grid(n: int, ratio: float) -> np.ndarray:
    """The distinct ceil(x) <= n along x = 1, x *= ratio, ..., then n."""
    if not (math.isfinite(ratio) and ratio > 1.0):
        raise ValueError(f"need a finite grid ratio > 1, got {ratio}")
    if ratio <= 1.0 + 1.0 / n:
        # x * ratio <= x + 1 while x <= n, so no integer is skipped; x * ratio
        # can also round back to x and stall before reaching n
        return np.arange(1, n + 1, dtype=np.int64)
    # multiply.accumulate rounds each product in turn, as x *= ratio does;
    # one block of about log n / log ratio products passes n unless rounding
    # leaves it short, and products past n, infinite ones included, are dropped
    length = min(int(math.log(n) / math.log(ratio)) + 2, 1 << 16)
    sizes = []
    x = 1.0
    while x <= n:
        block = np.full(length, ratio)
        block[0] = x
        with np.errstate(over="ignore"):
            xs = np.multiply.accumulate(block)
        sizes.append(np.ceil(xs[xs <= n]))
        x = float(xs[-1]) * ratio
    grid = np.unique(np.concatenate(sizes)).astype(np.int64)
    return grid if grid[-1] == n else np.append(grid, n)


def discrepancy_profile(seq: RealSequence, grid: str = "full",
                        ratio: float = 1.25) -> DiscrepancyProfile:
    """D_n and D*_n for prefixes of the sequence (fractional parts).

    grid="full" visits every prefix via incremental sorted insertion (O(N^2)
    total); grid="geometric" visits n = ceil(ratio^j) plus N itself, and the
    resulting max of n*D_n is then only a lower envelope (exact=False).
    """
    n = seq.n
    fracs = frac_part(seq.values)
    i = np.arange(n + 1, dtype=np.float64)
    if grid == "full":
        n_grid = np.arange(1, n + 1, dtype=np.int64)
        d_vals = np.empty(n, dtype=np.float64)
        s_vals = np.empty(n, dtype=np.float64)
        buf = np.empty(n, dtype=np.float64)   # the sorted prefix, grown in place
        for m in range(1, n + 1):
            pos = int(np.searchsorted(buf[:m - 1], fracs[m - 1]))
            buf[pos + 1:m] = buf[pos:m - 1]
            buf[pos] = fracs[m - 1]
            d_vals[m - 1], s_vals[m - 1] = _sorted_discrepancy(buf[:m], i)
    elif grid == "geometric":
        n_grid = _geometric_grid(n, ratio)
        d_vals = np.empty(n_grid.size, dtype=np.float64)
        s_vals = np.empty(n_grid.size, dtype=np.float64)
        for j, m in enumerate(n_grid):
            d_vals[j], s_vals[j] = _sorted_discrepancy(np.sort(fracs[:m]), i)
    else:
        raise ValueError("grid must be 'full' or 'geometric'")
    m_value = float(np.max(n_grid * d_vals))
    return DiscrepancyProfile(n_grid=n_grid, d_values=d_vals, star_values=s_vals,
                              m_value=m_value, exact=(grid == "full"))


# ---------------------------------------------------------------------------
# additive energy


@dataclass(frozen=True)
class EnergyResult:
    count: int
    gamma: float
    n: int

    @property
    def normalized(self) -> float:
        return self.count / self.n**3


def _close_count(queries: np.ndarray, sums: np.ndarray, gamma: float) -> int:
    """#{(p, q) in queries x sums with p - gamma < q < p + gamma}, counted per
    p as searchsorted(p + gamma, left) - searchsorted(p - gamma, right); both
    arrays sorted. Each block of queries searches only the slice of sums that
    its windows reach, which stays in cache."""
    count = 0
    block = 1 << 12
    for start in range(0, queries.size, block):
        chunk = queries[start : start + block]
        below, above = chunk - gamma, chunk + gamma
        reach = sums[np.searchsorted(sums, below[0], side="right"):
                     np.searchsorted(sums, above[-1], side="left")]
        count += (int(np.sum(np.searchsorted(reach, above, side="left")))
                  - int(np.sum(np.searchsorted(reach, below, side="right"))))
    return count


def _sums_in(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The off-diagonal sums x_a + x_b (a < b) of the sorted x that lie in
    [lo, hi), sorted. Per row a they form one range of b, found with a margin
    of a few ulps; the sorted sums are then cut at lo and hi themselves."""
    n = x.size
    scale = 2.0 * max(abs(float(x[0])), abs(float(x[-1])))
    scale += max((abs(v) for v in (lo, hi) if math.isfinite(v)), default=0.0)
    margin = 8.0 * float(np.spacing(scale))
    first = np.maximum(np.searchsorted(x, lo - x - margin, side="left"), np.arange(1, n + 1))
    length = np.maximum(np.searchsorted(x, hi - x + margin, side="right") - first, 0)
    cols = np.repeat(first - (np.cumsum(length) - length), length)
    cols += np.arange(cols.size)
    sums = np.repeat(x, length)
    sums += x[cols]
    del cols
    sums.sort()
    return sums[np.searchsorted(sums, lo, side="left"):np.searchsorted(sums, hi, side="left")]


def _slab_bounds(x: np.ndarray, slabs: int) -> list:
    """Increasing cut points from -inf to inf that split the off-diagonal
    sums of the sorted x into about `slabs` equal parts, read off the sums
    of a strided sample of x."""
    if slabs <= 1:
        return [-math.inf, math.inf]
    s = x[::max(1, x.size // 256)]
    sample = (s[:, None] + s[None, :])[np.triu_indices(s.size, 1)]
    sample.sort()
    cuts = np.unique(sample[np.arange(1, slabs) * sample.size // slabs])
    return [-math.inf, *cuts.tolist(), math.inf]


# the off-diagonal sums held at once by additive_energy, about 2 MB of them
_SLAB_SUMS = 1 << 18


def additive_energy(seq: RealSequence, gamma: float) -> EnergyResult:
    """#{ordered quadruples (a,b,c,d) with |x_a + x_b - x_c - x_d| < gamma}.

    Sorts x once. The N(N-1)/2 off-diagonal sums x_a + x_b (a < b) stand for
    two ordered pairs each; the diagonal sums 2 x_a come out sorted. With
    C(P, Q) the close pairs counted for each p in P among the sorted Q,
    E = 4 C(off, off) + 2 C(off, diag) + 2 C(diag, off) + C(diag, diag).
    The off-diagonal sums are taken in value slabs [L, U) of about
    _SLAB_SUMS each: a query p in the slab can only meet sums in
    [L - gamma, U + gamma), which are gathered and sorted per slab, so the
    memory stays bounded while every count is the one over all sums. The
    diagonal (c,d) = (a,b) makes the count at least N^2.
    """
    if not gamma > 0:
        raise ValueError("need gamma > 0")
    n = seq.n
    x = np.sort(seq.values)
    diag = x + x
    count = _close_count(diag, diag, gamma)
    bounds = _slab_bounds(x, -(-(n * (n - 1) // 2) // _SLAB_SUMS))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        near = _sums_in(x, lo - gamma, hi + gamma)
        own = near[np.searchsorted(near, lo, side="left"):np.searchsorted(near, hi, side="left")]
        own_diag = diag[np.searchsorted(diag, lo, side="left"):
                        np.searchsorted(diag, hi, side="left")]
        count += (4 * _close_count(own, near, gamma) + 2 * _close_count(own, diag, gamma)
                  + 2 * _close_count(own_diag, near, gamma))
    return EnergyResult(count=count, gamma=float(gamma), n=n)


# ---------------------------------------------------------------------------
# gap distribution


@dataclass(frozen=True)
class GapDistribution:
    """Circular neighbour gaps scaled by N, with the exact KS distance of
    their empirical law from the unit exponential."""

    scaled_gaps: np.ndarray   # sorted ascending, length N, sums to N
    ks_vs_exponential: float

    @property
    def n(self) -> int:
        return int(self.scaled_gaps.size)

    def ecdf(self, x) -> np.ndarray | float:
        pos = np.searchsorted(self.scaled_gaps, np.asarray(x), side="right")
        out = pos / self.n
        if np.ndim(x) == 0:
            return float(out)
        return out


def gap_distribution(pts: TorusPoints) -> GapDistribution:
    """All N circular gaps (including the wrap-around one), scaled by N."""
    n = pts.n
    if n < 2:
        raise ValueError("need at least 2 points for gaps")
    y = pts.points
    gaps = np.empty(n, dtype=np.float64)
    gaps[:-1] = np.diff(y)
    gaps[-1] = 1.0 - y[-1] + y[0]
    scaled = np.sort(gaps * n)
    # exact sup |ECDF - (1 - e^-x)| over the jump points
    cdf = 1.0 - np.exp(-scaled)
    i = np.arange(1, n + 1, dtype=np.float64)
    ks = float(np.max(np.maximum(np.abs(i / n - cdf), np.abs((i - 1.0) / n - cdf))))
    return GapDistribution(scaled_gaps=scaled, ks_vs_exponential=ks)


# ---------------------------------------------------------------------------


def reduce_scaled(seq: RealSequence, alpha: float = 1.0) -> TorusPoints:
    """Convenience: dilate by alpha and reduce modulo 1."""
    return frac_reduce(scale_by_alpha(seq, alpha))
