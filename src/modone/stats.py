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

from .seqcore import (_BLOCK, RealSequence, TorusPoints, _blocks, _is_int, _is_real,
                      frac_part, frac_reduce, scale_by_alpha)


# ---------------------------------------------------------------------------
# pair correlation


def check_pair_window(s: float, n: int) -> None:
    """Raise ValueError unless the pair statistic accepts s at N = n."""
    if not s > 0:
        raise ValueError("need s > 0")
    if s / n >= 0.5:
        raise ValueError("window s/N must be smaller than half the circle")


# Anchors per block of the pair and k-level kernels, whose arrays beyond the
# sorted points are sized by a block, not by N. Every N <= 2**18 is one block;
# smaller blocks make more short numpy calls, and two threads of run_trials
# then wait on each other for the GIL.
_ANCHORS = 1 << 18


def _rank(y: np.ndarray, v: np.ndarray, side: str, first: int) -> np.ndarray:
    """np.searchsorted(y2, v, side) - i for the sorted y2 = [y, y + 1] of the
    N points y and one query v[j] per anchor i = first + j, fast when most
    ranks lie near i; int32 while 4N < 2**31, so sums and differences of two
    stay exact. y2 is never built: y + 1 is rounded, as y2 would hold it,
    only for the points that a pass or a fallback search can reach, and
    every array beyond y is sized by the anchors, at most _ANCHORS a call.

    The rank starts at i. Forward pass k adds y2[i + k] < v[j] (<= for side
    "right") and backward pass k subtracts y2[i - k] >= v[j] (> for "right").
    As y2 is sorted, each anchor's mask holds for a prefix of its passes, so
    the sum is the exact rank, decided by the comparisons a binary search
    makes, over contiguous slices and without a branch per anchor. A
    direction stops after ceil(log2 2N) passes, or once fewer than
    1 / ceil(log2 2N) of the anchors still move; those anchors (queries
    wrapped around the circle, clusters, long runs of ties) get
    np.searchsorted, which bounds the cost near twice that of one searchsorted.
    """
    n, m = y.size, v.size
    passes = math.ceil(math.log2(2 * n))
    few = m / passes
    ahead, behind = ((np.less, np.greater_equal) if side == "left"
                     else (np.less_equal, np.greater))
    # one mask buffer and one int8 step per anchor (|step| <= passes <= 64)
    # serve every pass, so no pass allocates
    mask = np.empty(m, dtype=bool)
    bits = mask.view(np.int8)
    step = np.zeros(m, dtype=np.int8)
    rest = []
    head = y[:passes] + 1.0

    def settled(mk: np.ndarray, start: int, last: bool) -> bool:
        # mk[j] is anchor first + start + j's mask in the latest pass
        moving = np.count_nonzero(mk)
        if moving >= few and not last:
            return False
        if moving:
            idx = np.flatnonzero(mk)
            idx += start
            rest.append(idx)
        return True

    for k in range(passes):
        # anchors j < split meet y2[first + j + k] in y, the rest in y + 1
        split = min(max(n - first - k, 0), m)
        ahead(y[first + k:first + k + split], v[:split], out=mask[:split])
        ahead(head[first + k + split - n:first + k + m - n], v[split:], out=mask[split:])
        step += bits
        if settled(mask, 0, k == passes - 1):
            break
    # anchor i runs out of backward passes at k = i, where rank 0 is exact
    for k in range(1, min(passes, first + m - 1) + 1):
        lo = max(k - first, 0)
        mk = mask[:m - lo]
        behind(y[first + lo - k:first + m - k], v[lo:], out=mk)
        step[lo:] -= bits[:m - lo]
        if settled(mk, lo, k == passes):
            break
    r = step.astype(np.int32 if n < 2**29 else np.int64)
    for idx in rest:
        for b in _blocks(idx.size):
            j = idx[b]
            q = v[j]
            # every y[p] + 1 >= low has y[p] > low - 1 - 2 ulp(low), and every
            # y[p] + 1 <= top has y[p] < top - 1 + 2 ulp(top); more do no harm
            low, top = q.min(), q.max()
            a = np.searchsorted(y, low - 1.0 - 2.0 * np.spacing(low), side="left")
            z = np.searchsorted(y, top - 1.0 + 2.0 * np.spacing(top), side="right")
            r[j] = np.searchsorted(y, q, side=side) + a - (j + first)
            for c in _blocks(z - a):   # y + 1 rounded a block at a time
                r[j] += np.searchsorted(y[a + c.start:a + c.stop] + 1.0, q, side=side)
    return r


def pair_correlation_count(pts: TorusPoints, s: float) -> int:
    """#{ordered pairs m != n with circle distance |x_m - x_n| < s/N}.

    One rank over the extended circle (`_rank`) per block of _ANCHORS
    anchors: about as many passes as a typical point has neighbours within
    s/N, in place of a binary search per point.
    """
    n = pts.n
    check_pair_window(s, n)
    y = pts.points
    # for each i, forward neighbours j with y2[j] - y[i] < s/N, at offsets
    # 1 .. hi - 1 from i; each unordered pair is seen exactly once because s/N < 1/2
    total = 0
    for b in _blocks(n, _ANCHORS):
        hi = _rank(y, y[b] + s / n, "left", b.start)
        hi -= 1
        total += int(np.sum(np.maximum(hi, 0, out=hi)))
    return 2 * total


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


def _arc_counts(y: np.ndarray, lo: float, hi: float, b: slice):
    """Per anchor y[i], i in the block b, the index range [i + lo_idx,
    i + hi_idx) into y2 = [y, y + 1] of the points in the half-open
    difference window [lo/N, hi/N) pulled back around it, x in
    (y[i] - hi/N, y[i] - lo/N] on the circle, as offsets from i, and whether
    that range holds the anchor itself (offset 0 or N).

    Both ends are y - c/N plus the one integer per anchor that lifts the
    lower end into [0, 1). So the upper end is the anchor itself in y2 when
    lo = 0, and points coincident with it stay in [0, hi)."""
    n = y.size
    # y is sorted, so the lift is -turns before `cut` and -(turns + 1) from it
    turns = math.floor(y[0] - hi / n)
    end = y[b] - hi / n
    cut = int(np.searchsorted(end, turns + 1.0, side="left"))
    ranks = []
    for c in (hi, lo):   # one buffer serves both ends
        np.subtract(y[b], c / n, out=end)
        end[:cut] -= turns
        end[cut:] -= turns + 1
        ranks.append(_rank(y, end, "right", b.start))
    del end
    lo_idx, hi_idx = ranks
    hit = ((lo_idx <= 0) & (0 < hi_idx)) | ((lo_idx <= n) & (n < hi_idx))
    return lo_idx, hi_idx, hit


def _moebius_terms(intervals: tuple) -> dict:
    """{term: mu}: the Moebius sum over the set partitions pi of the slots,
    one slot per interval. With c_B the points other than the anchor in the
    windows of every slot of block B, sum_pi mu(pi) prod_{B in pi} c_B counts
    distinct points in the slots, mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)!:
    c_1 c_2 - c_12 at k = 3. A term is the sorted tuple of its blocks'
    interval sets, and its nonzero mu sums over the partitions it stands for.
    Partial partitions grow a slot at a time and merge where blocks agree in
    interval set and size, so equal intervals carry p(k-1) integer partitions
    (56 at k = 12), not Bell(k-1) set partitions (678 570)."""
    states = {(): 1}   # sorted tuple of blocks (interval set, size) -> mu
    for iv in intervals:
        grown = {}
        for blocks, mu in states.items():
            for i in range(len(blocks) + 1):   # join block i (mu times -size), or open one
                ivs, m = blocks[i] if i < len(blocks) else ((), 0)
                block = (tuple(sorted({*ivs, iv})), m + 1)
                key = tuple(sorted(blocks[:i] + (block,) + blocks[i + 1:]))
                grown[key] = grown.get(key, 0) + (-m * mu if m else mu)
        states = grown
    terms = {}
    for blocks, mu in states.items():
        term = tuple(sorted(ivs for ivs, _ in blocks))
        terms[term] = terms.get(term, 0) + mu
    return {term: mu for term, mu in terms.items() if mu}


def _common_count(ranges: list, n: int) -> np.ndarray:
    """Per anchor, the points other than the anchor that lie in every one of
    the cyclic index sets {p mod N : lo_idx <= p < hi_idx}. Every step is the
    same with each range shifted by the anchor's index, so offsets serve."""
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

    Per block of _ANCHORS anchors: two ranks (`_rank`) per distinct interval,
    each about as many passes as points lie between a typical anchor and its
    window end, then one vectorized product per term of `_moebius_terms`
    (11 at k = 12 on equal intervals); c_B is computed once per distinct set
    of intervals in B, and the ranks are dropped first.
    """
    n = pts.n
    check_k_level_window(window, n)
    y = pts.points
    terms = _moebius_terms(window.intervals)
    keys = {ivs for term in terms for ivs in term}
    total = 0
    for blk in _blocks(n, _ANCHORS):
        ranges = {iv: _arc_counts(y, *iv, blk) for iv in set(window.intervals)}
        # the per-anchor products stay exact in int64 below this bound
        widest = max(int(np.max(hi - lo)) for lo, hi, _ in ranges.values())
        dtype = np.int64 if (blk.stop - blk.start) * widest ** (window.k - 1) < 2**63 else object
        counts = {ivs: _common_count([ranges[iv] for iv in ivs], n) for ivs in keys}
        del ranges
        for term, mu in terms.items():
            prod = counts[term[0]].astype(dtype)
            for ivs in term[1:]:
                prod *= counts[ivs]
            total += mu * int(np.sum(prod))
    return total / n


# ---------------------------------------------------------------------------
# discrepancy


def _extremes(rows: np.ndarray, i: np.ndarray, m: np.ndarray,
              scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest (k + 1)/m[j] - y and y - k/m[j] along each row j of rows,
    sorted points y of ranks k = i[:w] among m[j]; NaN cells, which never
    win, end every row but the last. t holds the quotients k/m[j] row after
    row and then i[w]/m[-1], so t[1:] - y and y - t[:-1] pair each point with
    its own two quotients, except in the NaN tails. t and the differences d
    take the first 2 r w + 1 floats of scratch."""
    r, w = rows.shape
    t, d = scratch[:r * w + 1], scratch[r * w + 1:2 * r * w + 1]
    np.divide(i[:w], m[:, None], out=t[:-1].reshape(r, w))
    t[-1] = i[w] / m[-1]
    y = rows.reshape(-1)
    # intervals ending just below a point, then starting just above one
    over = np.fmax.reduce(np.subtract(t[1:], y, out=d).reshape(r, w), axis=1)
    under = np.fmax.reduce(np.subtract(y, t[:-1], out=d).reshape(r, w), axis=1)
    return over, under


def _from_extremes(over, under):
    """(D, D*) from the two extremes of all points, elementwise."""
    return np.maximum(over, 0.0) + np.maximum(under, 0.0), np.maximum(np.maximum(over, under), 0.0)


def discrepancy(pts: TorusPoints) -> tuple[float, float]:
    """Exact (D_N, D*_N) from the sorted-order formulas, closed-interval
    convention (degenerate intervals allowed, so D_N >= 1/N). The extremes
    are taken a block at a time: the largest block extreme is the same float."""
    y, m = pts.points, pts.n
    size = np.full(1, float(m))
    ext = [_extremes(y[None, b], np.arange(b.start, b.stop + 1, dtype=np.float64), size,
                     np.empty(2 * (b.stop - b.start) + 1)) for b in _blocks(m)]
    d, star = _from_extremes(*np.max(ext, axis=0))
    return float(d[0]), float(star[0])


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
    sizes = []
    x = 1.0
    while x <= n:
        sizes.append(math.ceil(x))
        x *= ratio
    grid = np.unique(np.array(sizes, dtype=np.int64))
    return grid if grid[-1] == n else np.append(grid, n)


# Cells per block of the full discrepancy profile: min(256, _CELLS // m) rows,
# the sorted prefixes of consecutive sizes from the block's least m, and at
# least one. A block holds at most max(2 _CELLS, N) cells, so that it stays in
# L2 with its quotients and differences.
_CELLS = 1 << 15


def _prefix_blocks(n: int):
    """The blocks (m0, w) of the full profile: rows for the prefixes m0 + 1..w."""
    m0 = 0
    while m0 < n:
        w = min(m0 + max(1, min(256, _CELLS // (m0 + 1))), n)
        yield m0, w
        m0 = w


def _prefix_extremes(fracs: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_extremes of every prefix of fracs, sorted, one block of prefixes at a
    time: each row is the row before with one value inserted by slice copies.
    The rows and the scorer's scratch are allocated once, for the largest
    block; blocks alternate between two row buffers, as a block's first row is
    read from the last row of the block before."""
    n = fracs.size
    over, under = np.empty(n), np.empty(n)
    cells = max((w - m0) * w for m0, w in _prefix_blocks(n))
    buffers, scratch = (np.empty(cells), np.empty(cells)), np.empty(2 * cells + 1)
    prev = fracs[:0]
    for b, (m0, w) in enumerate(_prefix_blocks(n)):
        rows = buffers[b % 2][:(w - m0) * w].reshape(w - m0, w)
        rows[:, m0 + 1:] = np.nan
        for m, (row, v) in enumerate(zip(rows, fracs[m0:w].tolist()), start=m0):
            pos = int(prev[:m].searchsorted(v))
            row[:pos] = prev[:pos]
            row[pos] = v
            row[pos + 1:m + 1] = prev[pos:m]
            prev = row
        over[m0:w], under[m0:w] = _extremes(rows, i, i[m0 + 1:w + 1], scratch)
    return over, under


def discrepancy_profile(seq: RealSequence, grid: str = "full",
                        ratio: float = 1.25) -> DiscrepancyProfile:
    """D_n and D*_n for prefixes of the sequence (fractional parts).

    grid="full" visits every prefix, O(N^2) in all: each row of a block of
    about _CELLS cells is the previous row with one value inserted by slice
    copies, and one call of _extremes scores the whole block (0.14 s at
    N = 10^4 and 0.5 s at 2 * 10^4 on 2 CPUs, bound by the divides and
    subtracts of N^2 / 2 cells). grid="geometric" visits n = ceil(ratio^j)
    plus N itself, and the resulting max of n*D_n is then only a lower
    envelope (exact=False); the reduced values are sorted in place a step at
    a time, each step's new values on their own and then merged into the
    sorted prefix before them by the stable sort, a timsort that finds the
    two runs and merges them in O(m).
    """
    n = seq.n
    fracs = frac_part(seq.values)
    i = np.arange(n + 1, dtype=np.float64)
    if grid == "full":
        n_grid = np.arange(1, n + 1, dtype=np.int64)
        over, under = _prefix_extremes(fracs, i)
    elif grid == "geometric":
        n_grid = _geometric_grid(n, ratio)
        over, under = np.empty(n_grid.size), np.empty(n_grid.size)
        scratch = np.empty(2 * n + 1)
        for j, m in enumerate(n_grid):
            fracs[n_grid[j - 1] if j else 0:m].sort()
            fracs[:m].sort(kind="stable")
            over[j:j + 1], under[j:j + 1] = _extremes(fracs[None, :m], i, i[m:m + 1], scratch)
    else:
        raise ValueError("grid must be 'full' or 'geometric'")
    d_vals, s_vals = _from_extremes(over, under)
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


def _rank_sum(reach: np.ndarray, p: np.ndarray, shift: float) -> int:
    """Sum over p of #{q in the sorted reach with q < p + shift} for
    shift = +gamma, or with q <= p + shift for shift = -gamma, exactly. One
    searchsorted of the rounded b = fl(p + shift) ranks every sum but those
    equal to b, as no sum lies strictly between p + shift and b. A sum equal
    to b is counted, or not, by the TwoSum error of b: it lies below the
    exact p + shift where the error is positive, above where negative."""
    sign = 1 if shift > 0 else -1
    bound = p + shift
    at = np.searchsorted(reach, bound, side="left" if sign > 0 else "right")
    count = int(np.sum(at))
    # the sum at the rank, or just below it, is the one that can equal b
    tie = reach.take(at if sign > 0 else at - 1, mode="clip") == bound
    if np.count_nonzero(tie):
        p, b = p[tie], bound[tie]
        d = b - p   # TwoSum: p + shift = b + err exactly
        err = (p - (b - d)) + (shift - d)
        b = b[sign * err > 0]
        count += sign * int(np.sum(np.searchsorted(reach, b, side="right")
                                   - np.searchsorted(reach, b, side="left")))
    return count


def _close_count(queries: np.ndarray, sums: np.ndarray, gamma: float) -> int:
    """#{(p, q) in queries x sums with p - gamma < q < p + gamma}, both arrays
    sorted, as the ranks of p + gamma less those of p - gamma. Each block of
    queries ranks only the slice of sums that its windows reach, which stays
    in cache: the sums below it are at most p - gamma for every p of the
    block, and those above it at least p + gamma."""
    count = 0
    for block in _blocks(queries.size, 1 << 12):
        chunk = queries[block]
        reach = sums[np.searchsorted(sums, chunk[0] - gamma, side="left"):
                     np.searchsorted(sums, chunk[-1] + gamma, side="right")]
        if reach.size:
            count += _rank_sum(reach, chunk, gamma) - _rank_sum(reach, chunk, -gamma)
    return count


def _close_ahead(sums: np.ndarray, stop: int, gamma: float) -> int:
    """#{(i, j) with i < stop, i < j and sums[j] - sums[i] < gamma} over the
    sorted sums: each close pair counted once, from its first member in
    sums[:stop], by the ranks of p + gamma among the sums from p's block on;
    a pair is never looked up from both ends."""
    count = 0
    for block in _blocks(stop, 1 << 12):
        chunk = sums[block]
        reach = sums[block.start:np.searchsorted(sums, chunk[-1] + gamma, side="right")]
        # chunk[j] is reach[j], and p < fl(p + gamma) as gamma is above the
        # float spacing of the sums, so p's rank passes j: drop reach[:j + 1]
        count += _rank_sum(reach, chunk, gamma) - chunk.size * (chunk.size + 1) // 2
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
    sums = x.take(cols)
    del cols
    sums += np.repeat(x, length)
    sums.sort()
    return sums[np.searchsorted(sums, lo, side="left"):np.searchsorted(sums, hi, side="left")]


# the sampled sums that place the slab cuts, and the steps (t_1, t_2) of the
# Kronecker sequences that pick their indices
_CUT_PAIRS = 1 << 15
_CUT_STEPS = ((5.0 ** 0.5 - 1.0) / 2.0, 3.0 ** 0.5 - 1.0)


def _slab_bounds(x: np.ndarray, slabs: int) -> list:
    """Increasing cut points from -inf to inf that split the off-diagonal
    sums of the sorted x into about `slabs` equal parts, read off the sums
    x_a + x_b, a != b, at the quasi-random pairs a = floor(N frac(j t_1)),
    b = floor(N frac(j t_2)), j = 1.._CUT_PAIRS. The pairs cover the index
    square evenly, so the sample follows the sums also where they lie on a
    lattice, as they do for x_n near 2n."""
    if slabs <= 1:
        return [-math.inf, math.inf]
    j = np.arange(1.0, _CUT_PAIRS + 1.0)
    a, b = ((j * t % 1.0 * x.size).astype(np.intp) for t in _CUT_STEPS)
    del j
    sample = (x[a] + x[b])[a != b]
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
    E = 4 C(off, off) + 4 C(diag, off) + C(diag, diag). Within one sorted
    array, C(S, S) is #S + 2 F_S, F_S the close pairs at distinct places,
    each counted once from its lower member (`_close_ahead`): so
    C(diag, diag) = N + 2 F_diag. The cross term is counted from the
    diagonal side: _close_count decides |p - q| < gamma exactly, so
    C(diag, off) = C(off, diag), at 2N lookups per slab in place of two per
    off-diagonal sum. Every rounded bound fl(p +- gamma) goes through one
    exact rank step (`_rank_sum`). The off-diagonal sums are taken in value
    slabs [L, U) of about _SLAB_SUMS each: a pair counted from p in the slab
    has its upper member in [L, U + gamma), which is gathered and sorted per
    slab, so the memory stays bounded while every count is the one over all
    sums. The diagonal (c,d) = (a,b) makes the count at least N^2.
    Every stored sum lies in [2 x_min, 2 x_max], as doubling is exact and
    rounding monotone, so when 2 x_max - 2 x_min < gamma, decided exactly by
    the rank step, every quadruple is close and E = N^4 without a slab.
    """
    if not gamma > 0:
        raise ValueError("need gamma > 0")
    if gamma == math.inf:
        raise ValueError("need a finite gamma")
    n = seq.n
    x = np.sort(seq.values)
    # below the spacing of the largest sums, p +- gamma can round back to p
    # and a close count comes out negative
    floor = float(np.spacing(2.0 * max(-x[0], x[-1])))
    if gamma < floor:
        raise ValueError(f"gamma {gamma:g} is below the float spacing {floor:g} of the sums")
    diag = x + x
    if _rank_sum(diag[-1:], diag[:1], gamma):
        return EnergyResult(count=n**4, gamma=float(gamma), n=n)
    count = n + 2 * _close_ahead(diag, n, gamma)
    bounds = _slab_bounds(x, -(-(n * (n - 1) // 2) // _SLAB_SUMS))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # fl(U + gamma) can round below U + gamma onto a sum that is close to
        # one just below U, so the slab reaches one float further
        near = _sums_in(x, lo, np.nextafter(hi + gamma, math.inf))
        own = int(np.searchsorted(near, hi, side="left"))
        count += 4 * (own + 2 * _close_ahead(near, own, gamma)
                      + _close_count(diag, near[:own], gamma))
        del near   # before the next slab's sums are built
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


def gap_distribution(pts: TorusPoints, out=None) -> GapDistribution:
    """All N circular gaps (including the wrap-around one), scaled by N and
    sorted, written to out if given. out may be pts.points itself, which then
    no longer holds the points: each block of differences goes through a
    block buffer, so no numpy call reads an operand that overlaps its output,
    and the wrap-around gap is taken before the first point is overwritten."""
    n = pts.n
    if n < 2:
        raise ValueError("need at least 2 points for gaps")
    out = np.empty(n) if out is None else out
    if out.shape != (n,) or out.dtype != np.float64:
        raise ValueError("out must be a float64 array of one value per point")
    y = pts.points
    wrap = (1.0 - y[-1] + y[0]) * n
    diff = np.empty(min(n - 1, _BLOCK))
    for b in _blocks(n - 1):
        d = diff[:b.stop - b.start]
        np.subtract(y[b.start + 1:b.stop + 1], y[b], out=d)
        d *= n
        out[b] = d
    del diff
    out[-1] = wrap
    out.sort()
    # exact sup |ECDF - (1 - e^-x)| over the jump points, a block at a time
    ks = 0.0
    for b in _blocks(n):
        cdf = 1.0 - np.exp(-out[b])
        i = np.arange(b.start + 1, b.stop + 1, dtype=np.float64)
        dev = np.maximum(np.abs(i / n - cdf), np.abs((i - 1.0) / n - cdf))
        ks = max(ks, float(np.max(dev)))
    return GapDistribution(scaled_gaps=out, ks_vs_exponential=ks)


# ---------------------------------------------------------------------------


def reduce_scaled(seq: RealSequence, alpha: float = 1.0) -> TorusPoints:
    """Convenience: dilate by alpha and reduce modulo 1, in the dilated copy."""
    dilated = scale_by_alpha(seq, alpha)
    return frac_reduce(dilated, out=dilated.values)
