"""Density of the perturbed point process and the expected window-count
function, with exact sweep integration over their breakpoints.

For a base sequence x_n and width function g, with the closed arcs
A_n = [x_n - g(n), x_n + g(n)] mod 1, the density is

    rho(x) = (1/N) sum_n 1_{A_n}(x) / (2 g(n)),

a piecewise-constant function on the circle with at most 2N breakpoints, and

    h_s(x) = sum_n |A_n inter [x - s/N, x + s/N]| / (2 g(n))

is continuous piecewise linear with at most 4N breakpoints. Arcs wrap around
the circle throughout, which is the only convention making the sweep integral
of rho exactly 1 for points near 0. Both integrands are piecewise polynomial
of degree <= 1 between breakpoints, so every integral here is computed
exactly (up to rounding) rather than by quadrature.

Level table: each arc A_n is stored by its start and end reduced into [0, 1);
an arc whose end lies below its start wraps through 0. The table sorts all 2N
ends together and gives the value on each segment between them; an integer
cover count is carried next to each float level, so the level is exactly 0.0
wherever no arc covers. Each public call builds one such table and reads all
it needs off it at O((N + M) log N) cost for M queries. rho off the edges is
the level of the segment that holds x; where edges coincide, the stable sort
puts every start before every end, so at an edge rho is the peak of the levels
through the run of edges equal to x, which counts every closed arc. The mass
over a window [x + lo, x + hi] is the difference of the table's integral at the
two ends; h_s is the mass over [x - s/N, x + s/N], and the pair integral sums
rho * h_s over the segments, with one exact correction per bend of h_s inside.

Memory: a call holds at most 64 bytes per point above its inputs (tracemalloc).
The table's edges, levels and running integral (48 B/point) and the weights
are N-sized, filled by whole-array passes that gather into them and sum in
place in index order. Only the two integrals over segments run over
blocks of _SEGMENTS, as their per-segment temporaries would otherwise sit next
to the table; they add per-block sums, which moves only their last bits.
"""

from __future__ import annotations

import numpy as np

from .generators import ScaleFunction
from .seqcore import RealSequence, _blocks, frac_part
from .stats import check_pair_window


def _query(x) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(xs)):
        raise ValueError("density query points must be finite")
    return xs


# Segments per block of the two integrals over segments (_pair_integral and
# sweep_density_integrals): each block's rotated edges, window counts and
# products stay this size, not N; every N < 2**14 is one block of 2N + 1 segments.
_SEGMENTS = 1 << 15


def _widths(base: RealSequence, scale: ScaleFunction) -> np.ndarray:
    """The widths g(n), n = 1..N. Widths stay below 1/2, so no arc covers the
    circle."""
    widths = scale.eval(np.arange(1, base.n + 1))
    if np.any(widths <= 0):
        raise ValueError("density machinery needs strictly positive widths")
    return widths


def _level_table(base: RealSequence, widths: np.ndarray, per_point: int):
    """The segments on [0, 1) of f = sum_n 1_{A_n} / (2 g(n) per_point), from
    the widths, which it overwrites with the weights 1 / (2 g(n) per_point):
    the edges (0, the 2N sorted arc ends, and 1, which closes the last
    segment), the value of f on each segment (0.0 where no arc covers), and
    the running integral of f at the edges. Each arc is stored by its start
    and end in [0, 1) and wraps through 0 when its end lies below its start.
    The wrapping arcs carry f and the cover count at 0; each arc steps them up
    at its start and down at its end, and the running sums add the steps in
    sorted order."""
    n = base.n
    pos = np.empty(2 * n)
    centres = frac_part(base.values)
    pos[:n] = frac_part(centres - widths)
    pos[n:] = frac_part(np.add(centres, widths, out=centres))
    np.divide(1.0, 2.0 * widths * per_point, out=widths)
    wrapped = widths[pos[n:] < pos[:n]]
    first, cover = float(np.sum(wrapped)), wrapped.size
    del centres, wrapped
    # the stable sort of [starts, ends] puts every start before every end
    # among equal edges, so on a run of edges equal to x f rises through the
    # starts and falls through the ends: its peak is f(x) over closed arcs
    order = np.argsort(pos, kind="stable")
    edges = np.empty(2 * n + 2)
    edges[0], edges[-1] = 0.0, 1.0
    np.take(pos, order, out=edges[1:-1], mode="clip")   # "raise" would buffer a copy
    del pos
    level = np.empty(2 * n + 1)
    level[0], steps = first, level[1:]
    np.take(widths, order, out=steps, mode="wrap")   # end i >= n closes arc i - n
    opens = order < n
    del order
    np.negative(steps, out=steps, where=~opens)
    covers = np.where(opens, np.int32(1), np.int32(-1))
    del opens
    covers[0] += cover
    np.cumsum(covers, dtype=np.int32, out=covers)   # without dtype: an int64 copy
    np.cumsum(steps, out=steps)
    np.add(first, steps, out=steps)
    steps[covers == 0] = 0.0
    del covers
    cumulative = np.zeros(2 * n + 2)
    np.subtract(edges[1:], edges[:-1], out=cumulative[1:])
    cumulative[1:] *= level
    np.cumsum(cumulative[1:], out=cumulative[1:])
    return edges, level, cumulative


def _located(table, t):
    """R(t) for the integral R from 0 of the periodic extension of a level
    table, with the fractional part u of each t and the segment k of u. The
    u are ranked among only the edges from their least to their largest,
    which for a block of window ends that does not wrap is a short slice."""
    edges, level, cumulative = table
    turns = np.floor(t)
    u = t - turns
    lo, hi = np.searchsorted(edges[:-1], [np.min(u, initial=1.0), np.max(u, initial=0.0)],
                             side="right")
    k = np.searchsorted(edges[lo:hi], u, side="right") + (lo - 1)
    return turns * cumulative[-1] + cumulative[k] + level[k] * (u - edges[k]), u, k


def _window_mass(table, xs, lo, hi):
    """R(x + hi) - R(x + lo), the mass over [x + lo, x + hi], and both ends' _located."""
    lower, upper = _located(table, xs + lo), _located(table, xs + hi)
    # the exact value is >= 0; clamp the rounding residue of the difference
    return np.maximum(upper[0] - lower[0], 0.0), lower, upper


def _pair_integral(table, w):
    """N times the integral of h_s * rho over the circle, from the table of
    N rho = sum_n 1_{A_n} / (2 g(n)). It gives rho on each segment and
    h_s = R(x + w) - R(x - w), w = s/N, at the segment edges. h_s is piecewise
    linear and bends where x + w or x - w crosses an edge, by the jump of N rho
    there (negated for x - w). On a segment [a, b) the integral of h_s is the
    trapezoid (b - a)(h(a) + h(b))/2 less delta (b - p)(p - a)/2 for each bend
    of delta at p inside. The sums run over one block of segments at a time,
    and a bend lies in the segment that its window end is read from.
    """
    edges, level, _ = table

    def bends(end, delta):
        _, bend, j = end
        bend, j = bend[:-1], j[:-1]
        return float(np.sum(level[j] * delta * (edges[j + 1] - bend) * (bend - edges[j])))
    trapezoids = below = above = 0.0
    for b in _blocks(level.size, _SEGMENTS):
        pts, f = edges[b.start:b.stop + 1], level[b]
        h, lo, hi = _window_mass(table, pts, -w, w)
        trapezoids += float(np.sum(f * 0.5 * (h[:-1] + h[1:]) * np.diff(pts)))
        jump = f - (level[b.start - 1:b.stop - 1] if b.start else np.append(level[-1], f[:-1]))
        below += bends(lo, jump)
        above += bends(hi, -jump)
        del h, lo, hi, jump   # before the next block's lookups
    return trapezoids - 0.5 * below - 0.5 * above


def perturbation_density(base: RealSequence, scale: ScaleFunction, x) -> np.ndarray | float:
    """rho evaluated pointwise (vectorized over x); arc membership is closed:
    on a run of edges equal to x, rho is the peak of the levels through it."""
    xs = frac_part(_query(x))
    edges, level, _ = _level_table(base, _widths(base, scale), base.n)
    last = np.searchsorted(edges[:-1], xs, side="right") - 1
    out = level[last]
    if np.any(on := edges[last] == xs):
        lo, hi = np.maximum(np.searchsorted(edges, xs[on], side="left") - 1, 0), last[on]
        # reduceat over [lo, hi), as hi + 1 may lie past the levels
        peak = np.maximum.reduceat(level, np.column_stack([lo, hi]).ravel())[::2]
        out[on] = np.maximum(peak, level[hi])
    return float(out[0]) if np.ndim(x) == 0 else out


def expected_window_count(base: RealSequence, scale: ScaleFunction,
                          s: float, x) -> np.ndarray | float:
    """h_s evaluated pointwise: summed overlap of each perturbation arc with
    the window arc of half-width s/N around x, weighted by 1/(2 g(n)).

    h_s(x) = R(x + s/N) - R(x - s/N) for the periodic integral R of
    sum_n 1_{A_n} / (2 g(n)), read off the level table at the two window ends.
    """
    xs = _query(x)
    check_pair_window(s, base.n)
    table = _level_table(base, _widths(base, scale), 1)
    w = s / base.n
    out = _window_mass(table, xs, -w, w)[0]
    return float(out[0]) if np.ndim(x) == 0 else out


def sweep_density_integrals(base: RealSequence, scale: ScaleFunction):
    """Exact (integral of rho, integral of rho^2) over the circle."""
    edges, rho, _ = _level_table(base, _widths(base, scale), base.n)
    total = total_sq = 0.0
    for b in _blocks(rho.size, _SEGMENTS):
        f, lens = rho[b], np.diff(edges[b.start:b.stop + 1])
        total += float(np.sum(f * lens))
        total_sq += float(np.sum(f * f * lens))
    return total, total_sq


def density_l2(base: RealSequence, scale: ScaleFunction) -> float:
    """Exact integral of rho^2; always >= 1 by Cauchy-Schwarz with
    integral(rho) = 1."""
    return sweep_density_integrals(base, scale)[1]


def expected_pair_correlation(base: RealSequence, scale: ScaleFunction,
                              s: float) -> tuple[float, float]:
    """Exact integral of h_s * rho over the circle, plus the analytic bound
    s/(N g(N)) on the self-pair correction that separates this integral from
    the expectation of the pair statistic. The bound certifies nothing at the
    counterexample's sizes (3.28 at N = 94 800, above the integral itself):
    expected_pair_mean gives the exact expectation. Both read one level table
    of N rho (_pair_integral).
    """
    check_pair_window(s, base.n)
    table = _level_table(base, _widths(base, scale), 1)
    n = base.n
    return _pair_integral(table, s / n) / n, s / (n * float(scale.eval(n)))


def expected_pair_mean(base: RealSequence, scale: ScaleFunction, s: float) -> float:
    """Exact expectation of the pair statistic of the perturbed sequence: the
    integral of expected_pair_correlation less the self pairs it counts,
    (1/N) sum_n P(|z - z'| < w) for independent z, z' ~ U[-g(n), g(n)] and
    w = s/N. That probability is 1 - (1 - w/(2 g(n)))^2 for w <= 2 g(n) and
    1 beyond. Refuses w > 1 - 2 g(n), where z - z' could also wrap round the
    circle into the window, before any table is built.
    """
    check_pair_window(s, base.n)
    widths = _widths(base, scale)
    w = s / base.n
    if w > (room := 1.0 - 2.0 * float(np.max(widths))):
        raise ValueError(f"window s/N = {w:g} exceeds 1 - 2 g(n) = {room:g}, where "
                         "the difference of a point's own shifts wraps round the circle")
    self_pairs = float(np.mean(1.0 - np.square(np.maximum(1.0 - w / (2.0 * widths), 0.0))))
    return _pair_integral(_level_table(base, widths, 1), w) / base.n - self_pairs
