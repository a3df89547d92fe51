"""Density of the perturbed point process and the expected window-count
function, with exact sweep integration over their breakpoints.

For a base sequence x_n (taken modulo 1) and width function g, the density is

    rho(x) = (1/N) sum_n (1/(2 g(n))) * 1(circ_dist(x, {x_n}) <= g(n))

a piecewise-constant function on the circle with at most 2N breakpoints, and

    h_s(x) = sum_n |arc(x_n, g(n)) inter arc(x, s/N)| / (2 g(n))

is continuous piecewise linear with at most 4N breakpoints. Arcs wrap around
the circle throughout, which is the only convention making the sweep integral
of rho exactly 1 for points near 0. Both integrands are piecewise polynomial
of degree <= 1 between breakpoints, so every integral here is computed
exactly (up to rounding) rather than by quadrature.

Breakpoint tables: each closed arc A_n = [x_n - g(n), x_n + g(n)] is stored
by its start and end reduced into [0, 1); an arc whose end lies below its
start wraps through 0. A weighted sum of arc indicators at x in [0, 1) is
then the total weight of the wrapping arcs, plus the weight of the arcs that
start at or before x, minus the weight of those that end before x: two
searchsorted lookups into cumulative sums. Level tables sort all 2N
breakpoints together and give the value on each segment between them; an
integer cover count is carried next to each float level, so the level is
exactly 0.0 wherever no arc covers. Every function evaluates its query points
from these tables at O((N + M) log N) cost for M queries.
"""

from __future__ import annotations

import numpy as np

from .generators import ScaleFunction
from .seqcore import RealSequence, frac_part
from .stats import check_pair_window


def _boxes(base: RealSequence, scale: ScaleFunction):
    centers = frac_part(base.values)
    widths = np.asarray(scale.eval(np.arange(1, base.n + 1)), dtype=np.float64)
    if np.any(widths <= 0):
        raise ValueError("density machinery needs strictly positive widths")
    return centers, widths


def _arcs(centers, widths):
    """Start and end in [0, 1) of each closed arc [c - g, c + g]; an arc
    wraps through 0 when its end lies below its start. Widths stay below 1/2,
    so no arc covers the circle."""
    return frac_part(centers - widths), frac_part(centers + widths)


def _breakpoints(start, end, weights):
    """Breakpoints of f = sum_n weights_n 1_{[start_n, end_n]}: their
    positions, the change of f and of the cover count at each, and f and the
    cover count at 0 (carried by the wrapping arcs)."""
    wrapped = end < start
    ones = np.ones(start.size, dtype=np.int64)
    return (np.concatenate([start, end]), np.concatenate([weights, -weights]),
            np.concatenate([ones, -ones]), float(np.sum(weights[wrapped])),
            int(np.count_nonzero(wrapped)))


def _running(first, steps):
    """Value on each segment: `first` before the first breakpoint, then the
    cumulative sum of the sorted steps."""
    return np.concatenate([[first], first + np.cumsum(steps)])


def _level_table(centers, widths, weights):
    """Segments of f = sum_n weights_n 1_{A_n} on [0, 1): left edges (the
    first is 0), the value of f on each segment (0.0 where no arc covers),
    and each segment's length."""
    pos, step, cover_step, f0, cover0 = _breakpoints(*_arcs(centers, widths), weights)
    order = np.argsort(pos, kind="stable")
    level = _running(f0, step[order])
    level[_running(cover0, cover_step[order]) == 0] = 0.0
    edges = np.concatenate([[0.0], pos[order]])
    return edges, level, np.diff(np.append(edges, 1.0))


def _integral(edges, level, lens, t):
    """Integral from 0 to t of the periodic extension of a level table."""
    cumulative = _running(0.0, level * lens)
    turns = np.floor(t)
    u = t - turns
    k = np.searchsorted(edges, u, side="right") - 1
    return turns * cumulative[-1] + cumulative[k] + level[k] * (u - edges[k])


def perturbation_density(base: RealSequence, scale: ScaleFunction, x) -> np.ndarray | float:
    """rho evaluated pointwise (vectorized over x); arc membership is closed."""
    centers, widths = _boxes(base, scale)
    heights = 1.0 / (2.0 * widths * base.n)
    start, end = _arcs(centers, widths)
    wrapped = end < start
    by_start, by_end = np.argsort(start), np.argsort(end)
    xs = frac_part(np.atleast_1d(np.asarray(x, dtype=np.float64)))
    opened = np.searchsorted(start[by_start], xs, side="right")
    closed = np.searchsorted(end[by_end], xs, side="left")
    cover = np.count_nonzero(wrapped) + opened - closed
    level = (float(np.sum(heights[wrapped])) + _running(0.0, heights[by_start])[opened]
             - _running(0.0, heights[by_end])[closed])
    out = np.where(cover > 0, level, 0.0)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def expected_window_count(base: RealSequence, scale: ScaleFunction,
                          s: float, x) -> np.ndarray | float:
    """h_s evaluated pointwise: summed overlap of each perturbation arc with
    the window arc of half-width s/N around x, weighted by 1/(2 g(n)).

    h_s(x) = R(x + s/N) - R(x - s/N) for the periodic integral R of
    sum_n 1_{A_n} / (2 g(n)), read off the level table at the two window ends.
    """
    n = base.n
    check_pair_window(s, n)
    w = s / n
    centers, widths = _boxes(base, scale)
    table = _level_table(centers, widths, 1.0 / (2.0 * widths))
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    # the exact value is >= 0; clamp the rounding residue of the difference
    out = np.maximum(_integral(*table, xs + w) - _integral(*table, xs - w), 0.0)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def sweep_density_integrals(base: RealSequence, scale: ScaleFunction):
    """Exact (integral of rho, integral of rho^2) over the circle."""
    centers, widths = _boxes(base, scale)
    _, rho, lens = _level_table(centers, widths, 1.0 / (2.0 * widths * base.n))
    return float(np.sum(rho * lens)), float(np.sum(rho * rho * lens))


def density_l2(base: RealSequence, scale: ScaleFunction) -> float:
    """Exact integral of rho^2; always >= 1 by Cauchy-Schwarz with
    integral(rho) = 1."""
    return sweep_density_integrals(base, scale)[1]


def expected_pair_correlation(base: RealSequence, scale: ScaleFunction,
                              s: float) -> tuple[float, float]:
    """Exact integral of h_s * rho over the circle, plus the analytic bound
    s/(N g(N)) on the self-pair correction that separates this integral from
    the true expectation of the pair statistic.

    rho is piecewise constant and h_s continuous piecewise linear with slope
    sum_n (1_{A_n - w} - 1_{A_n + w}) / (2 g(n)), w = s/N. Sorting the 6N
    breakpoints of rho and of the slope together gives both on every segment
    by cumulative sums, h_s at the segment edges by the cumulative sum of
    slope * length, and the integral as the sum of rho * (h_left + h_right)/2
    * length over the segments.
    """
    n = base.n
    check_pair_window(s, n)
    w = s / n
    centers, widths = _boxes(base, scale)
    rates = 1.0 / (2.0 * widths)
    start, end = _arcs(centers, widths)
    rho_pos, rho_step, cover_step, rho0, cover0 = _breakpoints(
        start, end, 1.0 / (2.0 * widths * n))
    # the slope gains rate_n while x + w lies in A_n and loses it while x - w does
    up_pos, up_step, _, up0, _ = _breakpoints(
        frac_part(start - w), frac_part(end - w), rates)
    down_pos, down_step, _, down0, _ = _breakpoints(
        frac_part(start + w), frac_part(end + w), -rates)
    # in the order that sorts rho's breakpoints, the slope's are rotated
    # sorted runs, so the stable sort of all of them merges a few runs
    first = np.argsort(rho_pos, kind="stable")
    order = np.concatenate([first, first + 2 * n, first + 4 * n])
    pos = np.concatenate([rho_pos, up_pos, down_pos])
    order = order[np.argsort(pos[order], kind="stable")]
    none = np.zeros(4 * n, dtype=np.int64)
    rho = _running(rho0, np.concatenate([rho_step, none])[order])
    rho[_running(cover0, np.concatenate([cover_step, none])[order]) == 0] = 0.0
    slope = _running(up0 + down0, np.concatenate([np.zeros(2 * n), up_step, down_step])[order])

    edges = np.concatenate([[0.0], pos[order]])
    lens = np.diff(np.append(edges, 1.0))
    # h is continuous: h(0) = N times the integral of rho over [-w, w]
    h0 = n * float(np.diff(_integral(edges, rho, lens, np.array([-w, w])))[0])
    h = _running(h0, slope * lens)
    integral = float(np.sum(rho * 0.5 * (h[:-1] + h[1:]) * lens))

    g_n = float(scale.eval(n))
    error_bound = s / (n * g_n)
    return integral, error_bound
