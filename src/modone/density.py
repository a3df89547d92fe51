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
from these tables at O((N + M) log N) cost for M queries. h_s is the
difference of the table's integral at the two window ends, and the pair
integral sums rho * h_s over the segments of the same table, with one exact
correction for each bend of h_s inside a segment.
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


def _running(first, steps):
    """Value on each segment: `first` before the first breakpoint, then the
    cumulative sum of the sorted steps."""
    return np.concatenate([[first], first + np.cumsum(steps)])


def _level_table(centers, widths, weights):
    """Segments of f = sum_n weights_n 1_{A_n} on [0, 1): left edges (the
    first is 0), the value of f on each segment (0.0 where no arc covers),
    and each segment's length. The wrapping arcs carry f and the cover count
    at 0; each arc steps them up at its start and down at its end."""
    start, end = _arcs(centers, widths)
    wrapped = end < start
    pos = np.concatenate([start, end])
    order = np.argsort(pos, kind="stable")
    level = _running(float(np.sum(weights[wrapped])),
                     np.concatenate([weights, -weights])[order])
    cover = _running(int(np.count_nonzero(wrapped)), np.where(order < start.size, 1, -1))
    level[cover == 0] = 0.0
    edges = np.concatenate([[0.0], pos[order]])
    return edges, level, np.diff(np.append(edges, 1.0))


def _integral(edges, level, lens, t):
    """Integral from 0 to t of the periodic extension of a level table."""
    cumulative = _running(0.0, level * lens)
    turns = np.floor(t)
    u = t - turns
    k = np.searchsorted(edges, u, side="right") - 1
    return turns * cumulative[-1] + cumulative[k] + level[k] * (u - edges[k])


def _window_mass(table, xs, w):
    """R(x + w) - R(x - w) for the periodic integral R of a level table."""
    # the exact value is >= 0; clamp the rounding residue of the difference
    return np.maximum(_integral(*table, xs + w) - _integral(*table, xs - w), 0.0)


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
    out = _window_mass(table, np.atleast_1d(np.asarray(x, dtype=np.float64)), w)
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

    One level table of N rho = sum_n 1_{A_n} / (2 g(n)) gives rho on each
    segment and h_s = R(x + w) - R(x - w), w = s/N, at the segment edges.
    h_s is piecewise linear and bends where x + w or x - w crosses an edge,
    by the jump of N rho there (negated for x - w). On a segment [a, b) the
    integral of h_s is the trapezoid (b - a)(h(a) + h(b))/2 less
    delta (b - p)(p - a)/2 for each bend of delta at p inside, so the
    integral is a sum over the segments and the bends, each bend placed by
    one searchsorted lookup.
    """
    n = base.n
    check_pair_window(s, n)
    w = s / n
    centers, widths = _boxes(base, scale)
    table = _level_table(centers, widths, 1.0 / (2.0 * widths))
    edges, level, lens = table
    h = _window_mass(table, np.append(edges, 1.0), w)
    total = float(np.sum(level * 0.5 * (h[:-1] + h[1:]) * lens))
    ends = np.append(edges[1:], 1.0)
    jump = level - np.roll(level, 1)
    for bend, delta in ((frac_part(edges - w), jump), (frac_part(edges + w), -jump)):
        j = np.searchsorted(edges, bend, side="right") - 1
        total -= 0.5 * float(np.sum(level[j] * delta * (ends[j] - bend) * (bend - edges[j])))

    g_n = float(scale.eval(n))
    error_bound = s / (n * g_n)
    return total / n, error_bound
