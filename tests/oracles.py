"""Independent brute-force oracles. Everything here is written directly from
the definitions (full enumeration, quadrature) and stays separate from the
library's algorithmic paths."""

import math
import warnings

import numpy as np


def circle_distance_matrix(points):
    d = np.abs(points[:, None] - points[None, :])
    return np.minimum(d, 1.0 - d)


def brute_pair_count(points, s):
    """Ordered pairs m != n with circle distance strictly below s/N."""
    n = points.size
    cd = circle_distance_matrix(points)
    return int(np.sum(cd < s / n) - n)   # diagonal distances are 0, remove them


def window_membership(diffs, lo, hi, n):
    """Half-open membership {d} in [lo/N, hi/N) taken modulo 1."""
    t = np.mod(diffs, 1.0)
    t = np.where(t >= 1.0, 0.0, t)
    return np.mod(t - lo / n, 1.0) < (hi - lo) / n


def brute_k_level_count(points, window):
    """Distinct k-tuples counted by full enumeration over index tuples."""
    n = points.size
    k = window.k
    memb = [window_membership(points[:, None] - points[None, :], lo, hi, n)
            for lo, hi in window.intervals]

    def rec(anchor, chosen, slot):
        if slot == k - 1:
            return 1
        total = 0
        for a in range(n):
            if a == anchor or a in chosen:
                continue
            if memb[slot][anchor, a]:
                total += rec(anchor, chosen + (a,), slot + 1)
        return total

    return sum(rec(a1, (), 0) for a1 in range(n))


def geometric_grid_loop(n, ratio):
    """The geometric profile grid by its defining loop: the distinct
    ceil(x) <= n along x = 1, x *= ratio, ..., then n itself."""
    pts = []
    x = 1.0
    while True:
        v = int(math.ceil(x))
        if v > n:
            break
        if not pts or v != pts[-1]:
            pts.append(v)
        x *= ratio
    if pts[-1] != n:
        pts.append(n)
    return np.asarray(pts, dtype=np.int64)


def brute_energy_count(values, gamma):
    """Ordered quadruples |x_a + x_b - x_c - x_d| < gamma by full N^2 x N^2
    comparison."""
    sums = np.add.outer(values, values).ravel()
    return int(np.sum(np.abs(sums[:, None] - sums[None, :]) < gamma))


def brute_discrepancy(points):
    """Supremum over closed intervals [a, b] of |count/N - (b-a)|, taking the
    one-sided limits at every data value exactly (no epsilon fudge)."""
    y = np.sort(points)
    n = y.size
    cands = np.concatenate([y, [0.0, 1.0]])
    best = 0.0
    for a in cands:
        for b in cands:
            if b < a:
                continue
            length = b - a
            for include_a in (True, False):
                left = np.searchsorted(y, a, side="left" if include_a else "right")
                for include_b in (True, False):
                    right = np.searchsorted(y, b, side="right" if include_b else "left")
                    count = max(0, right - left)
                    best = max(best, abs(count / n - length))
    return best


def brute_star_discrepancy(points):
    y = np.sort(points)
    n = y.size
    best = 0.0
    for b in np.concatenate([y, [1.0]]):
        for include_b in (True, False):
            right = np.searchsorted(y, b, side="right" if include_b else "left")
            best = max(best, abs(right / n - b))
    return best


def riemann_density_l2(base, scale, cells):
    """Midpoint quadrature of the squared density on a uniform grid, summing
    the box indicators directly from the definition."""
    xs = (np.arange(cells) + 0.5) / cells
    return float(np.mean(brute_density(base, scale, xs) ** 2))


def _arcs(base, scale):
    centers = np.mod(np.asarray(base.values, dtype=np.float64), 1.0)
    widths = np.asarray(scale.eval(np.arange(1, base.n + 1)), dtype=np.float64)
    return centers, widths


def circle_distance(xs, c):
    """Distance on the circle: min({xs - c}, 1 - {xs - c}), in [0, 1/2]."""
    d = np.mod(xs - c, 1.0)
    return np.minimum(d, 1.0 - d)


def brute_density(base, scale, xs):
    """rho at each x: the heights 1/(2 g(n) N) of the closed arcs within
    circle distance g(n) of x, summed arc by arc."""
    centers, widths = _arcs(base, scale)
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    rho = np.zeros(xs.size)
    for c, g in zip(centers, widths):
        rho[circle_distance(xs, c) <= g] += 1.0 / (2.0 * g * base.n)
    return rho


def brute_window_count(base, scale, s, xs):
    """h_s at each x: the overlap of each arc with the window arc of
    half-width s/N around x, on the near side and around the far side of the
    circle, over 2 g(n)."""
    centers, widths = _arcs(base, scale)
    w = s / base.n
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    h = np.zeros(xs.size)
    for c, g in zip(centers, widths):
        d = circle_distance(xs, c)
        near = np.maximum(0.0, np.minimum(min(2.0 * g, 2.0 * w), g + w - d))
        far = np.maximum(0.0, g + w - (1.0 - d))
        h += (near + far) / (2.0 * g)
    return h


def riemann_h_rho(base, scale, s, cells):
    """Midpoint quadrature of h_s * rho on a uniform grid."""
    xs = (np.arange(cells) + 0.5) / cells
    return float(np.mean(brute_window_count(base, scale, s, xs)
                         * brute_density(base, scale, xs)))


def frac_part_mod(values):
    """Fractional part by np.mod, with the values that round to 1.0 mapped to 0.0."""
    r = np.mod(np.asarray(values, dtype=np.float64), 1.0)
    return np.where(r >= 1.0, 0.0, r)


def points_text_oracle(values):
    """The bytes of a v1 points file: the header, then "%.17g" of each value by
    Python's own float formatting."""
    vals = np.asarray(values, dtype=np.float64).tolist()
    return (f"# modone-points v1 n={len(vals)}\n"
            + ("%.17g\n" * len(vals)) % tuple(vals)).encode("ascii")


def points_loadtxt_oracle(path):
    """A v1 points file read by one `numpy.loadtxt` call after an `int()` of the
    header's n: the reader that the block decoder replaced."""
    with open(path, "r", encoding="ascii") as f:
        header = f.readline().rstrip("\n")
        if not header.startswith("# modone-points v1 n="):
            raise ValueError(f"{path}: not a modone points file (bad header)")
        try:
            n = int(header[len("# modone-points v1 n="):])
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
