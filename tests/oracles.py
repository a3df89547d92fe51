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


def _distinct_tuples(memb, n):
    """Tuples (a_1, ..., a_k) of distinct indices with memb[j][a_1, a_(j+2)] for
    every slot j, by enumeration of every (k-1)-prefix over each slot's
    members; the last slot counts its members less the anchor and the chosen."""
    members = [[np.flatnonzero(row).tolist() for row in m] for m in memb]
    held, last = memb[-1].tolist(), len(memb) - 1

    def rec(anchor, chosen, slot):
        if slot == last:
            return len(members[slot][anchor]) - sum(held[anchor][a] for a in (anchor, *chosen))
        return sum(rec(anchor, chosen + (a,), slot + 1) for a in members[slot][anchor]
                   if a != anchor and a not in chosen)

    return sum(rec(a1, (), 0) for a1 in range(n))


def brute_k_level_count(points, window):
    """Distinct k-tuples counted by full enumeration over index tuples."""
    n = points.size
    return _distinct_tuples([window_membership(points[:, None] - points[None, :], lo, hi, n)
                             for lo, hi in window.intervals], n)


def set_partitions(items):
    """Every set partition of `items`, as a list of blocks."""
    if not items:
        yield []
        return
    for part in set_partitions(items[1:]):
        yield [(items[0],)] + part
        for i, block in enumerate(part):
            yield part[:i] + [(items[0],) + block] + part[i + 1:]


def partition_moebius_terms(intervals):
    """The Moebius sum over every set partition of the slots, one slot per
    interval, folded into {term: mu}: a term is the sorted tuple of the
    blocks' interval sets, and mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)!."""
    terms = {}
    for part in set_partitions(tuple(range(len(intervals)))):
        mu = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in part)
        term = tuple(sorted(tuple(sorted({intervals[j] for j in b})) for b in part))
        terms[term] = terms.get(term, 0) + mu
    return terms


def extended_pair_count(points, s):
    """brute_pair_count with the comparisons the library rounds by: twice the
    pairs i < p < i + N on the extended circle y2 = [y, y + 1], as stored in
    binary64, with y2[p] < y[i] + s/N."""
    n = points.size
    y2 = np.concatenate([points, points + 1.0])
    q = points + s / n
    return 2 * sum(int(np.count_nonzero(y2[i + 1:i + n] < q[i])) for i in range(n))


def extended_k_level_count(points, window):
    """brute_k_level_count with the membership the library rounds by: slot
    (lo, hi) of anchor i holds point j when y2[j] or y2[j + N] of the extended
    circle y2 = [y, y + 1], as stored in binary64, lies in (e_hi, e_lo], with
    e_c = (y[i] - c/N) - floor(y[i] - hi/N)."""
    n = points.size
    y2 = np.concatenate([points, points + 1.0])
    memb = []
    for lo, hi in window.intervals:
        lift = np.floor(points - hi / n)
        e_hi, e_lo = points - hi / n - lift, points - lo / n - lift
        inside = (e_hi[:, None] < y2[None, :]) & (y2[None, :] <= e_lo[:, None])
        memb.append(inside[:, :n] | inside[:, n:])
    return _distinct_tuples(memb, n)


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
    """Ordered quadruples |p - q| < gamma over the computed sums
    p = x_a + x_b and q = x_c + x_d, by full N^2 x N^2 comparison decided
    exactly: d = fl(p - q) and its rounding error e (TwoSum) give
    p - q = d + e, so |p - q| < gamma when |d| < gamma, or when |d| = gamma
    and e points back towards 0."""
    sums = np.add.outer(values, values).ravel()
    p, q = sums[:, None], sums[None, :]
    d = p - q
    part = d - p
    e = (p - (d - part)) - (q + part)
    return int(np.sum((np.abs(d) < gamma) | ((np.abs(d) == gamma) & (np.sign(e) == -np.sign(d)))))


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


def pair_mean_oracle(centers, widths, s):
    """Expected pair statistic of the points c_n + z_n, z_n ~ U[-g_n, g_n]
    independent: (1/N) sum over ordered pairs m != n of the probability that
    d + z_m - z_n lies within s/N of an integer, d = c_m - c_n mod 1. Each
    probability is E[F_m(b - d + z_n) - F_m(a - d + z_n)] for the CDF F_m of
    z_m, integrated in closed form through the antiderivative of F_m."""
    n = len(centers)
    w = s / n

    def ramp(x, g):   # integral of the U[-g, g] CDF over (-inf, x]
        return 0.0 if x <= -g else (x + g) ** 2 / (4 * g) if x <= g else x

    def below(c, gm, gn):   # P(z_m - z_n < c)
        return (ramp(c + gn, gm) - ramp(c - gn, gm)) / (2 * gn)

    total = 0.0
    for m in range(n):
        for k in range(n):
            if m != k:
                d = (centers[m] - centers[k]) % 1.0
                total += sum(below(j + w - d, widths[m], widths[k])
                             - below(j - w - d, widths[m], widths[k]) for j in (-1, 0, 1, 2))
    return total / n


def perturb_one_shot(base_values, scale, seed):
    """x_n + z_n as one expression over all N: one Philox draw of N uniforms
    and the widths at 1..N."""
    n = len(base_values)
    u = np.random.Generator(np.random.Philox(key=seed)).random(n)
    g = np.asarray(scale.eval(np.arange(1, n + 1)), dtype=np.float64)
    return base_values + (u * (2.0 * g) - g)


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
