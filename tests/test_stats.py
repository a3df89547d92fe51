import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from modone import (CorrelationWindow, RealSequence, TorusPoints,
                    additive_energy, discrepancy, discrepancy_profile,
                    frac_reduce, gap_distribution, k_level_correlation,
                    pair_correlation, pair_correlation_count)
from modone.generators import GOLDEN_ALPHA, arithmetic_sequence
from modone import stats as stats_module
from modone.stats import _geometric_grid, _rank, _sums_in

from oracles import (brute_discrepancy, brute_energy_count, brute_k_level_count,
                     brute_pair_count, brute_star_discrepancy, geometric_grid_loop)


def sorted_uniform(rng, n):
    return TorusPoints(np.sort(rng.random(n)))


# ---------------------------------------------------------------------------
# pair correlation

def test_pair_correlation_examples():
    assert pair_correlation(TorusPoints([0.0, 0.5]), 0.4) == 0.0
    assert pair_correlation(TorusPoints([0.0, 0.05]), 0.4) == 1.0


def test_pair_correlation_window_validation():
    pts = TorusPoints([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        pair_correlation(pts, 1.6)      # s/N > 1/2: ambiguous wrap
    with pytest.raises(ValueError):
        pair_correlation(pts, 0.0)


def test_pair_correlation_counts_duplicates():
    pts = TorusPoints([0.2, 0.2, 0.2])
    assert pair_correlation_count(pts, 0.3) == 6   # all ordered pairs


def test_pair_correlation_wraparound():
    pts = TorusPoints([0.001, 0.999])
    assert pair_correlation(pts, 0.1) == 1.0


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**32),
       st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_pair_correlation_matches_brute_force(n, key, s):
    rng = np.random.Generator(np.random.Philox(key=key))
    pts = sorted_uniform(rng, n)
    if s / n >= 0.5:
        s = 0.45 * n
    assert pair_correlation_count(pts, s) == brute_pair_count(pts.points, s)


def test_pair_correlation_translation_invariance(rng):
    raw = rng.random(200) * 50
    s = 1.2
    a = pair_correlation(frac_reduce(RealSequence(raw)), s)
    b = pair_correlation(frac_reduce(RealSequence(raw + 17.0)), s)
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# the rank under both statistics


def clustered_points(rng, n, clusters):
    """n sorted points, each one of `clusters` centres: long runs of ties."""
    return np.sort(rng.choice(rng.random(clusters), n))


@st.composite
def rank_cases(draw):
    """Sorted points with the queries the pair and k-level kernels make.

    Families: coincident clusters; a dyadic lattice j/2^p, where windows of
    t/2^p land exactly on points; points within the window of 0 and of 1;
    and uniform points. Windows: a pair window s/N (s below one ulp of the
    points, or on the lattice), and k-level arcs, including [5, 6) and
    [-7, -6), away from 0."""
    family = draw(st.sampled_from(["clusters", "lattice", "ends", "uniform"]))
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**32))))
    n = draw(st.integers(min_value=1, max_value=400))
    if family == "clusters":
        y = clustered_points(rng, n, draw(st.integers(min_value=1, max_value=6)))
    elif family == "lattice":
        p = draw(st.integers(min_value=0, max_value=10))
        y = np.sort(rng.integers(0, 2**p, n)) / 2**p
    elif family == "ends":
        near = min(8.0 / n, 0.25) * rng.random(n)
        y = np.sort(np.where(rng.random(n) < 0.5, near, 1.0 - near - 2**-53))
    else:
        y = np.sort(rng.random(n))
    lattice_t = draw(st.integers(min_value=1, max_value=4))
    s = draw(st.sampled_from([1e-300, 1e-17 * n, n * lattice_t / 2**10, 0.5, 1.0, 2.0]))
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (5.0, 6.0), (-7.0, -6.0),
                                   (-s, s), (0.0, s)]))
    lift = np.floor(y - hi / n)
    queries = [y + s / n, y - hi / n - lift, y - lo / n - lift]
    return y, queries


@given(rank_cases())
@settings(max_examples=300, deadline=None)
def test_rank_equals_searchsorted(case):
    y, queries = case
    y2 = np.concatenate([y, y + 1.0])
    for v in queries:
        for side in ("left", "right"):
            assert_array_equal(_rank(y2, v, side), np.searchsorted(y2, v, side=side))


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=1, max_value=5), st.sampled_from([0.3, 1.0, 2.5]))
@settings(max_examples=60, deadline=None)
def test_pair_and_k_level_match_brute_force_on_clusters(n, key, clusters, s):
    pts = TorusPoints(clustered_points(np.random.Generator(np.random.Philox(key=key)),
                                       n, clusters))
    s = min(s, 0.2 * n)   # 2s/N stays below half the circle
    assert pair_correlation_count(pts, s) == brute_pair_count(pts.points, s)
    for w in (CorrelationWindow(k=2, intervals=((-s, s),)),
              CorrelationWindow(k=3, intervals=((-s, s), (0.1, s + 0.1))),
              CorrelationWindow(k=2, intervals=((0.0, s),)),
              CorrelationWindow(k=3, intervals=((0.0, s), (-s, 0.0)))):
        if n >= w.k:
            assert round(k_level_correlation(pts, w) * n) == brute_k_level_count(pts.points, w)


def test_k_level_counts_coincident_points_at_a_window_edge():
    y = np.full(2, 0.011546754286331562)
    w = CorrelationWindow(k=2, intervals=((0.0, 0.3),))
    assert round(k_level_correlation(TorusPoints(y), w) * 2) == brute_k_level_count(y, w) == 2


# ---------------------------------------------------------------------------
# k-level correlation

def test_window_validation():
    with pytest.raises(ValueError):
        CorrelationWindow(k=1, intervals=())
    with pytest.raises(ValueError):
        CorrelationWindow(k=3, intervals=((0.0, 1.0),))
    with pytest.raises(ValueError):
        CorrelationWindow(k=2, intervals=((1.0, 1.0),))
    w = CorrelationWindow(k=3, intervals=((0.0, 1.0), (-1.0, 1.0)))
    assert w.poisson_target == 2.0
    assert CorrelationWindow.pair(1.5).poisson_target == 3.0


def test_k_level_needs_enough_points():
    with pytest.raises(ValueError):
        k_level_correlation(TorusPoints([0.1, 0.2]),
                            CorrelationWindow(k=3, intervals=((0, 1), (0, 1))))


def test_k_level_width_validation():
    pts = TorusPoints([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        k_level_correlation(pts, CorrelationWindow(k=2, intervals=((-2.0, 0.1),)))


def test_three_point_example_is_zero():
    pts = TorusPoints([0.0, 0.05, 0.5])
    w = CorrelationWindow(k=3, intervals=((-0.2, 0.2), (-0.2, 0.2)))
    assert k_level_correlation(pts, w) == 0.0


def test_k2_symmetric_window_equals_pair_statistic(rng):
    # boundary-free random input: the half-open window and the strict circle
    # distance agree
    pts = sorted_uniform(rng, 300)
    for s in (0.5, 1.0, 2.0):
        w = CorrelationWindow(k=2, intervals=((-s, s),))
        assert k_level_correlation(pts, w) == pytest.approx(
            pair_correlation(pts, s), abs=1e-12)


@given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_k3_matches_brute_force(n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    pts = sorted_uniform(rng, n)
    w = CorrelationWindow(k=3, intervals=((-0.8, 1.3), (0.1, 1.7)))
    fast = k_level_correlation(pts, w) * n
    assert round(fast) == brute_k_level_count(pts.points, w)


@given(st.integers(min_value=5, max_value=18), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_k4_moebius_matches_brute_force(n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    pts = sorted_uniform(rng, n)
    w = CorrelationWindow(k=4, intervals=((-1.0, 1.0), (-0.5, 1.5), (0.0, 1.9)))
    fast = k_level_correlation(pts, w) * n
    assert round(fast) == brute_k_level_count(pts.points, w)


@st.composite
def k_level_cases(draw):
    """Windows with lo = 0, offsets by +-N, and identical, overlapping or
    disjoint slots; narrow enough that the brute oracle stays quick."""
    k = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=k, max_value=40))
    key = draw(st.integers(min_value=0, max_value=2**32))
    max_width = min(0.49 * n, 6.0 if k <= 3 else 2.5)
    intervals = []
    for _ in range(k - 1):
        shift = draw(st.sampled_from((-n, 0, n)))
        if intervals and draw(st.booleans()):
            lo, hi = draw(st.sampled_from(intervals))
        else:
            lo = draw(st.one_of(st.just(0.0), st.floats(min_value=-4.0, max_value=4.0)))
            hi = lo + draw(st.floats(min_value=0.05, max_value=max_width))
        intervals.append((lo + shift, hi + shift))
    return n, key, CorrelationWindow(k=k, intervals=tuple(intervals))


@given(k_level_cases())
@settings(max_examples=150, deadline=None)
def test_k_level_matches_brute_force_any_k(case):
    n, key, w = case
    pts = sorted_uniform(np.random.Generator(np.random.Philox(key=key)), n)
    assert round(k_level_correlation(pts, w) * n) == brute_k_level_count(pts.points, w)


@pytest.mark.parametrize("intervals", [
    ((0.0, 3.0), (0.0, 3.0)),       # the anchor near 0 rounds out of its own arc
    ((59.0, 61.0),),                # a window offset by N still holds the anchor
    ((0.0, 3.0), (60.0, 63.0)),     # windows that coincide modulo N
])
def test_k_level_anchor_removed_by_index(intervals):
    pts = TorusPoints(np.sort(np.random.default_rng(3).random(60)))
    w = CorrelationWindow(k=len(intervals) + 1, intervals=intervals)
    assert round(k_level_correlation(pts, w) * 60) == brute_k_level_count(pts.points, w)


def test_k_level_counts_past_int64_exactly():
    # every point coincides, so every k-tuple of distinct indices counts; the
    # per-anchor products (N-1)^4 summed over N anchors exceed 2^63
    n = 20_000
    w = CorrelationWindow(k=5, intervals=((-1.0, 1.0),) * 4)
    assert k_level_correlation(TorusPoints(np.zeros(n)), w) == math.perm(n, 5) / n


def test_k3_overlapping_windows_diagonal_removal(rng):
    # overlapping intervals force the a2 = a3 correction path
    pts = sorted_uniform(rng, 50)
    w = CorrelationWindow(k=3, intervals=((-1.5, 1.5), (-1.5, 1.5)))
    fast = k_level_correlation(pts, w) * 50
    assert round(fast) == brute_k_level_count(pts.points, w)


def test_k_level_translation_invariance(rng):
    raw = rng.random(120) * 9
    w = CorrelationWindow(k=3, intervals=((0.0, 1.0), (0.0, 1.0)))
    a = k_level_correlation(frac_reduce(RealSequence(raw)), w)
    b = k_level_correlation(frac_reduce(RealSequence(raw + 3.0)), w)
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# discrepancy

def test_discrepancy_examples():
    assert discrepancy(TorusPoints([0.5])) == (1.0, 0.5)
    d, dstar = discrepancy(TorusPoints([0.25, 0.75]))
    assert d == pytest.approx(0.5)
    assert dstar == pytest.approx(0.25)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_discrepancy_matches_interval_enumeration(n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    pts = sorted_uniform(rng, n)
    d, dstar = discrepancy(pts)
    assert d == pytest.approx(brute_discrepancy(pts.points), abs=1e-12)
    assert dstar == pytest.approx(brute_star_discrepancy(pts.points), abs=1e-12)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_discrepancy_star_sandwich(n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    d, dstar = discrepancy(sorted_uniform(rng, n))
    assert dstar <= d + 1e-15
    assert d <= 2 * dstar + 1e-15
    assert d >= 1.0 / n - 1e-15     # degenerate closed interval at any point


def test_discrepancy_profile_golden_logarithmic_growth():
    seq = arithmetic_sequence(GOLDEN_ALPHA, 4096)
    prof = discrepancy_profile(seq, grid="full")
    assert prof.exact
    assert prof.d_values[0] == pytest.approx(1.0)   # single point
    n = prof.n_grid[15:]
    nd = n * prof.d_values[15:]
    assert np.all(nd <= 10.0 * np.log(n))
    assert prof.m_value == pytest.approx(np.max(prof.n_grid * prof.d_values))


def test_discrepancy_profile_geometric_agrees_at_shared_points():
    seq = arithmetic_sequence(GOLDEN_ALPHA, 600)
    full = discrepancy_profile(seq, grid="full")
    geom = discrepancy_profile(seq, grid="geometric", ratio=1.3)
    assert not geom.exact
    for j, n in enumerate(geom.n_grid):
        i = int(n) - 1
        assert geom.d_values[j] == pytest.approx(full.d_values[i], abs=1e-14)
        assert geom.star_values[j] == pytest.approx(full.star_values[i], abs=1e-14)


@pytest.mark.parametrize("values", [
    arithmetic_sequence(GOLDEN_ALPHA, 200).values,
    np.random.Generator(np.random.Philox(key=11)).random(150) * 7,
    np.repeat(np.arange(20) * 0.05, 6),     # ties, and prefixes out of order
    np.array([0.5]),
])
def test_full_profile_equals_discrepancy_of_each_prefix(values):
    prof = discrepancy_profile(RealSequence(values), grid="full")
    prefixes = [discrepancy(frac_reduce(RealSequence(values[:m])))
                for m in range(1, values.size + 1)]
    assert_array_equal(prof.n_grid, np.arange(1, values.size + 1))
    assert_array_equal(prof.d_values, [d for d, _ in prefixes])
    assert_array_equal(prof.star_values, [s for _, s in prefixes])


@pytest.mark.parametrize("ratio", [1.001, 1.06, 1.25, 2.0, 10.0])
@pytest.mark.parametrize("n", [1, 2, 7, 100, 1000, 12_345, 100_000])
def test_geometric_grid_equals_its_loop(n, ratio):
    assert_array_equal(_geometric_grid(n, ratio), geometric_grid_loop(n, ratio))


@pytest.mark.parametrize("n, ratio", [(100, 1.005), (1000, 1.0005), (40, 1.025)])
def test_geometric_grid_of_a_ratio_near_one_is_every_size(n, ratio):
    # ratio <= 1 + 1/N, where the loop still ends
    assert_array_equal(geometric_grid_loop(n, ratio), np.arange(1, n + 1))
    assert_array_equal(_geometric_grid(n, ratio), np.arange(1, n + 1))
    # a ratio whose products round back to x stalls the loop, not the grid
    assert_array_equal(_geometric_grid(n, 1.0 + 2**-52), np.arange(1, n + 1))


def test_discrepancy_profile_validation():
    with pytest.raises(ValueError):
        discrepancy_profile(arithmetic_sequence(1.0, 5), grid="bogus")


# ---------------------------------------------------------------------------
# additive energy

def test_energy_hand_examples():
    assert additive_energy(RealSequence([1, 2]), 0.5).count == 6
    assert additive_energy(RealSequence([1, 2, 3]), 10.0).count == 81  # N^4


def test_energy_integer_progression_closed_form():
    # for x_n = 2n, gamma below the lattice spacing counts a+b = c+d exactly:
    # sum_t r(t)^2 = (2N^3 + N)/3
    n = 16
    seq = RealSequence(2.0 * np.arange(1, n + 1))
    expected = (2 * n**3 + n) // 3
    assert additive_energy(seq, 0.5).count == expected
    assert expected == 2736
    assert brute_energy_count(seq.values, 0.5) == expected


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=2**32),
       st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_energy_matches_brute_force(n, key, gamma):
    rng = np.random.Generator(np.random.Philox(key=key))
    seq = RealSequence(np.cumsum(1.0 + rng.random(n)))
    assert additive_energy(seq, gamma).count == brute_energy_count(seq.values, gamma)


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=25),
       st.sampled_from([1.0, 0.25, 0.125]), st.integers(min_value=1, max_value=6),
       st.booleans(), st.sampled_from([1, 2, 5, 40, 1 << 18]))
@settings(max_examples=80, deadline=None)
def test_energy_tie_heavy_matches_brute_force(ints, step, m, on_lattice, slab):
    # repeated lattice values make many sum differences land exactly on gamma,
    # and slabs of a few sums put their cut points on tied sums
    values = np.array(ints, dtype=np.float64) * step
    gamma = (m if on_lattice else m - 0.5) * step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats_module, "_SLAB_SUMS", slab)
        assert (additive_energy(RealSequence(values), gamma).count
                == brute_energy_count(values, gamma))


@given(st.lists(st.integers(min_value=0, max_value=60), min_size=2, max_size=30),
       st.sampled_from([0.1, 0.3, 1.0 / 3.0]), st.data())
@settings(max_examples=200, deadline=None)
def test_sums_in_a_range_are_the_computed_sums(ints, step, data):
    # sums of decimal steps round, so x_b >= lo - x_a and x_a + x_b >= lo can
    # disagree; the slab takes the sums as computed
    x = np.sort(np.array(ints, dtype=np.float64) * step)
    sums = np.sort([x[a] + x[b] for a in range(x.size) for b in range(a + 1, x.size)])
    ends = [-np.inf, np.inf, *sums, *np.nextafter(sums, np.inf), *np.nextafter(sums, -np.inf)]
    lo, hi = sorted([data.draw(st.sampled_from(ends)), data.draw(st.sampled_from(ends))])
    assert_array_equal(_sums_in(x, lo, hi), sums[(sums >= lo) & (sums < hi)])


def test_energy_monotone_in_gamma(rng):
    seq = RealSequence(np.cumsum(1.0 + rng.random(40)))
    counts = [additive_energy(seq, g).count for g in (0.1, 0.5, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_energy_bounds_on_well_spaced_input(rng):
    n = 64
    seq = RealSequence(np.cumsum(1.0 + rng.random(n)))   # gaps >= 1
    for gamma in (0.25, 1.0):
        e = additive_energy(seq, gamma).count
        assert e >= n**2
        assert e <= 2 * gamma * n**3 + n**3    # delta = 1 separation bound


def test_energy_normalized_field():
    res = additive_energy(RealSequence([1, 2, 3]), 10.0)
    assert res.normalized == pytest.approx(81 / 27)


# ---------------------------------------------------------------------------
# gap distribution

def test_gaps_equally_spaced():
    pts = TorusPoints(np.arange(20) / 20.0)
    gd = gap_distribution(pts)
    assert_allclose(gd.scaled_gaps, np.ones(20))
    assert gd.ks_vs_exponential == pytest.approx(1 - np.exp(-1.0))


def test_gaps_partition_the_circle(rng):
    pts = sorted_uniform(rng, 500)
    gd = gap_distribution(pts)
    assert gd.scaled_gaps.size == 500
    assert np.all(gd.scaled_gaps >= 0)
    assert np.sum(gd.scaled_gaps) / 500 == pytest.approx(1.0, abs=1e-12)


def test_gaps_need_two_points():
    with pytest.raises(ValueError):
        gap_distribution(TorusPoints([0.3]))


def test_gaps_uniform_points_near_exponential(rng):
    pts = sorted_uniform(rng, 100_000)
    gd = gap_distribution(pts)
    assert gd.ks_vs_exponential <= 0.01


def test_gaps_ecdf_and_ks_against_scipy(rng):
    scipy_stats = pytest.importorskip("scipy.stats")
    pts = sorted_uniform(rng, 2000)
    gd = gap_distribution(pts)
    ks = scipy_stats.kstest(gd.scaled_gaps, "expon").statistic
    assert gd.ks_vs_exponential == pytest.approx(ks, abs=1e-12)
    assert gd.ecdf(1.0) == pytest.approx(
        np.mean(gd.scaled_gaps <= 1.0), abs=1e-12)


def test_gaps_translation_invariance(rng):
    raw = rng.random(300) * 7
    a = gap_distribution(frac_reduce(RealSequence(raw))).scaled_gaps
    b = gap_distribution(frac_reduce(RealSequence(raw + 123.0))).scaled_gaps
    assert_allclose(np.sort(a), np.sort(b), atol=1e-9)
