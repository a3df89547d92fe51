import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from modone import (CorrelationWindow, RealSequence, TorusPoints,
                    additive_energy, discrepancy, discrepancy_profile,
                    frac_reduce, gap_distribution, gen_theorem1, k_level_correlation,
                    pair_correlation, pair_correlation_count, reduce_scaled)
from modone.generators import GOLDEN_ALPHA, ScaleFunction, arithmetic_sequence, van_der_corput
from modone.seqcore import _BLOCK, frac_part, scale_by_alpha
from modone import stats as stats_module
from modone.stats import (_close_ahead, _close_count, _geometric_grid,
                          _moebius_terms, _rank, _slab_bounds, _sums_in)

from oracles import (brute_discrepancy, brute_energy_count, brute_k_level_count,
                     brute_pair_count, brute_star_discrepancy, extended_k_level_count,
                     extended_pair_count, geometric_grid_loop, insertion_profile,
                     partition_moebius_terms, sorted_prefix_profile, window_membership)


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
def family_points(draw, n, families=("clusters", "lattice", "ends", "uniform")):
    """n sorted points of one family: coincident clusters; a dyadic lattice
    j/2^p, where windows of t/2^p land exactly on points; points within the
    window of 0 and of 1; uniform points; and undilated theorem1, clustered
    round 0, where almost every rank falls back to searchsorted."""
    family = draw(st.sampled_from(families))
    key = draw(st.integers(0, 2**32))
    rng = np.random.Generator(np.random.Philox(key=key))
    if family == "clusters":
        return clustered_points(rng, n, draw(st.integers(min_value=1, max_value=6)))
    if family == "lattice":
        p = draw(st.integers(min_value=0, max_value=10))
        return np.sort(rng.integers(0, 2**p, n)) / 2**p
    if family == "ends":
        near = min(8.0 / n, 0.25) * rng.random(n)
        return np.sort(np.where(rng.random(n) < 0.5, near, 1.0 - near - 2**-53))
    if family == "theorem1":
        return frac_reduce(gen_theorem1(1.0, n, key)).points
    return np.sort(rng.random(n))


@st.composite
def rank_cases(draw):
    """Sorted points with the queries the pair and k-level kernels make.

    Points of every `family_points` family but theorem1. Windows: a pair
    window s/N (s below one ulp of the points, or on the lattice), and
    k-level arcs, including [5, 6) and [-7, -6), away from 0."""
    n = draw(st.integers(min_value=1, max_value=400))
    y = draw(family_points(n))
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
            assert_array_equal(_rank(y, v, side, 0) + np.arange(y.size),
                               np.searchsorted(y2, v, side=side))


def test_counts_at_the_float_edges_match_the_extended_circle(rng):
    # points a few ulps from 0, where y + 1 rounds (to even at 2**-53), and
    # from 1 - s/N, where the queries meet those rounded values: the circle is
    # never laid out twice, so the counts must round as the extended circle
    # [y, y + 1] stored in binary64, not as y against a query less 1
    for _ in range(60):
        n = int(rng.integers(7, 18))   # 2s/N stays below half the circle
        s = float(rng.choice([0.5, 1.0, 1.5]))
        starts = np.array([0.0, 2.0**-60, 2.0**-53, 3 * 2.0**-54, 1.0 - s / n,
                           1.0 - 2.0**-53, 0.5])
        y = starts[rng.integers(0, starts.size, n)]
        for _ in range(3):   # a few steps of one ulp either way
            y = np.nextafter(y, np.where(rng.random(n) < 0.5, -1.0, 2.0))
        y = np.sort(np.clip(y, 0.0, 1.0 - 2.0**-53))
        pts = TorusPoints(y)
        assert pair_correlation_count(pts, s) == extended_pair_count(y, s)
        for w in (CorrelationWindow(k=3, intervals=((0.0, s), (0.0, s))),
                  CorrelationWindow(k=3, intervals=((-s, s), (-s, 0.0))),
                  CorrelationWindow(k=2, intervals=((-s, 0.5 * s),))):
            assert round(k_level_correlation(pts, w) * n) == extended_k_level_count(y, w)


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
def k_level_windows(draw, k, n):
    """Windows with lo = 0, offsets by +-N, and identical, overlapping or
    disjoint slots; narrow enough that the brute oracle stays quick."""
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
    return CorrelationWindow(k=k, intervals=tuple(intervals))


@st.composite
def k_level_cases(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=k, max_value=40))
    key = draw(st.integers(min_value=0, max_value=2**32))
    return n, key, draw(k_level_windows(k, n))


@given(k_level_cases())
@settings(max_examples=150, deadline=None)
def test_k_level_matches_brute_force_any_k(case):
    n, key, w = case
    pts = sorted_uniform(np.random.Generator(np.random.Philox(key=key)), n)
    assert round(k_level_correlation(pts, w) * n) == brute_k_level_count(pts.points, w)


@given(st.data(), st.integers(min_value=2, max_value=5), st.sampled_from([0.3, 1.0, 2.5]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_counts_over_blocks_of_five_anchors_match_the_extended_circle(data, k, s):
    # every block edge falls among the anchors, in passes and fallbacks
    # alike; the oracles enumerate over the extended circle, as rounded in
    # binary64, since lattice and cluster points sit on the window edges
    n = data.draw(st.integers(min_value=k, max_value=40))
    y = data.draw(family_points(n, ("clusters", "lattice", "ends", "uniform", "theorem1")))
    w = data.draw(k_level_windows(k, n))
    s = min(s, 0.2 * n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats_module, "_ANCHORS", 5)
        assert pair_correlation_count(TorusPoints(y), s) == extended_pair_count(y, s)
        assert round(k_level_correlation(TorusPoints(y), w) * n) == extended_k_level_count(y, w)


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


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8),
       st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.5]), st.sampled_from([1.0, 2.0])),
                min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_moebius_terms_equal_the_set_partition_fold(slots, pool):
    # up to 4 distinct intervals over at most 8 slots, repeated in any order
    intervals = tuple(pool[j] for j in slots)
    terms = partition_moebius_terms(intervals)
    assert _moebius_terms(intervals) == {term: mu for term, mu in terms.items() if mu}


@pytest.mark.parametrize("spread, width", [
    (1.0, 10.0),    # uniform points, about 20 in a window: int64 products
    (0.1, 10.0),    # every window holds all 50 points: 50 * 50**11 >= 2**63, object products
])
def test_k_level_at_k12_counts_falling_factorials(spread, width):
    # on equal windows the k-tuples of anchor i are the ordered choices of
    # k - 1 of the c_i other points in its window
    n, k = 50, 12
    y = np.sort(np.random.default_rng(7).random(n) * spread)
    memb = window_membership(y[:, None] - y[None, :], -width, width, n)
    np.fill_diagonal(memb, False)
    w = CorrelationWindow(k=k, intervals=((-width, width),) * (k - 1))
    expected = sum(math.perm(int(c), k - 1) for c in memb.sum(axis=1))
    assert expected > 0
    assert k_level_correlation(TorusPoints(y), w) == expected / n


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


def test_discrepancy_over_blocks_equals_one_row_of_all_points():
    # 2**16 of the 2**16 + 5 points below 1/2: the first block of discrepancy
    # ends at its largest over-candidate, read from the quotient after the block
    rng = np.random.Generator(np.random.Philox(key=7))
    seq = RealSequence(np.concatenate([rng.random(2**16) * 0.5, 0.5 + rng.random(5) * 0.5]))
    prof = discrepancy_profile(seq, grid="geometric", ratio=1e300)
    assert prof.n_grid.tolist() == [1, 2**16 + 5]
    assert discrepancy(frac_reduce(seq)) == (prof.d_values[-1], prof.star_values[-1])


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


def assert_profile_is_the_insertion_oracle(values):
    prof = discrepancy_profile(RealSequence(values), grid="full")
    d, star, m_value = insertion_profile(frac_part(values))
    assert prof.d_values.tobytes() == d.tobytes()
    assert prof.star_values.tobytes() == star.tobytes()
    assert prof.m_value.hex() == m_value.hex()


# the first block holds the prefixes 1..256: 255 leaves it ragged, and 257
# adds a block of one row; at 5000 a block holds 6 to 256 rows
@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 5000])
def test_full_profile_equals_the_insertion_oracle_bitwise(n):
    rng = np.random.Generator(np.random.Philox(key=n))
    x = rng.random(n) * 6.0 - 3.0
    ties = np.round(x * 16) / 16
    assert_profile_is_the_insertion_oracle(np.where(rng.random(n) < 0.5, ties, x))


# ties, both signs of 0, integers, and -1e-300, whose fractional part rounds to 1
TIED_VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, 2.25, -3.75, 1e-300, -1e-300]


@given(st.lists(st.one_of(st.sampled_from(TIED_VALUES), st.floats(-4.0, 4.0, allow_nan=False)),
                min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_full_profile_equals_the_insertion_oracle_on_ties(values):
    assert_profile_is_the_insertion_oracle(np.array(values))


def assert_geometric_profile_is_the_per_prefix_sort(values, ratio):
    prof = discrepancy_profile(RealSequence(values), grid="geometric", ratio=ratio)
    grid = geometric_grid_loop(values.size, ratio)
    d, star, m_value = sorted_prefix_profile(frac_part(values), grid)
    assert_array_equal(prof.n_grid, grid)
    assert prof.d_values.tobytes() == d.tobytes()
    assert prof.star_values.tobytes() == star.tobytes()
    assert prof.m_value.hex() == m_value.hex()


@given(st.lists(st.one_of(st.sampled_from(TIED_VALUES), st.floats(-4.0, 4.0, allow_nan=False)),
                min_size=1, max_size=300),
       st.sampled_from([1.001, 1.06, 1.3, 2.0, 1e300]))
@settings(max_examples=100, deadline=None)
def test_geometric_profile_equals_the_per_prefix_sort(values, ratio):
    assert_geometric_profile_is_the_per_prefix_sort(np.array(values), ratio)


@pytest.mark.parametrize("ratio", [1.01, 1.06, 1.25])
def test_geometric_profile_of_van_der_corput_equals_the_per_prefix_sort(ratio):
    assert_geometric_profile_is_the_per_prefix_sort(van_der_corput(2, 20_000).values, ratio)


@pytest.mark.parametrize("ratio", [1.001, 1.06, 1.25, 2.0, 10.0, 1e300, "1 + 2/N"])
@pytest.mark.parametrize("n", [1, 2, 7, 100, 1000, 12_345, 100_000])
def test_geometric_grid_equals_its_loop(n, ratio):
    ratio = 1.0 + 2.0 / n if ratio == "1 + 2/N" else ratio
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
       st.sampled_from(["on", "between", "nudged"]), st.sampled_from([1, 2, 5, 40, 1 << 18]))
@settings(max_examples=80, deadline=None)
def test_energy_tie_heavy_matches_brute_force(ints, step, m, place, slab):
    # repeated lattice values make many sum differences land exactly on gamma,
    # a gamma just above the lattice makes p +- gamma round onto lattice sums,
    # and slabs of a few sums put their cut points on tied sums
    values = np.array(ints, dtype=np.float64) * step
    gamma = {"on": m * step, "between": (m - 0.5) * step,
             "nudged": np.nextafter(m * step, np.inf)}[place]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats_module, "_SLAB_SUMS", slab)
        assert (additive_energy(RealSequence(values), gamma).count
                == brute_energy_count(values, gamma))


def test_energy_counts_sums_on_a_rounded_bound():
    # fl(p + gamma) rounds down onto the sum p + 1 < p + gamma, which is close
    values = np.arange(1.0, 13.0)
    gamma = np.nextafter(1.0, 2.0)
    assert additive_energy(RealSequence(values), gamma).count == brute_energy_count(values, gamma)
    assert brute_energy_count(values, gamma) == 3444


@pytest.mark.parametrize("step", [1.0, 0.25, 0.1])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_close_count_is_symmetric_on_lattice_sums(step, m):
    # the tie rule decides |p - q| < gamma exactly, so additive_energy counts
    # the cross term between off-diagonal and diagonal sums once, times four
    x = np.arange(-6, 7) * step
    off = np.sort((x[:, None] + x[None, :])[np.triu_indices(x.size, 1)])
    diag = x + x
    for gamma in (m * step, np.nextafter(m * step, np.inf)):
        assert _close_count(off, diag, gamma) == _close_count(diag, off, gamma), gamma


def _off_sums(x):
    return np.sort((x[:, None] + x[None, :])[np.triu_indices(x.size, 1)])


@pytest.mark.parametrize("step", [1.0, 0.25, 0.1])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_close_ahead_counts_each_close_pair_once(step, m):
    # 7260 sums, so the query block edge at 4096 falls inside a run of equal sums
    sums = _off_sums(np.arange(-60, 61) * step)
    assert sums[4095] == sums[4096]
    for gamma in (m * step, np.nextafter(m * step, np.inf)):
        assert (sums.size + 2 * _close_ahead(sums, sums.size, gamma)
                == _close_count(sums, sums, gamma)), gamma


def test_close_ahead_counts_sums_on_a_rounded_bound():
    # fl(p + gamma) rounds down onto the sum p + 1 < p + gamma, which is close
    sums = _off_sums(np.arange(1.0, 13.0))
    gamma = np.nextafter(1.0, 2.0)
    close = int(np.sum(np.abs(sums[:, None] - sums[None, :]) < gamma))
    assert sums.size + 2 * _close_ahead(sums, sums.size, gamma) == close
    assert _close_count(sums, sums, gamma) == close


def test_energy_counts_close_sums_past_a_slab_edge():
    # with a slab per sum, fl(U + gamma) = 4 rounds below U + gamma for the cut
    # U = 1 + 2^-51, and the sum 4 = 1.5 + 2.5 lies within gamma of the sum
    # 1 + 2^-52 just below U
    x = np.array([0.0, 1 + 2**-52, 1 + 2**-51, 1.5, 2.5])
    for slab in (1, 2, 1 << 18):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats_module, "_SLAB_SUMS", slab)
            count = additive_energy(RealSequence(x), 3.0).count
            assert count == brute_energy_count(x, 3.0) == 597, slab


def test_energy_working_set_is_bounded_by_its_slabs(traced_peak):
    # with slabs of 2**14 sums (128 KB) the energy holds the sorted values,
    # the diagonal, the sampled slab cuts and one slab's sums at a time; all
    # N(N-1)/2 sums at N = 2**11 would take 16.8 MB, 12.6 MB more than at 2**10
    def call(n):
        gamma = 10.0 * float(ScaleFunction.beck(1.0).eval(n))
        return additive_energy, gen_theorem1(1.0, n, 5), gamma

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats_module, "_SLAB_SUMS", 1 << 14)
        traced_peak(*call(2**10))   # numpy's first calls allocate caches of their own
        small, large = (traced_peak(*call(n)) for n in (2**10, 2**11))
    assert large < 3e6, f"{large / 1e6:.2f} MB at N = 2**11"
    grown = (large - small) / 2**10
    assert grown < 64, f"bytes per point gained from 2**10 to 2**11: {grown:.1f}"


@given(st.lists(st.one_of(st.integers(min_value=-400, max_value=400).map(lambda k: k / 8),
                          st.floats(min_value=-50.0, max_value=50.0)), min_size=1, max_size=12),
       st.sampled_from(["above", "at", "below"]))
@settings(max_examples=80, deadline=None)
def test_energy_past_the_spread_of_the_sums_counts_every_quadruple(values, place):
    # gamma on either side of the float nearest the spread 2 x_max - 2 x_min,
    # which is rounded unless it is exact; only a gamma past the exact spread
    # counts all N^4 quadruples
    x = np.array(values)
    spread = 2.0 * x.max() - 2.0 * x.min()
    near = spread if spread > 0 else 1.0
    gamma = float({"above": np.nextafter(near, np.inf), "at": near,
                   "below": np.nextafter(near, 0.0)}[place])
    if gamma < np.spacing(2.0 * np.max(np.abs(x))):
        return
    past = Fraction(gamma) > 2 * Fraction(float(x.max())) - 2 * Fraction(float(x.min()))

    def no_lookup(*args):
        raise AssertionError("a close pair looked up past the spread")

    with pytest.MonkeyPatch.context() as mp:
        if past:
            mp.setattr(stats_module, "_close_ahead", no_lookup)
        count = additive_energy(RealSequence(x), gamma).count
    assert count == brute_energy_count(x, gamma)
    assert (count == x.size**4) == past


def test_energy_past_the_spread_holds_no_sums(traced_peak):
    # at N = 2048 a gamma past the spread of the sums made every slab gather
    # every sum above its lower cut: 70.6 MB of RSS against 42.1 MB at 0.05
    seq = gen_theorem1(1.0, 2048, 5)
    traced_peak(additive_energy, seq, 0.05)   # numpy's first calls allocate caches of their own
    near, far = (traced_peak(additive_energy, seq, gamma) for gamma in (0.05, 1e4))
    assert additive_energy(seq, 1e4).count == 2048**4
    assert far <= near, f"{far / 1e6:.2f} MB at gamma 1e4, {near / 1e6:.2f} MB at 0.05"


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
       st.sampled_from([0.1, 0.3, 1.0 / 3.0]), st.data())
@settings(max_examples=100, deadline=None)
def test_brute_energy_count_matches_rational_count(ints, step, data):
    # decimal steps make the sums and their float differences round, and gamma
    # is one of those differences, so |fl(p - q)| = gamma comes up
    x = np.array(ints, dtype=np.float64) * step
    sums = np.add.outer(x, x).ravel()
    gaps = np.unique(np.abs(sums[:, None] - sums[None, :]))
    gamma = float(data.draw(st.sampled_from(gaps[gaps > 0].tolist() or [step])))
    exact = [Fraction(float(p)) for p in sums]
    assert brute_energy_count(x, gamma) == sum(abs(p - q) < gamma for p in exact for q in exact)


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


def test_slab_cuts_follow_sums_on_a_lattice():
    # x_n near 2n puts the sums near a lattice, which the sampled sums must
    # follow for the slabs to stay near their target size
    n, target = 4096, 1 << 12
    x = np.sort(gen_theorem1(1.0, n, 1).values)
    bounds = _slab_bounds(x, -(-(n * (n - 1) // 2) // target))
    # the sums x_a + x_b, a < b, below each cut: one searchsorted per cut
    rows = np.arange(1, n + 1)
    below = [int(np.sum(np.maximum(np.searchsorted(x, cut - x) - rows, 0)))
             for cut in bounds[1:-1]]
    sizes = np.diff([0, *below, n * (n - 1) // 2])
    assert sizes.max() <= 2 * target, sizes.max() / target


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


def test_energy_rejects_gamma_below_the_float_spacing_of_the_sums():
    # there p +- gamma rounds back to p, and these three points counted -5
    seq = RealSequence([1000.5, 2001.25, 3002.125])
    for gamma in (1e-14, np.nextafter(np.spacing(6004.25), 0), 0.0, math.nan):
        with pytest.raises(ValueError, match="gamma"):
            additive_energy(seq, gamma)
    floor = np.spacing(6004.25)
    assert additive_energy(seq, floor).count == brute_energy_count(seq.values, floor) == 15


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


@pytest.mark.parametrize("n", [2, 3, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 5])
def test_gaps_in_the_points_buffer_are_gap_distribution_bitwise(rng, n):
    y = np.sort(rng.random(n))
    y[n // 3:n // 3 + 4] = y[n // 3]   # zero gaps
    expected = np.sort(np.append(np.diff(y), 1.0 - y[-1] + y[0]) * n)
    fresh = gap_distribution(TorusPoints(y))
    pts = TorusPoints(y.copy())
    own = gap_distribution(pts, out=pts.points)
    assert own.scaled_gaps is pts.points
    for gd in (fresh, own):
        assert gd.scaled_gaps.tobytes() == expected.tobytes()
    assert own.ks_vs_exponential.hex() == fresh.ks_vs_exponential.hex()


@pytest.mark.parametrize("out", [np.empty(9), np.empty(11), np.empty(10, dtype=np.float32)])
def test_gaps_refuse_an_out_of_another_size_or_type(out):
    # a longer out would sort leftover values in with the gaps
    with pytest.raises(ValueError, match="out must be"):
        gap_distribution(TorusPoints(np.linspace(0.0, 0.9, 10)), out=out)


def test_gaps_translation_invariance(rng):
    raw = rng.random(300) * 7
    a = gap_distribution(frac_reduce(RealSequence(raw))).scaled_gaps
    b = gap_distribution(frac_reduce(RealSequence(raw + 123.0))).scaled_gaps
    assert_allclose(np.sort(a), np.sort(b), atol=1e-9)


# ---------------------------------------------------------------------------
# working sets of the gen -> stat path


def _stage_calls(n: int) -> dict:
    """Each stage of gen -> stat at N = n, as (budget in bytes per point, call)."""
    seq = scale_by_alpha(gen_theorem1(1.0, n, 5), GOLDEN_ALPHA)
    pts = frac_reduce(seq)
    raw = frac_reduce(gen_theorem1(1.0, n, 12345))
    k3 = CorrelationWindow(k=3, intervals=((0.0, 1.0), (0.0, 1.0)))
    k3_two = CorrelationWindow(k=3, intervals=((0.0, 1.0), (1.0, 2.0)))
    return {"gen_theorem1": (10, gen_theorem1, 1.0, n, 5),
            "frac_reduce": (10, frac_reduce, seq),
            "reduce_scaled": (10, reduce_scaled, seq, GOLDEN_ALPHA),
            "pair_correlation": (2, pair_correlation, pts, 1.0),
            "k_level_correlation": (4, k_level_correlation, pts, k3),
            "k_level_correlation two intervals": (10, k_level_correlation, pts, k3_two),
            "pair_correlation undilated": (4, pair_correlation, raw, 1.0),
            "k_level_correlation undilated": (4, k_level_correlation, raw, k3),
            "discrepancy": (0, discrepancy, pts),
            "gap_distribution": (12, gap_distribution, pts)}


# the stages that hold nothing N-sized beyond the points: blocks of anchors
_BLOCKED_STAGES = ("pair_correlation", "k_level_correlation",
                   "k_level_correlation two intervals", "pair_correlation undilated",
                   "k_level_correlation undilated")


def test_gen_to_stat_working_sets_stay_within_budget(traced_peak):
    # bytes per point above the inputs, output included; the 4 MB covers each
    # stage's fixed blocks. N-sized temporaries beyond these (a second copy of
    # the circle, index ranges, per-step arrays of a formula) break a budget.
    # Undilated, 2n + z_n reduces to a cluster round 0, where 97% of the ranks
    # fall back to searchsorted
    n = 2**21
    stages = _stage_calls(n)
    peaks = {name: traced_peak(*call) for name, (_, *call) in stages.items()}
    over = {name: peaks[name] / n for name, (budget, *_) in stages.items()
            if peaks[name] > budget * n + 4e6}
    assert not over, f"bytes per point over budget: {over}"
    # the pair and k-level kernels rank one block of anchors at a time, so
    # their peaks do not grow with N: an array of one byte per point would
    # add 1.5 MB from N = 2**19 to 2**21
    small = _stage_calls(2**19)
    grown = {name: (peaks[name] - traced_peak(*small[name][1:])) / 1e6
             for name in _BLOCKED_STAGES}
    assert all(mb < 1.0 for mb in grown.values()), f"MB gained from 2**19 to 2**21: {grown}"


def test_full_profile_working_set_grows_only_by_its_outputs(traced_peak):
    # above the input: the reduced values, the ranks, the grid and the two
    # extremes of every prefix (40 B/point), and two row buffers and the
    # scorer's scratch for blocks of at most 2**16 cells (2 MB) at any N. Rows
    # that did not shrink as the prefixes grow would add 32 B/point per row
    peaks = [traced_peak(discrepancy_profile, arithmetic_sequence(GOLDEN_ALPHA, n), "full")
             for n in (2**13, 2**14)]
    assert peaks[1] < 48 * 2**14 + 4e6, f"{peaks[1] / 2**14:.1f} bytes per point"
    grown = (peaks[1] - peaks[0]) / 2**13
    assert grown < 48, f"bytes per point gained from 2**13 to 2**14: {grown:.1f}"
