import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from modone import (RealSequence, ScaleFunction, arithmetic_sequence,
                    density_l2, expected_pair_correlation, expected_window_count,
                    frac_reduce, pair_correlation, perturb,
                    perturbation_density, sweep_density_integrals)

from oracles import (brute_density, brute_window_count, riemann_density_l2,
                     riemann_h_rho)


def tiling_base():
    # 20 points at spacing 1/20 with half-width 0.1: every generic x is
    # covered by exactly 4 boxes of height 5, so rho is identically 1
    return RealSequence(np.arange(1, 21) / 20.0), ScaleFunction.constant(0.1)


# ---------------------------------------------------------------------------
# pointwise density

def test_density_single_box():
    base = RealSequence([0.5])
    g = ScaleFunction.constant(0.1)
    assert perturbation_density(base, g, 0.45) == pytest.approx(5.0)
    assert perturbation_density(base, g, 0.7) == 0.0


def test_density_tiling_is_one_off_lattice():
    base, g = tiling_base()
    xs = (np.arange(1000) + 0.382) / 1000.0
    vals = perturbation_density(base, g, xs)
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_density_wraps_around_zero():
    base = RealSequence([0.01])
    g = ScaleFunction.constant(0.05)
    assert perturbation_density(base, g, 0.98) == pytest.approx(10.0)


def test_density_arcs_are_closed_at_dyadic_edges():
    base = RealSequence([0.5, 3.0625])   # the second arc wraps through 0
    g = ScaleFunction.constant(0.125)
    xs = np.array([0.375, 0.625, 0.9375, 0.1875, 1.375, -0.0625, 0.3749, 0.6251, 0.1876])
    assert_array_equal(perturbation_density(base, g, xs), [2, 2, 2, 2, 2, 2, 0, 0, 0])
    assert perturbation_density(base, g, 0.375) == 2.0


# dyadic centers, widths and queries keep every arc edge exact, so the
# library and the oracles agree on closed membership at the edges
UNIT = 2.0**-10


@st.composite
def arc_configs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    centers = draw(st.lists(st.integers(-4096, 8192), min_size=n, max_size=n))
    widest = draw(st.sampled_from([8, 64, 460]))    # 460 * UNIT ~ 0.449
    widths = draw(st.lists(st.integers(1, widest), min_size=n, max_size=n))
    window = draw(st.integers(1, 511)) * UNIT      # s/N, below 1/2
    picks = draw(st.lists(st.integers(-4096, 8192), min_size=1, max_size=30))
    c, g = np.array(centers) * UNIT, np.array(widths) * UNIT
    # every arc edge, plus dyadic points anywhere on three turns of the circle
    xs = np.concatenate([c - g, c + g, np.array(picks) * UNIT / 4])
    return RealSequence(c), ScaleFunction.table(g), window * n, xs


def check_against_oracles(base, g, s, xs):
    rho = perturbation_density(base, g, xs)
    want = brute_density(base, g, xs)
    assert_allclose(rho, want, rtol=1e-9, atol=0)
    assert_array_equal(rho == 0.0, want == 0.0)     # exactly 0 where no arc covers
    h = expected_window_count(base, g, s, xs)
    want = brute_window_count(base, g, s, xs)
    assert np.all(h >= 0.0)
    # h is a difference of integrals of magnitude <= N; rounding is absolute
    assert_allclose(h, want, rtol=1e-9, atol=1e-12)
    assert_array_equal(h == 0.0, want == 0.0)     # exactly 0 where no arc meets the window
    assert perturbation_density(base, g, xs[-1]) == rho[-1]
    assert expected_window_count(base, g, s, xs[-1]) == h[-1]


@given(arc_configs())
@settings(max_examples=150, deadline=None)
def test_density_and_window_count_match_oracles(config):
    check_against_oracles(*config)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32),
       st.floats(min_value=0.001, max_value=0.45), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_density_and_window_count_match_oracles_off_lattice(n, key, widest, window):
    rng = np.random.Generator(np.random.Philox(key=key))
    base = RealSequence(rng.random(n) * 5 - 1)
    g = ScaleFunction.table(widest * (0.01 + 0.99 * rng.random(n)))
    check_against_oracles(base, g, 0.49 * window * n, rng.random(200) * 3 - 1)


# ---------------------------------------------------------------------------
# sweep integrals

def test_sweep_normalization_tiling():
    base, g = tiling_base()
    total, total_sq = sweep_density_integrals(base, g)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert total_sq == pytest.approx(1.0, abs=1e-12)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32),
       st.floats(min_value=0.01, max_value=0.45))
@settings(max_examples=40, deadline=None)
def test_sweep_normalization_random_configs(n, key, g0):
    rng = np.random.Generator(np.random.Philox(key=key))
    base = RealSequence(rng.random(n) * 10)
    total, total_sq = sweep_density_integrals(base, ScaleFunction.constant(g0))
    assert total == pytest.approx(1.0, abs=1e-9)
    assert total_sq >= 1.0 - 1e-9                 # Cauchy-Schwarz


def test_density_l2_single_box():
    assert density_l2(RealSequence([0.5]), ScaleFunction.constant(0.1)) == pytest.approx(5.0)


def test_density_l2_matches_riemann_oracle(rng):
    base = RealSequence(rng.random(40) * 3)
    g = ScaleFunction.table(0.02 + 0.2 * rng.random(40))
    exact = density_l2(base, g)
    approx = riemann_density_l2(base, g, 10**6)
    assert exact == pytest.approx(approx, abs=1e-6)
    base2 = RealSequence(rng.random(10))
    g2 = ScaleFunction.constant(0.3)
    assert density_l2(base2, g2) == pytest.approx(
        riemann_density_l2(base2, g2, 10**6), abs=1e-6)


def test_density_l2_varying_widths_normalized(rng):
    n = 200
    base = RealSequence(np.arange(1, n + 1) * 2.0)
    g = ScaleFunction.beck(1.0)
    total, total_sq = sweep_density_integrals(base, g)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert total_sq >= 1.0


# ---------------------------------------------------------------------------
# expected window count

def test_window_count_tiling_value():
    base, g = tiling_base()
    assert expected_window_count(base, g, 1.0, 0.5) == pytest.approx(2.0, abs=1e-12)
    # the tiling makes h constant: 2s everywhere
    xs = (np.arange(50) + 0.31) / 50.0
    vals = expected_window_count(base, g, 1.0, xs)
    assert np.max(np.abs(vals - 2.0)) < 1e-12


def test_window_count_far_from_support():
    base = RealSequence([0.5])
    g = ScaleFunction.constant(0.05)
    # x at distance > g + s/N from the only box
    assert expected_window_count(base, g, 0.1, 0.9) == 0.0


def test_window_count_crude_envelope(rng):
    base = RealSequence(rng.random(30) * 5)
    g = ScaleFunction.table(0.02 + 0.1 * rng.random(30))
    s = 0.8
    n = base.n
    xs = (np.arange(200) + 0.5) / 200.0
    h = expected_window_count(base, g, s, xs)
    rho_sup = float(np.max(perturbation_density(base, g, xs))) + 1.0
    gmax = float(np.max(np.asarray(g.eval(np.arange(1, n + 1)))))
    assert np.all(h <= (2 * s + 2 * n * gmax) * rho_sup)


# ---------------------------------------------------------------------------
# expectation integral

def test_expected_pair_tiling_exact():
    base, g = tiling_base()
    value, bound = expected_pair_correlation(base, g, 1.0)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert bound == pytest.approx(1.0 / (20 * 0.1))


def test_expected_pair_linear_in_s_on_tiling():
    base, g = tiling_base()
    v1, _ = expected_pair_correlation(base, g, 0.4)
    v2, _ = expected_pair_correlation(base, g, 0.8)
    assert v2 == pytest.approx(2.0 * v1, abs=1e-12)


def test_expected_pair_integral_vs_quadrature(rng):
    # cross-check the sweep against direct midpoint products on a fine grid
    base = RealSequence(rng.random(25) * 4)
    g = ScaleFunction.table(0.03 + 0.1 * rng.random(25))
    s = 0.7
    value, _ = expected_pair_correlation(base, g, s)
    quad = riemann_h_rho(base, g, s, 100_000)
    assert value == pytest.approx(quad, rel=2e-4)


def test_expectation_identity_monte_carlo(rng):
    # E[pair statistic] = integral(h rho) - self-pair term, with the self term
    # inside [0, s/(N g(N))]; checked against direct simulation
    n = 100
    base = RealSequence(np.sort(rng.random(n)) * 40)
    g = ScaleFunction.constant(0.02)
    s = 1.0
    value, bound = expected_pair_correlation(base, g, s)
    trials = 1500
    vals = np.empty(trials)
    for t in range(trials):
        pert = perturb(base, g, t)
        vals[t] = pair_correlation(frac_reduce(pert), s)
    mc = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert mc <= value + 3 * se                 # self term only lowers it
    assert abs(mc - value) <= 3 * se + bound


def test_expected_pair_tiny_widths_reduce_to_deterministic_counts(rng):
    # with near-zero widths the sequence is effectively unperturbed: the
    # integral equals the deterministic pair count plus exactly one self pair
    # per point, and the analytic bound blows up accordingly
    n = 50
    base = RealSequence(np.sort(rng.random(n)))
    g = ScaleFunction.constant(1e-9)
    s = 1.0
    value, bound = expected_pair_correlation(base, g, s)
    x_det = pair_correlation(frac_reduce(base), s)
    assert value == pytest.approx(x_det + 1.0, abs=1e-6)
    assert bound == pytest.approx(s / (n * 1e-9))


# fixed points computed by an independent exact sweep over the merged 6N
# breakpoints of rho and of the slope of h_s: a lattice with random widths,
# the criterion-06 base (2 alpha) n with widths alpha * beck(1), and
# near-zero widths
def pinned_pair_configs():
    widths = 0.005 + 0.05 * np.random.Generator(np.random.Philox(key=7)).random(64)
    yield (RealSequence(np.arange(64) / 64.0 * 3.0), ScaleFunction.table(widths), 0.75,
           1.569914321755498)
    alpha, n = 1.4142135623730951, 10_000
    beck = np.asarray(ScaleFunction.beck(1.0).eval(np.arange(1, n + 1)))
    yield (arithmetic_sequence(2.0 * alpha, n), ScaleFunction.table(alpha * beck), 1.0,
           2.00014887368713)
    points = np.sort(np.random.Generator(np.random.Philox(key=11)).random(50))
    yield RealSequence(points), ScaleFunction.constant(1e-9), 1.0, 2.7599999893229556


def test_expected_pair_pinned_values():
    for base, g, s, want in pinned_pair_configs():
        assert expected_pair_correlation(base, g, s)[0] == pytest.approx(want, rel=1e-9)


def test_expected_pair_window_validation():
    base, g = tiling_base()
    with pytest.raises(ValueError):
        expected_pair_correlation(base, g, 11.0)   # s/N >= 1/2
    with pytest.raises(ValueError):
        expected_window_count(base, g, 0.0, 0.5)
    with pytest.raises(ValueError):
        density_l2(base, ScaleFunction.table(np.zeros(20)))
