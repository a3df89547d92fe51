import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from modone import (GeneratorConfig, RealSequence, ScaleFunction, derive_trial,
                    density_l2, expected_pair_correlation, expected_pair_mean,
                    expected_window_count, frac_reduce, pair_correlation, perturb,
                    perturbation_density, sweep_density_integrals)
from modone import density as density_module
from modone.generators import LIOUVILLE_ALPHA
from modone.seqcore import frac_part

from oracles import (brute_density, brute_window_count, pair_mean_oracle,
                     riemann_density_l2, riemann_h_rho)


def in_blocks_of_seven(fn, *args):
    """fn(*args) with the integrals over segments cut into blocks of 7."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density_module, "_SEGMENTS", 7)
        return fn(*args)


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
    # one arc ends where the next starts: both hold 0.375, and neither
    # neighbouring segment has that level
    base = RealSequence([0.25, 0.5])
    xs = np.array([0.375, 0.125, 0.625, 0.3751, 0.1249, 0.6251])
    assert_array_equal(perturbation_density(base, g, xs), [4, 2, 2, 2, 0, 0])


# the arc ends of test_density_arcs_are_closed_at_dyadic_edges, both signs of
# 0, and a few more: drawn from so few values, most ends fall in runs of ties
TIED_ENDS = [0.375, 0.625, 0.9375, 0.1875, 0.125, 0.0, -0.0, 0.5, 0.3749, 1e-300]


@given(st.lists(st.sampled_from(TIED_ENDS), min_size=1, max_size=200))
@settings(max_examples=150, deadline=None)
def test_level_table_order_is_the_stable_argsort(ends):
    pos = np.array(ends)
    edges = np.empty(pos.size)
    stable = np.argsort(pos, kind="stable")
    assert_array_equal(density_module._sorted_order(pos, edges), stable)
    assert edges.tobytes() == pos[stable].tobytes()


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
    # the running sums are whole-array passes, so the block size moves no bit
    assert_array_equal(in_blocks_of_seven(perturbation_density, base, g, xs), rho)
    assert_array_equal(in_blocks_of_seven(expected_window_count, base, g, s, xs), h)


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
    yield (*GeneratorConfig(kind="theorem1", c=1.0).model(10_000, 1.4142135623730951), 1.0,
           2.00014887368713)
    points = np.sort(np.random.Generator(np.random.Philox(key=11)).random(50))
    yield RealSequence(points), ScaleFunction.constant(1e-9), 1.0, 2.7599999893229556


def test_expected_pair_pinned_values():
    for base, g, s, want in pinned_pair_configs():
        assert expected_pair_correlation(base, g, s)[0] == pytest.approx(want, rel=1e-9)


# float.hex of every public density output on two configurations: the
# criterion-06 model at N = 10^4, and four arcs of which three wrap through 0.
# Queries are arc ends, exactly as the library reduces them, and two more
# points. Per configuration: rho and h_s at the queries, the sweep integrals,
# density_l2, the pair integral and its bound, and the pair mean. A change
# that reorders any sum moves these bits
PINNED_BITS = [
    [
        ["0x1.fff4d6b370847p-1", "0x1.ff2668f5e7ec8p-1", "0x1.00a7d3f0d1000p+0",
         "0x1.032a273a2ceb6p+0", "0x1.0226c3c39b31bp+0", "0x1.013897d7908eap+0",
         "0x1.0112f8fd50117p+0", "0x1.0147e323b73a4p+0"],
        ["0x1.ff6abf3a65000p+0", "0x1.0072e39731800p+1", "0x1.fe99375ee0c00p+0",
         "0x1.02dd4ca791000p+1", "0x1.019fa60a16000p+1", "0x1.00ab094aa1a00p+1",
         "0x1.0112f8fd4fc00p+1", "0x1.01c5180ea0800p+1"],
        ["0x1.ffffffffffffep-1", "0x1.0007f69d9ab45p+0"],
        ["0x1.0007f69d9ab45p+0"],
        ["0x1.00071ee4a3b62p+1", "0x1.de7b3b4d2745ap-7"],
        ["0x1.fdf46d7e3563cp+0"],
    ],
    [
        ["0x1.6800000000000p+2", "0x1.9000000000000p+1", "0x1.4000000000000p-1",
         "0x1.e7b13b13b13b1p+3", "0x1.4000000000000p+1", "0x1.6800000000000p+2",
         "0x1.4000000000000p-1", "0x1.e7b13b13b13b1p+3", "0x1.e7b13b13b13b1p+3",
         "0x1.4000000000000p-1"],
        ["0x1.7fffffffffffcp+1", "0x1.6ccccccccccc8p+1", "0x1.4000000000000p-2",
         "0x1.7fffffffffffcp+1", "0x1.67ffffffffff8p+1", "0x1.7fffffffffffcp+1",
         "0x1.4000000000000p-2", "0x1.7fffffffffffcp+1", "0x1.7fffffffffffcp+1",
         "0x1.2ccccccccccc8p-1"],
        ["0x1.ffffffffffffap-1", "0x1.d9d89d89d89c6p+2"],
        ["0x1.d9d89d89d89c6p+2"],
        ["0x1.2ff9999999993p+1", "0x1.33b13b13b13b1p+3"],
        ["0x1.7e33333333326p+0"],
    ],
]


def bit_pinned_configs():
    _, alpha = derive_trial(666, 0, ("uniform", 1.0, 2.0))
    base, g = GeneratorConfig(kind="theorem1", c=1.0).model(10_000, alpha)
    picks = [0, 4999, 9999]
    widths = np.asarray(g.eval(np.arange(1, 10_001)))
    yield base, g, 1.0, base.values[picks], widths[picks], [0.25, 0.7071]
    c, w = np.array([0.02, 0.97, 2.51, -0.004]), np.array([0.05, 0.04, 0.2, 0.013])
    yield RealSequence(c), ScaleFunction.table(w), 0.5, c, w, [0.0, 0.6]


def density_outputs(base, g, s, xs):
    return [perturbation_density(base, g, xs), expected_window_count(base, g, s, xs),
            sweep_density_integrals(base, g), [density_l2(base, g)],
            expected_pair_correlation(base, g, s), [expected_pair_mean(base, g, s)]]


def test_density_outputs_pinned_bitwise():
    for (base, g, s, c, w, more), want in zip(bit_pinned_configs(), PINNED_BITS, strict=True):
        xs = np.concatenate([frac_part(c) - w, frac_part(c) + w, more])
        got = density_outputs(base, g, s, xs)
        assert [[float(v).hex() for v in out] for out in got] == want


def test_density_outputs_over_blocks_of_seven_segments():
    # rho and h_s read levels and running integrals built by whole-array
    # passes, so they keep every bit; the integrals add per block in another order
    for base, g, s, c, w, more in bit_pinned_configs():
        xs = np.concatenate([frac_part(c) - w, frac_part(c) + w, more])
        whole = density_outputs(base, g, s, xs)
        blocked = in_blocks_of_seven(density_outputs, base, g, s, xs)
        assert_array_equal(blocked[0], whole[0])
        assert_array_equal(blocked[1], whole[1])
        for got, want in zip(blocked[2:], whole[2:]):
            assert_allclose(got, want, rtol=1e-12, atol=0)


def test_expected_pair_mean_matches_closed_form_oracle(rng):
    # widths on both sides of w/2 = s/(2N), so both branches of the self term run
    for n in (1, 2, 3, 5, 8):
        for _ in range(4):
            base = RealSequence(rng.random(n) * 3)
            widths = np.exp(rng.uniform(np.log(1e-3), np.log(0.3), n))
            s = rng.uniform(0.05, 0.5 * n * (1 - 2 * widths.max()))
            want = pair_mean_oracle(base.values, widths, s)
            got = expected_pair_mean(base, ScaleFunction.table(widths), s)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (n, s)
            blocked = in_blocks_of_seven(expected_pair_mean, base, ScaleFunction.table(widths), s)
            assert blocked == pytest.approx(got, rel=1e-12, abs=1e-15), (n, s)


def test_expected_pair_mean_refuses_the_wrap():
    base = RealSequence([0.1, 0.6])
    with pytest.raises(ValueError, match=r"^window s/N = 0\.25 exceeds 1 - 2 g\(n\) = 0\.2, "):
        expected_pair_mean(base, ScaleFunction.constant(0.4), 0.5)
    assert expected_pair_mean(base, ScaleFunction.constant(0.4), 0.3) == pytest.approx(
        pair_mean_oracle(base.values, [0.4, 0.4], 0.3), rel=1e-9)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                               np.array([0.2, math.nan]), np.array([0.5, -math.inf])])
def test_density_queries_must_be_finite(x):
    base, g = RealSequence([0.01, 0.5]), ScaleFunction.constant(0.05)
    with pytest.raises(ValueError, match="^density query points must be finite$"):
        perturbation_density(base, g, x)
    with pytest.raises(ValueError, match="^density query points must be finite$"):
        expected_window_count(base, g, 0.01, x)


def test_expected_pair_window_validation():
    base, g = tiling_base()
    with pytest.raises(ValueError):
        expected_pair_correlation(base, g, 11.0)   # s/N >= 1/2
    with pytest.raises(ValueError):
        expected_window_count(base, g, 0.0, 0.5)
    with pytest.raises(ValueError):
        density_l2(base, ScaleFunction.table(np.zeros(20)))


def test_expected_pair_mean_at_the_counterexample_size():
    # the converse model at the largest N of criterion 08's schedule: one
    # table of 6.7 million segments, integrated in 206 blocks
    base, g = GeneratorConfig(kind="converse", c=0.5).model(3_374_011, LIOUVILLE_ALPHA)
    assert expected_pair_mean(base, g, 1.0) == pytest.approx(2.812719924676055, rel=1e-12)


def _density_calls(n: int) -> dict:
    """Each public density call on the theorem1 model at N = n, and the model,
    as (budget in bytes per point, call)."""
    config = GeneratorConfig(kind="theorem1", c=1.0)
    base, g = config.model(n, 1.4142135623730951)
    xs = np.random.Generator(np.random.Philox(key=5)).random(1000)
    return {"model": (26, config.model, n, 1.4142135623730951),
            "perturbation_density": (64, perturbation_density, base, g, xs),
            "expected_window_count": (64, expected_window_count, base, g, 1.0, xs),
            "sweep_density_integrals": (64, sweep_density_integrals, base, g),
            "density_l2": (64, density_l2, base, g),
            "expected_pair_correlation": (64, expected_pair_correlation, base, g, 1.0),
            "expected_pair_mean": (64, expected_pair_mean, base, g, 1.0)}


def test_density_working_sets_stay_within_budget(traced_peak):
    # bytes per point above the model, output included; the 4 MB covers the
    # fixed blocks of segments. Only the edges, levels and running integral
    # (48 B/point) and the widths or the sorted arc ends are N-sized
    n = 2**20
    calls = _density_calls(n)
    peaks = {name: traced_peak(*call) for name, (_, *call) in calls.items()}
    over = {name: peaks[name] / n for name, (budget, *_) in calls.items()
            if peaks[name] > budget * n + 4e6}
    assert not over, f"bytes per point over budget: {over}"
    small = _density_calls(2**18)
    grown = {name: (peaks[name] - traced_peak(*small[name][1:])) / (n - 2**18)
             for name in calls}
    over = {name: b for name, b in grown.items() if b >= calls[name][0]}
    assert not over, f"bytes per point gained from 2**18 to 2**20: {grown}"
