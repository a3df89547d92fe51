import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from modone import (GOLDEN_ALPHA, LIOUVILLE_ALPHA, ScaleFunction, arithmetic_sequence, converse_schedule,
                    convergents, gen_base, gen_converse,
                    gen_theorem1, perturb, power_sequence, van_der_corput)
from modone.generators import schedule_size


# ---------------------------------------------------------------------------
# width families

def test_beck_value_direct_formula():
    # independent evaluation straight from the formula
    expected = math.log(100) * math.log(math.log(100)) ** 2 / 100
    assert ScaleFunction.beck(1.0).eval(100) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.10741, abs=1e-5)


def test_power_log_value_direct_formula():
    expected = math.log(100) ** 0.5 / 100
    assert ScaleFunction.power_log(0.5).eval(100) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.021460, abs=1e-6)


def test_constant_family():
    assert ScaleFunction.constant(0.1).eval(7) == 0.1
    # the hard width cap applies to every family
    assert ScaleFunction.constant(0.7).eval(3) == 0.45


def test_clamp_below_n_min():
    g = ScaleFunction.beck(1.0)
    assert g.eval(3) == g.eval(16)
    assert g.eval(15) == g.eval(16)
    # real arguments clamp the same way, and past the clamp follow the formula
    assert g.eval(15.5) == g.eval(16)
    reals = np.array([1.0, 2.5, 15.5, 16.0, 100.25])
    ln = np.log(100.25)
    assert_allclose(g.eval(reals), [g.eval(16)] * 4 + [ln * np.log(ln) ** 2 / 100.25],
                    rtol=1e-15)


def test_width_cap_binds_for_degenerate_parameters():
    g = ScaleFunction.power_log(4.0)
    # (log 16)^4 / 16 = 3.69... would exceed the cap
    assert g.eval(16) == 0.45


def test_table_family_and_range_error():
    g = ScaleFunction.table([0.1, 0.2, 0.3])
    assert g.eval(2) == 0.2
    assert_allclose(g.eval(np.array([1, 3])), [0.1, 0.3])
    # real arguments round half to even to the nearest index
    assert g.eval(2.4) == 0.2
    assert g.eval(2.5) == 0.2
    assert g.eval(2.6) == 0.3
    assert_array_equal(g.eval(np.array([1.4, 3.4])), [0.1, 0.3])
    with pytest.raises(ValueError):
        g.eval(4)
    with pytest.raises(ValueError):
        g.eval(3.5)    # beyond the table only once rounded to 4
    # the table keeps a read-only copy of its widths
    with pytest.raises(ValueError):
        g.values[0] = 0.4
    src = np.array([0.1, 0.2, 0.3])
    h = ScaleFunction.table(src)
    src[:] = 0.4
    assert_array_equal(h.eval(np.array([1, 2, 3])), [0.1, 0.2, 0.3])
    for bad in (0.5, np.array(0.5), [[0.1]], np.zeros((2, 2))):
        with pytest.raises(ValueError, match="table widths must be numbers"):
            ScaleFunction.table(bad)


def test_families_monotone_non_increasing_in_tail():
    # beck(c) wobbles upward just past the clamp index (peak near n=18 for
    # c=1); from n=48 on, every family used here is non-increasing
    ns = np.arange(48, 5000)
    for g in (ScaleFunction.beck(1.0), ScaleFunction.beck(2.0),
              ScaleFunction.power_log(0.5), ScaleFunction.constant(0.2)):
        vals = np.asarray(g.eval(ns))
        assert np.all(np.diff(vals) <= 1e-15)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        ScaleFunction.beck(0.0)
    with pytest.raises(ValueError):
        ScaleFunction.power_log(-1.0)
    with pytest.raises(ValueError):
        ScaleFunction.constant(-0.1)
    with pytest.raises(ValueError):
        ScaleFunction.beck(1.0).eval(0)


# ---------------------------------------------------------------------------
# base sequences

def test_gen_base_arithmetic():
    assert_allclose(gen_base("arithmetic", 3, alpha=0.5).values, [0.5, 1.0, 1.5])


def test_gen_base_power_identity():
    assert_allclose(gen_base("power", 3, theta=1.0).values, [1, 2, 3])


def test_van_der_corput_hand_values():
    # radical inverse in base 2, by bit reversal: 1->0.1, 2->0.01, 3->0.11, 4->0.001
    assert_array_equal(van_der_corput(2, 4).values, [0.5, 0.25, 0.75, 0.125])
    v3 = van_der_corput(3, 3).values
    assert_allclose(v3, [1 / 3, 2 / 3, 1 / 9])


def _radical_inverse(i: int, base: int) -> Fraction:
    x, place = Fraction(0), Fraction(1)
    while i:
        i, digit = divmod(i, base)
        place /= base
        x += digit * place
    return x


@pytest.mark.parametrize("base", [2, 3, 5, 7])
def test_van_der_corput_is_correctly_rounded(base):
    want = [float(_radical_inverse(i, base)) for i in range(1, 501)]
    assert van_der_corput(base, 500).values.tolist() == want


def test_gen_base_validation():
    with pytest.raises(ValueError):
        gen_base("arithmetic", 3, alpha=0.0)
    with pytest.raises(ValueError):
        power_sequence(0.0, 3)
    with pytest.raises(ValueError):
        van_der_corput(1, 3)
    with pytest.raises(ValueError):
        arithmetic_sequence(1.0, 0)
    with pytest.raises(ValueError):
        gen_base("unknown", 3)


# ---------------------------------------------------------------------------
# perturbation

def test_perturb_zero_width_table_is_identity():
    base = arithmetic_sequence(2.0, 10)
    assert_array_equal(perturb(base, ScaleFunction.table(np.zeros(10)), 5).values,
                       base.values)


def test_perturb_support_bound_exhaustive():
    n = 500
    base = arithmetic_sequence(2.0, n)
    g = ScaleFunction.beck(1.0)
    out = perturb(base, g, 11).values
    bound = np.asarray(g.eval(np.arange(1, n + 1)))
    assert np.all(np.abs(out - base.values) <= bound)


def test_perturb_bitwise_determinism():
    base = arithmetic_sequence(2.0, 10)
    g = ScaleFunction.beck(1.0)
    a = perturb(base, g, 42).values
    b = perturb(base, g, 42).values
    assert_array_equal(a, b)


def test_perturb_prefix_consistency():
    # z_n depends on (seed, n) only: the length-10 stream is a prefix of the
    # length-1000 stream
    g = ScaleFunction.constant(0.2)
    z10 = perturb(arithmetic_sequence(1.0, 10), g, 9).values - np.arange(1, 11)
    z1000 = perturb(arithmetic_sequence(1.0, 1000), g, 9).values - np.arange(1, 1001)
    assert_array_equal(z10, z1000[:10])


def test_different_seeds_differ():
    base = arithmetic_sequence(2.0, 50)
    g = ScaleFunction.constant(0.2)
    a = perturb(base, g, 1).values
    b = perturb(base, g, 2).values
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the two constructions

@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_theorem1_well_spaced_every_seed(seed):
    seq = gen_theorem1(1.0, 400, seed)
    assert seq.is_well_spaced()
    assert np.all(np.diff(seq.values) >= 1.0)


def test_theorem1_zero_width_override():
    seq = gen_theorem1(1.0, 5, 3, scale=ScaleFunction.table(np.zeros(5)))
    assert_array_equal(seq.values, [2, 4, 6, 8, 10])


def test_converse_support_and_overrides():
    n = 300
    seq = gen_converse(0.5, n, 17)
    dev = np.abs(seq.values - np.arange(1, n + 1))
    bound = np.asarray(ScaleFunction.power_log(0.5).eval(np.arange(1, n + 1)))
    assert np.all(dev <= bound)
    ident = gen_converse(0.5, 4, 17, scale=ScaleFunction.table(np.zeros(4)))
    assert_array_equal(ident.values, [1, 2, 3, 4])
    assert_array_equal(gen_converse(0.5, 50, 4).values, gen_converse(0.5, 50, 4).values)
    with pytest.raises(ValueError):
        gen_converse(0.0, 10, 1)
    with pytest.raises(ValueError):
        gen_converse(0.6, 10, 1)


# ---------------------------------------------------------------------------
# continued fractions

def test_convergents_of_three_tenths():
    cv = [(c.p, c.q) for c in convergents(0.3, 10)]
    assert cv == [(0, 1), (1, 3), (3, 10)]
    # integers, negatives and near-integers take the same first quotient step
    for alpha, want in [(2.0, [(2, 1)]),
                        (-0.3, [(-1, 1), (0, 1), (-1, 3), (-3, 10)]),
                        (1 / 3, [(0, 1), (1, 3)]),
                        (1 - 1e-13, [(1, 1)])]:
        assert [(c.p, c.q) for c in convergents(alpha, 100)] == want, alpha


def test_convergents_golden_are_fibonacci():
    cv = convergents(GOLDEN_ALPHA, 1000)
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]
    assert [c.q for c in cv] == fib
    assert [c.p for c in cv] == fib[1:] + [1597]


def test_convergents_quality_and_coprimality():
    for alpha in (GOLDEN_ALPHA, LIOUVILLE_ALPHA, math.pi):
        cv = convergents(alpha, 10**5)
        for c in cv[1:]:
            assert abs(alpha - c.p / c.q) < 1.0 / c.q**2
            assert math.gcd(c.p, c.q) == 1
        errs = [c.error for c in cv]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_convergents_validation():
    with pytest.raises(ValueError):
        convergents(0.5, 0)


# ---------------------------------------------------------------------------
# evaluation schedule

def test_schedule_size_hand_values():
    # floor(q sqrt(log q) (log log q)^(1/3)) at q = 100 and q = 16
    assert schedule_size(100) == 247
    assert schedule_size(100) == math.floor(
        100 * math.sqrt(math.log(100)) * math.log(math.log(100)) ** (1 / 3))
    assert schedule_size(16) == 26
    with pytest.raises(ValueError):
        schedule_size(15)


def test_schedule_monotone_in_q():
    sizes = [schedule_size(q) for q in range(16, 4000, 13)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_converse_schedule_default_alpha():
    sch = converse_schedule(LIOUVILLE_ALPHA, 2)
    assert sch.complete
    assert sch.q_values == (22661, 670226)
    assert sch.n_values == (schedule_size(22661), schedule_size(670226))
    assert sch.n_values[0] < sch.n_values[1]


def test_converse_schedule_incomplete_flag():
    # 0.5 = 1/2 has no convergents with q >= 16
    sch = converse_schedule(0.5, 2, q_max=1000)
    assert not sch.complete
    assert sch.n_values == ()
    with pytest.raises(ValueError):
        converse_schedule(GOLDEN_ALPHA, 0)


def test_default_alpha_convergents_meet_quality_bound():
    # the two schedule denominators satisfy |a - p/q| <= 1/(q^2 log q loglog q)
    cv = {c.q: c for c in convergents(LIOUVILLE_ALPHA, 10**6)}
    for q in (22661, 670226):
        err = cv[q].error
        assert err <= 1.0 / (q**2 * math.log(q) * math.log(math.log(q)))
