import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from modone import RealSequence, TorusPoints, frac_part, frac_reduce, scale_by_alpha
from modone.seqcore import _BLOCK
from oracles import circle_distance, frac_part_mod

finite_reals = st.floats(allow_nan=False, allow_infinity=False,
                         min_value=-1e9, max_value=1e9)
unit_reals = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def test_frac_reduce_examples():
    assert_allclose(frac_reduce(RealSequence([1.25, 3.5, 2.0])).points,
                    [0.0, 0.25, 0.5])
    assert_allclose(frac_reduce(RealSequence([0.1])).points, [0.1])
    assert_allclose(frac_reduce(RealSequence([-0.25])).points, [0.75])


def test_frac_reduce_keeps_ties():
    pts = frac_reduce(RealSequence([0.5, 1.5, 2.5]))
    assert_array_equal(pts.points, [0.5, 0.5, 0.5])


@given(st.lists(unit_reals, min_size=1, max_size=50))
def test_frac_reduce_idempotent_on_unit_interval(vals):
    once = frac_reduce(RealSequence(vals))
    twice = frac_reduce(RealSequence(once.points))
    assert_array_equal(once.points, twice.points)


@given(st.lists(finite_reals, min_size=1, max_size=50),
       st.integers(min_value=-1000, max_value=1000))
def test_frac_reduce_integer_translation(vals, k):
    # float translation can round a point across the 0/1 wrap, which rotates
    # the sorted order; equality is as circle multisets, up to a cyclic shift
    a = frac_reduce(RealSequence(vals)).points
    b = frac_reduce(RealSequence(np.asarray(vals) + k)).points
    n = a.size
    assert any(
        np.max(circle_distance(a, np.roll(b, -r))) <= 1e-9 for r in range(n)
    )


def test_frac_reduce_output_range():
    pts = frac_reduce(RealSequence([-1e-20, 1 - 1e-18, 123.999999]))
    assert np.all(pts.points >= 0.0)
    assert np.all(pts.points < 1.0)


def test_frac_part_bitwise_equals_mod(rng):
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    x = np.concatenate([x, -x, [0.0, -0.0, -5e-324, 5e-324, 2.0**53 + 2, -2.0**52 - 0.5,
                                -1e-20, 1 - 1e-18, -1.0, 3.0, -(2.0**60)]])
    r = frac_part(x)
    assert_array_equal(r.view(np.uint64), frac_part_mod(x).view(np.uint64))
    assert np.all((r >= 0.0) & (r < 1.0)) and not np.signbit(r).any()


@pytest.mark.parametrize("out", [np.empty(6), np.empty((2, 3), dtype=np.float32),
                                 np.empty((3, 2)).T])
def test_frac_part_refuses_an_out_it_cannot_fill(out):
    # a transposed out would be flattened into a copy, and the result lost
    with pytest.raises(ValueError, match="out must be"):
        frac_part(np.arange(6).reshape(2, 3) + 0.5, out=out)


# negatives, integers, tiny negatives whose fractional part rounds to 1.0,
# and magnitudes up to 2**52, where the last fractional bit is 1/2
REDUCED_VALUES = st.one_of(
    st.floats(min_value=-2.0**52, max_value=2.0**52, allow_nan=False),
    st.integers(min_value=-2**52, max_value=2**52).map(float),
    st.floats(min_value=-2.0**-53, max_value=0.0, exclude_max=True),
    st.sampled_from([0.0, -0.0, -5e-324, 2.0**52 - 0.5, -2.0**52 + 0.5, -0.5, 1 - 2.0**-53]))


def _reduced_in_place(values: np.ndarray, own: bool) -> np.ndarray:
    buf = values.copy()
    pts = frac_reduce(RealSequence(buf), out=buf if own else np.empty(buf.size))
    assert np.shares_memory(pts.points, buf) == own
    return pts.points


@given(st.lists(REDUCED_VALUES, min_size=1, max_size=200), st.booleans())
def test_reduce_in_the_buffer_is_frac_reduce_bitwise(values, own):
    x = np.array(values)
    expected = np.sort(frac_part_mod(x))
    assert_array_equal(frac_reduce(RealSequence(x)).points.view(np.uint64),
                       expected.view(np.uint64))
    assert_array_equal(_reduced_in_place(x, own).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 7])
def test_reduce_in_the_buffer_across_block_edges(rng, n):
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 16, n)
    x[::7] = np.round(x[::7])
    x[3::11] = -(2.0 ** -rng.integers(54, 1000, x[3::11].size))   # rounds to 1.0
    expected = np.sort(frac_part_mod(x)).view(np.uint64)
    for own in (True, False):
        assert_array_equal(_reduced_in_place(x, own).view(np.uint64), expected)


def test_scale_by_alpha():
    assert_allclose(scale_by_alpha(RealSequence([1, 2, 3]), 0.5).values,
                    [0.5, 1.0, 1.5])
    assert_allclose(scale_by_alpha(RealSequence([1, 2]), 1.0).values, [1, 2])
    r2 = np.sqrt(2.0)
    assert_array_equal(scale_by_alpha(RealSequence([2, 4]), r2).values,
                       [2 * r2, 4 * r2])
    with pytest.raises(ValueError):
        scale_by_alpha(RealSequence([1.0]), 0.0)


def test_well_spaced_flag():
    assert RealSequence([2, 4, 6]).is_well_spaced()
    assert RealSequence([2, 3.0, 4.0]).is_well_spaced()
    assert not RealSequence([2, 2.5]).is_well_spaced()
    assert RealSequence([7.0]).is_well_spaced()


def test_torus_points_validation():
    with pytest.raises(ValueError):
        TorusPoints([0.2, 0.1])          # unsorted
    with pytest.raises(ValueError):
        TorusPoints([0.2, 1.0])          # out of range
    with pytest.raises(ValueError):
        TorusPoints([-0.1])
    with pytest.raises(ValueError):
        TorusPoints([])
    with pytest.raises(ValueError):
        RealSequence([])
    with pytest.raises(ValueError, match="one-dimensional"):
        RealSequence(np.ones((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        RealSequence([0.1, bad, 0.3])
    with pytest.raises(ValueError, match="finite"):
        TorusPoints([0.1, 0.3, bad])


@pytest.mark.parametrize("at", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 2])
def test_blocked_checks_name_each_bad_value(at):
    # the checks run a block at a time, so a bad value at a block edge must
    # still be found, and named as the whole-array checks named it
    y = np.linspace(0.25, 0.75, 2 * _BLOCK + 3)
    TorusPoints(y)
    for bad, message in ((np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
                         (y[at - 1] - 1e-7, "sorted ascending")):
        z = y.copy()
        z[at] = bad
        with pytest.raises(ValueError, match=message):
            TorusPoints(z)
        if message == "finite":
            with pytest.raises(ValueError, match=message):
                RealSequence(z)


def test_sequence_prefix():
    seq = RealSequence([1, 2, 3, 4])
    assert_array_equal(seq.prefix(2).values, [1, 2])
    with pytest.raises(ValueError):
        seq.prefix(0)
    with pytest.raises(ValueError):
        seq.prefix(5)
