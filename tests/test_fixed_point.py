import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpboost.fixed_point import (
    FRAC_BITS,
    dequantize,
    exact_count,
    grad_hess,
    margin_probability,
    quantize,
    sigmoid,
)
from reference import masked_sigmoid, mp_grad_hess

SCALE = 1 << FRAC_BITS


def test_quantize_known_values():
    assert quantize(0.0) == 0
    assert quantize(1.0) == SCALE
    assert quantize(-0.5) == -8388608
    assert quantize(0.25) == SCALE // 4


def test_quantize_ties_to_even():
    # at 2 fractional bits the grid step is 0.25; halfway points pick even raws
    assert quantize(0.125, 2) == 0
    assert quantize(0.375, 2) == 2
    assert quantize(-0.125, 2) == 0
    assert quantize(-0.375, 2) == -2


def test_quantize_array_matches_scalar(rng):
    xs = rng.normal(scale=3.0, size=1000)
    vec = quantize(xs)
    for x, r in zip(xs, vec):
        assert quantize(float(x)) == r


@given(st.floats(min_value=-100.0, max_value=100.0))
def test_quantize_halfstep_bound(x):
    assert abs(dequantize(quantize(x)) - x) <= 0.5 / SCALE


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    arr = sigmoid(np.array([-2.0, 0.0, 2.0]))
    assert arr[0] == pytest.approx(1.0 - arr[2], abs=1e-15)
    assert np.all(np.diff(arr) > 0)


def test_grad_hess_at_zero_margin():
    scores = np.zeros(4, dtype=np.int64)
    labels = np.array([0, 1, 0, 1])
    grads, hess = grad_hess(margin_probability(scores), labels)
    assert list(grads) == [SCALE // 2, -(SCALE // 2), SCALE // 2, -(SCALE // 2)]
    assert list(hess) == [SCALE // 4] * 4


def test_hessian_floor_at_saturation():
    scores = np.array([50 * SCALE, -50 * SCALE], dtype=np.int64)
    grads, hess = grad_hess(margin_probability(scores), np.array([1, 0]))
    assert list(grads) == [0, 0]
    assert list(hess) == [1, 1]


def test_grad_hess_against_arbitrary_precision(rng):
    raws = rng.integers(-12 * SCALE, 12 * SCALE, size=500, dtype=np.int64)
    labels = rng.integers(0, 2, size=500)
    grads, hess = grad_hess(margin_probability(raws), labels)
    for raw, y, g, h in zip(raws, labels, grads, hess):
        eg, eh = mp_grad_hess(int(raw), int(y), FRAC_BITS)
        assert g == eg
        assert h == eh


@settings(max_examples=200)
@given(st.integers(min_value=-(1 << 40), max_value=1 << 40), st.integers(0, 1))
def test_grad_bounds(raw, label):
    g, h = grad_hess(margin_probability(np.array([raw], dtype=np.int64)), np.array([label]))
    assert abs(int(g[0])) <= SCALE
    assert 1 <= int(h[0]) <= SCALE // 4


_INT64_MIN = -(1 << 63)
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
            700.5, -700.5, 745.2, -745.2, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                 st.floats(-800.0, 800.0),
                                 st.sampled_from(_SPECIAL)), max_size=40),
       nan_bits=st.lists(st.integers(1, (1 << 52) - 1), max_size=3), negative=st.booleans())
@example(values=_SPECIAL, nan_bits=[1, 1 << 51, (1 << 52) - 1], negative=True)
@example(values=_SPECIAL, nan_bits=[0x123], negative=False)
def test_sigmoid_is_bit_equal_to_the_masked_reference(values, nan_bits, negative):
    # NaNs of any sign and payload, quiet or signalling, among the values
    sign = (1 << 63) if negative else 0
    nans = np.array([sign | (0x7FF << 52) | b for b in nan_bits], dtype=np.uint64)
    x = np.concatenate([np.array(values, dtype=np.float64), nans.view(np.float64)])
    got, want = sigmoid(x), masked_sigmoid(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for v, w in zip(x.tolist(), want.tolist()):
        s = sigmoid(v)
        assert type(s) is float
        assert np.float64(s).view(np.int64) == np.float64(w).view(np.int64)


def test_exact_count_is_the_largest_count_below_2_to_53():
    for frac_bits in range(1, 49):
        m = exact_count(frac_bits)
        assert m << frac_bits < 1 << 53 <= (m + 1) << frac_bits


@pytest.mark.parametrize("frac_bits", [1, 24, 48])
def test_quantize_accepts_the_whole_int64_range(frac_bits):
    one = float(1 << frac_bits)
    assert quantize(-(2.0 ** 63) / one, frac_bits) == _INT64_MIN
    top = np.nextafter(2.0 ** 63, 0.0)        # the largest double below 2**63
    assert quantize(top / one, frac_bits) == int(top)
    assert quantize(np.array([-(2.0 ** 63), top]) / one, frac_bits).tolist() == [_INT64_MIN,
                                                                                int(top)]
    assert quantize(np.zeros(0), frac_bits).dtype == np.int64


@pytest.mark.parametrize("frac_bits", [1, 24, 32, 48])
@pytest.mark.parametrize("bad", [2.0 ** 63, -(2.0 ** 63) * 1.0000000000000002, 1e300,
                                 np.inf, -np.inf, np.nan])
def test_quantize_refuses_what_int64_cannot_hold(frac_bits, bad):
    value = bad / float(1 << frac_bits)
    with pytest.raises(ValueError, match=f"does not fit int64 at frac_bits={frac_bits}"):
        quantize(value, frac_bits)
    # one bad element anywhere refuses the whole array
    with pytest.raises(ValueError, match="does not fit int64"):
        quantize(np.array([0.0, 1.0, value, -1.0]), frac_bits)
