import math
import os
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from speechssl.numerics import (
    FlatArrays,
    derive_seed,
    erf,
    gelu_backward,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward,
    log_sigmoid,
    one_hot,
    retain_freed_memory,
    sigmoid,
    softmax,
    softmax_backward,
)


def ulps(got, want):
    """|got - want| in units of the last place of the larger magnitude."""
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))


# a dense grid over erf's whole range and beyond, seeded draws at the scale
# of GELU inputs and the points around +-1, where erf switches forms; none
# is 0, where an ulp is subnormal
_ONE = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
ERF_POINTS = np.concatenate([np.linspace(-7.0, 7.0, 200_002),
                             np.random.default_rng(0).standard_normal(10**5) * 2.5,
                             _ONE, -_ONE])


class TestDeriveSeed:
    def test_stable_values(self):
        # pinned: derived seeds are part of the reproducibility contract
        assert derive_seed(0, "batch", 1) == derive_seed(0, "batch", 1)
        assert derive_seed(0, "batch", 1) != derive_seed(0, "batch", 2)
        assert derive_seed(1, 2) != derive_seed(12,)
        assert 0 <= derive_seed("x") < 2**63

    def test_order_sensitive(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")


class TestSoftmax:
    def test_translation_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_huge_logits_stable(self):
        x = np.array([[1e4, 0.0]])
        out = softmax(x)
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) < 1e-12

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 5))
        w = rng.standard_normal((2, 5))

        def f(z):
            return float(np.sum(w * softmax(z)))

        probs = softmax(x)
        grad = softmax_backward(probs, w)
        h = 1e-6
        for idx in np.ndindex(x.shape):
            x[idx] += h
            up = f(x)
            x[idx] -= 2 * h
            down = f(x)
            x[idx] += h
            assert abs(grad[idx] - (up - down) / (2 * h)) < 1e-7


class TestLogSigmoid:
    def test_extreme_negative_stable(self):
        assert np.isfinite(log_sigmoid(-1000.0))
        assert abs(log_sigmoid(-1000.0) + 1000.0) < 1e-9

    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-20, 20, 41)
        naive = np.log(1.0 / (1.0 + np.exp(-x)))
        assert np.max(np.abs(log_sigmoid(x) - naive)) < 1e-12

    def test_within_4_ulp_of_scipy_log_expit(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 80_001),
                            np.random.default_rng(0).standard_normal(10**5) * 10.0])
        assert ulps(log_sigmoid(x), scipy.special.log_expit(x)).max() <= 4

    def test_minus_ln2_at_zero(self):
        assert ulps(log_sigmoid(np.array([0.0])), -math.log(2.0))[0] <= 1

    def test_extremes_are_finite_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log_sigmoid(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()
        assert out[0] == -1000.0 and out[1] == 0.0


class TestSigmoid:
    def test_within_4_ulp_of_scipy_expit(self):
        x = np.linspace(-40.0, 40.0, 80_001)
        assert ulps(sigmoid(x), scipy.special.expit(x)).max() <= 4

    def test_extremes_are_finite_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.array_equal(out, [0.0, 1.0])


class TestErf:
    def test_within_1_ulp_of_scipy(self):
        assert ulps(erf(ERF_POINTS), scipy.special.erf(ERF_POINTS)).max() <= 1

    def test_within_4_ulp_of_the_stdlib(self):
        stdlib = np.array([math.erf(v) for v in ERF_POINTS])
        assert ulps(erf(ERF_POINTS), stdlib).max() <= 4

    def test_odd_exactly(self):
        assert np.array_equal(erf(-ERF_POINTS), -erf(ERF_POINTS))

    def test_non_decreasing(self):
        grid = ERF_POINTS[:200_002]
        assert np.all(np.diff(erf(grid)) >= 0.0)

    @pytest.mark.parametrize("x, want", [
        (0.0, 0.0), (-0.0, -0.0), (np.inf, 1.0), (-np.inf, -1.0),
        (6.0, 1.0), (-6.0, -1.0), (6.5, 1.0), (1e300, 1.0), (-1e300, -1.0),
    ])
    def test_special_values(self, x, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = erf(np.array([x]))[0]
        assert got == want and np.signbit(got) == np.signbit(want)

    def test_nan_propagates(self):
        out = erf(np.array([1.0, np.nan, -2.0]))
        assert np.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()

    def test_any_shape_or_stride(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(4, 6).T     # both forms, not contiguous
        assert np.array_equal(erf(x), erf(x.ravel()).reshape(6, 4))
        assert erf(np.float64(2.0)) == erf(np.array([2.0]))[0] == scipy.special.erf(2.0)


class TestLayerNorm:
    def test_normalizes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 8)) * 3 + 2
        y, _ = layer_norm_forward(x, np.ones(8), np.zeros(8))
        assert np.max(np.abs(y.mean(axis=-1))) < 1e-12
        assert np.max(np.abs(y.std(axis=-1) - 1.0)) < 1e-3

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6))
        gain = rng.standard_normal(6)
        bias = rng.standard_normal(6)
        w = rng.standard_normal((3, 6))

        def f(z, g, b):
            out, _ = layer_norm_forward(z, g, b)
            return float(np.sum(w * out))

        _, cache = layer_norm_forward(x, gain, bias)
        dx, dgain, dbias = layer_norm_backward(cache, w)
        h = 1e-6
        for arr, grad, name in ((x, dx, "x"), (gain, dgain, "gain"), (bias, dbias, "bias")):
            flat = arr.reshape(-1)
            for c in range(flat.size):
                orig = flat[c]
                flat[c] = orig + h
                up = f(x, gain, bias)
                flat[c] = orig - h
                down = f(x, gain, bias)
                flat[c] = orig
                fd = (up - down) / (2 * h)
                assert abs(grad.reshape(-1)[c] - fd) < 1e-6, name


class TestGelu:
    def test_known_values(self):
        assert gelu_forward(np.array([0.0]))[0][0] == 0.0
        # gelu(x) -> x for large x, -> 0 for very negative x
        assert abs(gelu_forward(np.array([10.0]))[0][0] - 10.0) < 1e-12
        assert abs(gelu_forward(np.array([-10.0]))[0][0]) < 1e-12

    def test_backward_matches_finite_differences(self):
        x = np.linspace(-3, 3, 25)
        _, cache = gelu_forward(x)
        grad = gelu_backward(cache, np.ones_like(x))
        h = 1e-6
        fd = (gelu_forward(x + h)[0] - gelu_forward(x - h)[0]) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-9


class TestLinear:
    def test_backward_shapes_and_values(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 4))
        dy = rng.standard_normal((5, 4))
        dx, dw, db = linear_backward(x, w, dy)
        assert np.allclose(dx, dy @ w.T)
        assert np.allclose(dw, x.T @ dy)
        assert np.allclose(db, dy.sum(axis=0))


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([[0, 2]]), 3)
        assert out.shape == (1, 2, 3)
        assert out[0, 0].tolist() == [1.0, 0.0, 0.0]
        assert out[0, 1].tolist() == [0.0, 0.0, 1.0]


class TestFlatArrays:
    def test_views_in_sorted_key_order(self):
        flat = FlatArrays({"b": (2, 2), "a": (3,), "c": ()})
        assert flat.flat.shape == (8,)
        flat["a"][...] = [1, 2, 3]
        flat["b"][...] = [[4, 5], [6, 7]]
        flat["c"][...] = 8
        assert flat.flat.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
        flat.flat *= 2
        assert flat["b"].tolist() == [[8, 10], [12, 14]]

    def test_copy_of(self):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([-1.0])}
        flat = FlatArrays.copy_of(arrays)
        assert sorted(flat) == ["b", "w"]
        assert flat.flat.tolist() == [-1.0, 0, 1, 2, 3, 4, 5]
        arrays["w"][0, 0] = 99.0
        assert flat["w"][0, 0] == 0.0


def test_retain_freed_memory_takes_on_glibc_only():
    try:
        glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        glibc = False
    assert retain_freed_memory() is glibc
    assert retain_freed_memory() is glibc         # setting it again is harmless
