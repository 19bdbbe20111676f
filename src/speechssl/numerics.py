"""Shared numerical kernels: stable softmax/sigmoid, seeded RNG derivation,
the linear backward, and forward/backward pairs for layer norm and GELU.

Everything runs in float64. Backward functions return gradients in the same
shapes as their forward inputs; parameter gradients are returned, never
accumulated in place, so callers control reduction order. The elementwise
kernels work in place on one fresh buffer where they can: on batched
activations every temporary is a large allocation, and fresh large
allocations cost page faults.
"""

import hashlib

import numpy as np
from scipy.special import erf, expit

SQRT_2 = np.sqrt(2.0)
SQRT_2PI = np.sqrt(2.0 * np.pi)
LN_EPS = 1e-5


def derive_seed(*parts) -> int:
    """Derive a 63-bit seed from a tuple of ints/strings.

    Stable across platforms and processes (unlike built-in hash()), so any
    randomness keyed on (root_seed, step, index, ...) is reproducible.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF


def rng_from(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stable softmax (max subtraction)."""
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient through softmax given its output `probs`."""
    out = dprobs * probs
    inner = np.sum(out, axis=axis, keepdims=True)
    np.subtract(dprobs, inner, out=out)
    out *= probs
    return out


def sigmoid(x):
    return expit(x)


def log_sigmoid(x):
    """log(sigmoid(x)), stable for large negative x."""
    return -np.logaddexp(0.0, -x)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros(indices.shape + (num_classes,))
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


# ---------------------------------------------------------------------------
# Linear


def linear_backward(x, w, dy):
    """Returns (dx, dw, db) for y = x @ w + b."""
    dx = dy @ w.T
    dw = x.T @ dy
    db = dy.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Layer norm (normalizes the last axis)


def layer_norm_forward(x, gain, bias, eps: float = LN_EPS):
    """Returns (y, cache) where cache feeds layer_norm_backward."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    cache = (xhat, inv, gain)
    return layer_norm_output(cache, bias), cache


def layer_norm_output(cache, bias):
    """gain * xhat + bias from a layer_norm_forward cache: the forward output,
    bit-identical, for callers that recompute it instead of keeping it."""
    xhat, _, gain = cache
    y = gain * xhat
    y += bias
    return y


def layer_norm_backward(cache, dy):
    """Returns (dx, dgain, dbias)."""
    xhat, inv, gain = cache
    rows = tuple(range(dy.ndim - 1))
    scratch = dy * xhat
    dgain = np.sum(scratch, axis=rows)
    dbias = np.sum(dy, axis=rows)
    dx = dy * gain                      # dxhat, turned into dx in place
    m1 = dx.mean(axis=-1, keepdims=True)
    np.multiply(dx, xhat, out=scratch)
    m2 = np.mean(scratch, axis=-1, keepdims=True)
    dx -= m1
    np.multiply(xhat, m2, out=scratch)
    dx -= scratch
    dx *= inv                           # inv * (dxhat - m1 - xhat * m2)
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# GELU (exact erf form; the erf form keeps finite-difference checks tight)


def gelu_forward(x):
    """Returns (y, cache); the cache keeps x and its normal CDF, so that
    gelu_backward needs no second erf."""
    cdf = x / SQRT_2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5                          # 0.5 * (1 + erf(x / sqrt 2))
    return x * cdf, (x, cdf)


def gelu_backward(cache, dy):
    x, cdf = cache
    dx = -0.5 * x
    dx *= x
    np.exp(dx, out=dx)
    dx /= SQRT_2PI                      # the normal pdf at x
    dx *= x
    dx += cdf
    dx *= dy                            # dy * (cdf + x * pdf)
    return dx
