"""Shared numerical kernels: stable softmax/sigmoid, seeded RNG derivation,
the linear backward, and forward/backward pairs for layer norm and GELU.

Everything runs in float64. Backward functions return gradients in the same
shapes as their forward inputs; parameter gradients are returned, never
accumulated in place, so callers control reduction order.
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
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient through softmax given its output `probs`."""
    inner = np.sum(dprobs * probs, axis=axis, keepdims=True)
    return probs * (dprobs - inner)


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
    centered = x - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    return gain * xhat + bias, (xhat, inv, gain)


def layer_norm_backward(cache, dy):
    """Returns (dx, dgain, dbias)."""
    xhat, inv, gain = cache
    dgain = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dbias = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# GELU (exact erf form; the erf form keeps finite-difference checks tight)


def gelu_forward(x):
    return 0.5 * x * (1.0 + erf(x / SQRT_2))


def gelu_backward(x, dy):
    cdf = 0.5 * (1.0 + erf(x / SQRT_2))
    pdf = np.exp(-0.5 * x * x) / SQRT_2PI
    return dy * (cdf + x * pdf)
