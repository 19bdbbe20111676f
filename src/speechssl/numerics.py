"""Shared numerical kernels: stable softmax/sigmoid, seeded RNG derivation,
the linear backward, forward/backward pairs for layer norm and GELU, and
the one Adam update; plus FlatArrays, the container the train step keeps its parameters,
moments and gradients in, and retain_freed_memory, the process's one
setting of the C heap.

Everything runs in float64. Backward functions return gradients in the same
shapes as their forward inputs; parameter gradients are returned, never
accumulated in place, so callers control reduction order. The elementwise
kernels work in place on the arrays they create where they can. On batched
activations every such array is large; retain_freed_memory keeps the
memory they free in the C heap, so a warm train step reuses it instead of
taking page faults on fresh pages. scipy.special serves only gelu_forward's
erf and sigmoid's expit and is imported at their first call, so the
commands that never run the encoder or the contrastive loss never load it.
"""

import ctypes
import hashlib
import math
import os

import numpy as np

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


# ---------------------------------------------------------------------------
# Containers


class FlatArrays(dict):
    """Named float64 arrays, zero at first, that are views into one flat
    vector, `flat`, laid out in sorted key order, so an update of the whole
    group is a few vector operations and a checkpoint saves the group as
    `flat` alone. Write into the entries in place: assigning a new array to
    a key would detach it from `flat`."""

    def __init__(self, shapes: dict):
        super().__init__()
        keys = sorted(shapes)
        sizes = [math.prod(shapes[k]) for k in keys]
        self.flat = np.zeros(sum(sizes))
        offset = 0
        for key, size in zip(keys, sizes):
            super().__setitem__(key, self.flat[offset:offset + size].reshape(shapes[key]))
            offset += size

    @classmethod
    def copy_of(cls, arrays: dict) -> "FlatArrays":
        out = cls({k: np.shape(v) for k, v in arrays.items()})
        for key, value in arrays.items():
            out[key][...] = value
        return out


def adam_step(p, m, v, g, t: int, lr: float, b1: float, b2: float, eps: float) -> None:
    """In-place Adam update of parameters `p` and moments `m`, `v` by the
    gradient `g` at step t >= 1. Each element sees the operations of the
    textbook update, in the same order."""
    m *= b1
    a = g * (1 - b1)
    m += a                                              # b1 m + (1 - b1) g
    v *= b2
    np.multiply(g, 1 - b2, out=a)
    a *= g
    v += a                                              # b2 v + (1 - b2) g g
    np.divide(v, 1 - b2**t, out=a)                      # vhat
    np.sqrt(a, out=a)
    a += eps
    b = m / (1 - b1**t)                                 # mhat
    b *= lr
    b /= a                                              # lr mhat / (sqrt(vhat) + eps)
    p -= b


# ---------------------------------------------------------------------------
# The C heap

# glibc mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def retain_freed_memory() -> bool:
    """Keep the memory the process frees for its next arrays (glibc).

    Sets glibc's mmap threshold to 32 MiB, so the train step's arrays come
    from the heap rather than from fresh mappings, and its trim threshold
    to 1 GiB, so freed heap memory is not handed back to the kernel. A warm
    step then reuses the pages the last one freed and takes no page faults.
    Both are needed: setting the trim threshold alone turns off glibc's
    dynamic mmap threshold. Applies to the whole process and changes no
    value. Returns whether both settings took; off glibc it does nothing
    and returns False."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1)


# ---------------------------------------------------------------------------
# Softmax and friends


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stable softmax (max subtraction)."""
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stable log softmax (max subtraction)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient through softmax given its output `probs`."""
    out = dprobs * probs
    inner = np.sum(out, axis=axis, keepdims=True)
    np.subtract(dprobs, inner, out=out)
    out *= probs
    return out


def sigmoid(x):
    from scipy.special import expit
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
    from scipy.special import erf
    cdf = x / SQRT_2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5                          # 0.5 * (1 + erf(x / sqrt 2))
    cache = (x, cdf)
    return gelu_output(cache), cache


def gelu_output(cache):
    """x * cdf from a gelu_forward cache: the forward output, bit-identical,
    for callers that recompute it instead of keeping it."""
    x, cdf = cache
    return x * cdf


def gelu_backward(cache, dy):
    x, cdf = cache
    dx = x * -0.5
    dx *= x
    np.exp(dx, out=dx)
    dx /= SQRT_2PI                      # the normal pdf at x
    dx *= x
    dx += cdf
    dx *= dy                            # dy * (cdf + x * pdf)
    return dx
