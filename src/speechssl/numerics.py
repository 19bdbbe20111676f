"""Shared numerical kernels: stable softmax/sigmoid, seeded RNG derivation,
the linear backward, and forward/backward pairs for layer norm and GELU;
plus the two containers the train step keeps its arrays in, BufferPool and
FlatArrays.

Everything runs in float64. Backward functions return gradients in the same
shapes as their forward inputs; parameter gradients are returned, never
accumulated in place, so callers control reduction order. The elementwise
kernels work in place where they can and take every array they return or
use as scratch from `alloc(shape)`, np.empty by default. Each such buffer
is written whole, so a BufferPool's `empty` in its place changes no value:
on batched activations every temporary is a large allocation, and fresh
large allocations cost page faults.
"""

import hashlib
import math
import sys

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


# ---------------------------------------------------------------------------
# Containers


def _idle_refcount() -> int:
    """What sys.getrefcount reports for a buffer in BufferPool.empty's scan
    when nothing but the pool's list refers to it (the same loop shape)."""
    for buf in [np.empty(0)]:
        return sys.getrefcount(buf)


_IDLE_REFCOUNT = _idle_refcount()


class BufferPool:
    """Float64 buffers kept for reuse across calls, by shape.

    `empty(shape)` hands out a held buffer of that shape that nothing but
    the pool refers to: no live array or view of it exists (a view keeps
    its base alive). Otherwise it allocates a new one and keeps it. A buffer
    that outlives a call, such as a returned view, is therefore never handed
    out twice, and no reset between calls is needed. The pool belongs to
    its caller, who passes `pool.empty` wherever an `alloc` is taken; once
    a call's shapes have all been seen, a repeat allocates nothing.
    """

    def __init__(self):
        self._held: dict[tuple, list] = {}

    def empty(self, shape) -> np.ndarray:
        shape = tuple(shape)
        held = self._held.setdefault(shape, [])
        for buf in held:
            if sys.getrefcount(buf) <= _IDLE_REFCOUNT:
                return buf
        buf = np.empty(shape)
        held.append(buf)
        return buf

    def clear(self) -> None:
        """Let go of every buffer (those in use stay with their users)."""
        self._held.clear()

    def __len__(self) -> int:
        """Number of buffers held."""
        return sum(len(held) for held in self._held.values())

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for held in self._held.values() for buf in held)


class FlatArrays(dict):
    """Named float64 arrays that are views into one flat vector, `flat`,
    laid out in sorted key order (the checkpoint's blob order), so an update
    of the whole group is a few vector operations. Write into the entries in
    place: assigning a new array to a key would detach it from `flat`."""

    def __init__(self, shapes: dict, flat: np.ndarray | None = None):
        super().__init__()
        keys = sorted(shapes)
        sizes = [math.prod(shapes[k]) for k in keys]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
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


# ---------------------------------------------------------------------------
# Softmax and friends


def softmax(x: np.ndarray, axis: int = -1, alloc=np.empty) -> np.ndarray:
    """Row-stable softmax (max subtraction)."""
    e = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=alloc(x.shape))
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray, axis: int = -1,
                     alloc=np.empty) -> np.ndarray:
    """Gradient through softmax given its output `probs`."""
    out = np.multiply(dprobs, probs, out=alloc(probs.shape))
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


def linear_backward(x, w, dy, alloc=np.empty):
    """Returns (dx, dw, db) for y = x @ w + b."""
    dx = np.matmul(dy, w.T, out=alloc((dy.shape[0], w.shape[0])))
    dw = np.matmul(x.T, dy, out=alloc(w.shape))
    db = dy.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Layer norm (normalizes the last axis)


def layer_norm_forward(x, gain, bias, eps: float = LN_EPS, alloc=np.empty):
    """Returns (y, cache) where cache feeds layer_norm_backward."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu, out=alloc(x.shape))
    var = np.mean(np.multiply(xhat, xhat, out=alloc(x.shape)), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    cache = (xhat, inv, gain)
    return layer_norm_output(cache, bias, alloc), cache


def layer_norm_output(cache, bias, alloc=np.empty):
    """gain * xhat + bias from a layer_norm_forward cache: the forward output,
    bit-identical, for callers that recompute it instead of keeping it."""
    xhat, _, gain = cache
    y = np.multiply(gain, xhat, out=alloc(xhat.shape))
    y += bias
    return y


def layer_norm_backward(cache, dy, alloc=np.empty):
    """Returns (dx, dgain, dbias)."""
    xhat, inv, gain = cache
    rows = tuple(range(dy.ndim - 1))
    scratch = np.multiply(dy, xhat, out=alloc(dy.shape))
    dgain = np.sum(scratch, axis=rows)
    dbias = np.sum(dy, axis=rows)
    dx = np.multiply(dy, gain, out=alloc(dy.shape))   # dxhat, turned into dx in place
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


def gelu_forward(x, alloc=np.empty):
    """Returns (y, cache); the cache keeps x and its normal CDF, so that
    gelu_backward needs no second erf."""
    cdf = np.divide(x, SQRT_2, out=alloc(x.shape))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5                          # 0.5 * (1 + erf(x / sqrt 2))
    cache = (x, cdf)
    return gelu_output(cache, alloc), cache


def gelu_output(cache, alloc=np.empty):
    """x * cdf from a gelu_forward cache: the forward output, bit-identical,
    for callers that recompute it instead of keeping it."""
    x, cdf = cache
    return np.multiply(x, cdf, out=alloc(x.shape))


def gelu_backward(cache, dy, alloc=np.empty):
    x, cdf = cache
    dx = np.multiply(x, -0.5, out=alloc(x.shape))     # -0.5 * x
    dx *= x
    np.exp(dx, out=dx)
    dx /= SQRT_2PI                      # the normal pdf at x
    dx *= x
    dx += cdf
    dx *= dy                            # dy * (cdf + x * pdf)
    return dx
