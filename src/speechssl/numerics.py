"""Shared numerical kernels: stable softmax/sigmoid, erf, seeded RNG
derivation, the linear backward, forward/backward pairs for layer norm and
GELU, and the one Adam update; plus FlatArrays, the container the train
step keeps its parameters, moments and gradients in, and
retain_freed_memory, the process's one setting of the C heap.

Everything runs in float64. Backward functions return gradients in the same
shapes as their forward inputs; parameter gradients are returned, never
accumulated in place, so callers control reduction order. The elementwise
kernels work in place on the arrays they create where they can. On batched
activations every such array is large; retain_freed_memory keeps the
memory they free in the C heap, so a warm train step reuses it instead of
taking page faults on fresh pages. The kernels need NumPy alone: erf (for
gelu_forward) is Cephes' rational approximation written in NumPy, and
sigmoid and log_sigmoid are computed from exp(-|x|), so neither can overflow.
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
    """1 / (1 + exp(-x)), computed from exp(-|x|) so that no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def log_sigmoid(x):
    """log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|)), so that no exp overflows."""
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


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


# Cephes (Moshier) rational forms: erf(x) = x T(x^2) / U(x^2) for |x| <= 1 and
# erf(x) = 1 - exp(-x^2) P(x) / Q(x) for 1 < x < 8; coefficients highest
# power first, U and Q with their leading 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(6) < 2.2e-17, under half an ulp of 1, so erf rounds to +-1 from here on
_ERF_SATURATES = 6.0


def _polynomial(x, coefs):
    """coefs[0] x^n + ... + coefs[n] by Horner's rule, in one new array."""
    y = x * coefs[0]
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def erf(x):
    """The error function, elementwise in float64, within an ulp of Cephes'
    erf. The |x| <= 1 form runs on every element and the erfc form then
    overwrites only the elements beyond 1, since in GELU those are the few
    (gathering both branches by index is slower). NaN stays NaN."""
    x = np.asarray(x, dtype=np.float64, order="C")
    flat = x.reshape(-1)                # a view, as x is C-contiguous
    with np.errstate(over="ignore", invalid="ignore"):     # inf or huge x: overwritten below
        z = flat * flat
        y = _polynomial(z, _ERF_T)
        y *= flat
        y /= _polynomial(z, _ERF_U)
    beyond = np.flatnonzero(z > 1.0)    # |x| > 1; false at NaN
    xb = flat[beyond]
    a = np.minimum(np.abs(xb), _ERF_SATURATES)
    tail = np.exp(a * -a)
    tail *= _polynomial(a, _ERFC_P)
    tail /= _polynomial(a, _ERFC_Q)     # erfc(a)
    y[beyond] = np.copysign(1.0 - tail, xb)
    return y.reshape(x.shape)


def gelu_forward(x):
    """Returns (y, cache); the cache keeps x and its normal CDF, so that
    gelu_backward needs no second erf."""
    cdf = erf(x / SQRT_2)
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
