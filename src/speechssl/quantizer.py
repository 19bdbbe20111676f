"""Gumbel-softmax product quantizer.

Latent frames are linearly projected to G x V logits; Gumbel noise plus a
temperature-controlled softmax yields per-codebook selection probabilities.
In hard mode the forward pass concatenates the argmax entry of each codebook
(straight-through: gradients flow through the soft probabilities); soft mode
uses the probability-weighted mixture of entries and is exactly
differentiable, which is what gradient checks run against.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import linear_backward, one_hot, softmax, softmax_backward

ROW_SUM_TOL = 1e-6
# desk-scale anneal floor: at a few hundred steps, stopping at 0.5 leaves
# code selection noisy enough to jitter the contrastive anchors
TAU_START, TAU_END = 2.0, 0.1


@dataclass
class QuantizerConfig:
    num_codebooks: int = 2
    num_entries: int = 32
    entry_dim: int = 32

    def __post_init__(self):
        for key in ("num_codebooks", "num_entries", "entry_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")


def init_quantizer_params(cfg: QuantizerConfig, dim: int, seed: int) -> dict:
    """The quant/* parameters for latent rows of width `dim` (the encoder's
    model width), quantized back to vectors of the same width."""
    rng = np.random.default_rng(seed)
    gv = cfg.num_codebooks * cfg.num_entries
    limit_in = np.sqrt(6.0 / (dim + gv))
    concat = cfg.num_codebooks * cfg.entry_dim
    limit_out = np.sqrt(6.0 / (concat + dim))
    scale = 1.0 / np.sqrt(cfg.entry_dim)
    return {
        "quant/proj_in/W": rng.uniform(-limit_in, limit_in, (dim, gv)),
        "quant/proj_in/b": np.zeros(gv),
        "quant/codebook": rng.uniform(
            -scale, scale, (cfg.num_codebooks, cfg.num_entries, cfg.entry_dim)
        ),
        "quant/proj_out/W": rng.uniform(-limit_out, limit_out, (concat, dim)),
        "quant/proj_out/b": np.zeros(dim),
    }


def tau_at(step: int, total_steps: int) -> float:
    """Geometric anneal from TAU_START to TAU_END across the run."""
    frac = min(max(step / total_steps, 0.0), 1.0)
    return float(TAU_START * (TAU_END / TAU_START) ** frac)


def gumbel_noise(seeds, counts, cfg: QuantizerConfig) -> np.ndarray:
    """Gumbel noise for the concatenated rows of several utterances, as a
    (sum(counts), G, V) array: utterance b's counts[b] rows are drawn from
    a generator seeded with seeds[b]."""
    shape = (cfg.num_codebooks, cfg.num_entries)
    u = np.concatenate([np.random.default_rng(seed).random((n, *shape))
                        for seed, n in zip(seeds, counts)])
    return -np.log(-np.log(np.maximum(u, np.finfo(np.float64).tiny)))


def gumbel_probs(logits: np.ndarray, tau: float, noise: np.ndarray) -> np.ndarray:
    """Selection probabilities softmax((logits + noise) / tau) over the last
    axis, computed with max subtraction. `noise` is injectable for tests."""
    if tau <= 0:
        raise ValueError("temperature must be positive")
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    if noise.shape != logits.shape:
        raise ValueError(f"noise shape {noise.shape} != logits shape {logits.shape}")
    return softmax((logits + noise) / tau, axis=-1)


@dataclass
class QuantizeOutput:
    """q: quantized frame vectors; probs: per-frame G x V selection
    probabilities; hard_indices: argmax entry per codebook per frame."""

    q: np.ndarray
    probs: np.ndarray
    hard_indices: np.ndarray
    cache: tuple = field(repr=False, compare=False, default=())

    @property
    def num_frames(self) -> int:
        return self.q.shape[0]


def quantize(latent: np.ndarray, params: dict, cfg: QuantizerConfig, tau: float,
             noise: np.ndarray, hard: bool = True) -> QuantizeOutput:
    """Quantize F latent rows with the quant/* parameters in `params` at
    temperature `tau` and the given (F, G, V) Gumbel noise. Rows never
    interact, so the masked rows of a whole batch go through in one call,
    each with its own utterance's draw. Non-finite parameters and a
    non-positive `tau` (gumbel_probs) are refused."""
    for key, value in params.items():
        if key.startswith("quant/") and not np.all(np.isfinite(value)):
            raise ValueError(f"quantizer parameter {key!r} is not finite")
    latent = np.asarray(latent, dtype=np.float64)
    dim = params["quant/proj_in/W"].shape[0]
    if latent.ndim != 2 or latent.shape[1] != dim:
        raise ValueError(f"latent must be F x {dim}, got {latent.shape}")
    f = latent.shape[0]
    logits = (latent @ params["quant/proj_in/W"] + params["quant/proj_in/b"]).reshape(
        f, cfg.num_codebooks, cfg.num_entries
    )
    probs = gumbel_probs(logits, tau, noise)
    hard_indices = np.argmax(logits + noise, axis=-1)
    sel = one_hot(hard_indices, cfg.num_entries) if hard else probs
    entries = np.matmul(sel.transpose(1, 0, 2), params["quant/codebook"])     # (G, F, D)
    concat = entries.transpose(1, 0, 2).reshape(f, cfg.num_codebooks * cfg.entry_dim)
    q = concat @ params["quant/proj_out/W"] + params["quant/proj_out/b"]
    cache = (latent, probs, sel, concat)
    return QuantizeOutput(q, probs, hard_indices, cache)


def quantize_backward(output: QuantizeOutput, params: dict, cfg: QuantizerConfig, tau: float,
                      dq: np.ndarray, dusage: np.ndarray, grads: dict) -> np.ndarray:
    """Backward through quantize, given the forward call's parameters and
    temperature. `dq` is the gradient at the quantized vectors and `dusage`
    the (G, V) gradient at usage_stats(output), the rows' mean, which this
    spreads over the F rows. Accumulates the quant/* gradients into `grads`
    and returns dlatent.

    In hard mode the codebook gradient uses the argmax one-hot (the forward
    selection) while the path to the logits follows the soft probabilities.
    """
    latent, probs, sel, concat = output.cache
    f = latent.shape[0]
    dconcat, dw_out, db_out = linear_backward(concat, params["quant/proj_out/W"], dq)
    dentries = dconcat.reshape(f, cfg.num_codebooks, cfg.entry_dim)
    grads["quant/codebook"] += np.matmul(sel.transpose(1, 2, 0), dentries.transpose(1, 0, 2))
    dsel = np.matmul(dentries.transpose(1, 0, 2),
                     params["quant/codebook"].transpose(0, 2, 1)).transpose(1, 0, 2)
    dlogits = softmax_backward(probs, dsel + dusage / f) / tau
    dlogits_flat = dlogits.reshape(f, cfg.num_codebooks * cfg.num_entries)
    dlatent, dw_in, db_in = linear_backward(latent, params["quant/proj_in/W"], dlogits_flat)
    grads["quant/proj_in/W"] += dw_in
    grads["quant/proj_in/b"] += db_in
    grads["quant/proj_out/W"] += dw_out
    grads["quant/proj_out/b"] += db_out
    return dlatent


def usage_stats(output: QuantizeOutput) -> np.ndarray:
    """Selection probabilities averaged over the quantized rows (the
    diversity loss input)."""
    if output.num_frames == 0:
        raise ValueError("usage_stats requires at least one quantized frame")
    sums = output.probs.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
        raise ValueError("probability rows must sum to 1")
    return output.probs.mean(axis=0)
