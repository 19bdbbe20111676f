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


@dataclass
class QuantizerConfig:
    num_codebooks: int = 2
    num_entries: int = 32
    entry_dim: int = 32
    latent_dim: int = 64
    out_dim: int = 64
    # desk-scale anneal floor: at a few hundred steps, stopping at 0.5 leaves
    # code selection noisy enough to jitter the contrastive anchors
    tau_start: float = 2.0
    tau_end: float = 0.1

    def __post_init__(self):
        if min(self.num_codebooks, self.num_entries, self.entry_dim,
               self.latent_dim, self.out_dim) < 1:
            raise ValueError("all quantizer dimensions must be >= 1")
        if self.tau_start <= 0 or self.tau_end <= 0:
            raise ValueError("temperatures must be positive")


@dataclass
class QuantizerState:
    """Config plus the parameter slice this module owns and the current
    temperature. Parameters live in the shared training dict under quant/*."""

    config: QuantizerConfig
    params: dict
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("temperature must be positive")
        for key in PARAM_KEYS:
            if key not in self.params:
                raise ValueError(f"missing quantizer parameter {key!r}")
            if not np.all(np.isfinite(self.params[key])):
                raise ValueError(f"quantizer parameter {key!r} is not finite")


PARAM_KEYS = (
    "quant/proj_in/W",
    "quant/proj_in/b",
    "quant/codebook",
    "quant/proj_out/W",
    "quant/proj_out/b",
)


def init_quantizer_params(cfg: QuantizerConfig, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    gv = cfg.num_codebooks * cfg.num_entries
    limit_in = np.sqrt(6.0 / (cfg.latent_dim + gv))
    concat = cfg.num_codebooks * cfg.entry_dim
    limit_out = np.sqrt(6.0 / (concat + cfg.out_dim))
    scale = 1.0 / np.sqrt(cfg.entry_dim)
    return {
        "quant/proj_in/W": rng.uniform(-limit_in, limit_in, (cfg.latent_dim, gv)),
        "quant/proj_in/b": np.zeros(gv),
        "quant/codebook": rng.uniform(
            -scale, scale, (cfg.num_codebooks, cfg.num_entries, cfg.entry_dim)
        ),
        "quant/proj_out/W": rng.uniform(-limit_out, limit_out, (concat, cfg.out_dim)),
        "quant/proj_out/b": np.zeros(cfg.out_dim),
    }


def tau_at(step: int, total_steps: int, start: float = 2.0, end: float = 0.1) -> float:
    """Geometric anneal from `start` to `end` across the run."""
    if total_steps <= 0:
        return end
    frac = min(max(step / total_steps, 0.0), 1.0)
    return float(start * (end / start) ** frac)


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
    hard: bool
    cache: tuple = field(repr=False, compare=False, default=())

    @property
    def num_frames(self) -> int:
        return self.q.shape[0]


def quantize(latent: np.ndarray, state: QuantizerState, noise: np.ndarray,
             hard: bool = True) -> QuantizeOutput:
    """Quantize F latent rows with the given (F, G, V) Gumbel noise. Rows
    never interact, so the masked rows of a whole batch go through in one
    call, each with its own utterance's draw."""
    latent = np.asarray(latent, dtype=np.float64)
    cfg = state.config
    if latent.ndim != 2 or latent.shape[1] != cfg.latent_dim:
        raise ValueError(
            f"latent must be F x {cfg.latent_dim}, got {latent.shape}"
        )
    p = state.params
    f = latent.shape[0]
    logits = (latent @ p["quant/proj_in/W"] + p["quant/proj_in/b"]).reshape(
        f, cfg.num_codebooks, cfg.num_entries
    )
    probs = gumbel_probs(logits, state.tau, noise)
    hard_indices = np.argmax(logits + noise, axis=-1)
    sel = one_hot(hard_indices, cfg.num_entries) if hard else probs
    entries = np.einsum("fgv,gvd->fgd", sel, p["quant/codebook"])
    concat = entries.reshape(f, cfg.num_codebooks * cfg.entry_dim)
    q = concat @ p["quant/proj_out/W"] + p["quant/proj_out/b"]
    cache = (latent, probs, sel, concat)
    return QuantizeOutput(q, probs, hard_indices, hard, cache)


def quantize_backward(output: QuantizeOutput, state: QuantizerState,
                      dq: np.ndarray, dprobs: np.ndarray | None = None):
    """Backward through quantize. `dq` is the gradient at the quantized
    vectors; `dprobs` (optional) is extra gradient arriving directly at the
    selection probabilities (the diversity objective injects one).

    In hard mode the codebook gradient uses the argmax one-hot (the forward
    selection) while the path to the logits follows the soft probabilities.
    Returns (dlatent, grads dict over quant/* keys).
    """
    latent, probs, sel, concat = output.cache
    cfg = state.config
    p = state.params
    f = latent.shape[0]
    dconcat, dw_out, db_out = linear_backward(concat, p["quant/proj_out/W"], dq)
    dentries = dconcat.reshape(f, cfg.num_codebooks, cfg.entry_dim)
    dcodebook = np.einsum("fgv,fgd->gvd", sel, dentries)
    dsel = np.einsum("fgd,gvd->fgv", dentries, p["quant/codebook"])
    dprobs_total = dsel if dprobs is None else dsel + dprobs
    dlogits = softmax_backward(probs, dprobs_total) / state.tau
    dlogits_flat = dlogits.reshape(f, cfg.num_codebooks * cfg.num_entries)
    dlatent, dw_in, db_in = linear_backward(latent, p["quant/proj_in/W"], dlogits_flat)
    grads = {
        "quant/proj_in/W": dw_in,
        "quant/proj_in/b": db_in,
        "quant/codebook": dcodebook,
        "quant/proj_out/W": dw_out,
        "quant/proj_out/b": db_out,
    }
    return dlatent, grads


def usage_stats(output: QuantizeOutput) -> np.ndarray:
    """Selection probabilities averaged over the quantized rows (the
    diversity loss input)."""
    if output.num_frames == 0:
        raise ValueError("usage_stats requires at least one quantized frame")
    sums = output.probs.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
        raise ValueError("probability rows must sum to 1")
    return output.probs.mean(axis=0)
