"""Objective terms and their gradients.

content: masked-frame cross-entropy against pseudo-labels.
contrastive: utterance-wise binary-logistic terms on cosine similarity
  between tap latents and quantized vectors; each masked step pairs with its
  own quantized frame as the positive, against negatives sampled uniformly
  from the masked steps of other utterances in the batch.
diversity: scaled negative entropy of batch-averaged codebook usage
  (minimized at uniform usage, where it reaches -ln(V)/V).

All reductions are means, so magnitudes stay batch-size invariant; the
contrastive loss averages its positive and negative term classes separately.
Minimizing it raises positive and lowers negative similarity.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .numerics import log_sigmoid, sigmoid

log = logging.getLogger(__name__)

NORM_FLOOR = 1e-12


@dataclass
class LossWeights:
    alpha: float = 0.1        # diversity weight
    beta: float = 1.0         # content weight
    kappa: float = 0.1        # contrastive temperature
    num_negatives: int = 100

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.num_negatives < 0:
            raise ValueError("num_negatives must be >= 0")


@dataclass
class LossCounts:
    positives: int = 0
    negatives: int = 0
    masked_frames: int = 0


@dataclass
class LossBreakdown:
    contrastive: float
    diversity: float
    speaker: float
    content: float
    total: float
    counts: LossCounts = field(default_factory=LossCounts)

    def __post_init__(self):
        for name in ("contrastive", "diversity", "speaker", "content", "total"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} loss is not finite")

    def as_dict(self) -> dict:
        return {
            "contrastive": self.contrastive,
            "diversity": self.diversity,
            "speaker": self.speaker,
            "content": self.content,
            "total": self.total,
            "positives": self.counts.positives,
            "negatives": self.counts.negatives,
            "masked_frames": self.counts.masked_frames,
        }


def combine(contrastive: float, diversity: float, content: float,
            weights: LossWeights, counts: LossCounts | None = None) -> LossBreakdown:
    """speaker = contrastive + alpha * diversity; total = speaker + beta * content."""
    for name, value in (("contrastive", contrastive), ("diversity", diversity),
                        ("content", content)):
        if not np.isfinite(value):
            raise ValueError(f"{name} input is not finite")
    speaker = contrastive + weights.alpha * diversity
    total = speaker + weights.beta * content
    return LossBreakdown(contrastive, diversity, speaker, content, total,
                         counts or LossCounts())


# ---------------------------------------------------------------------------
# Content loss


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def content_loss_batch(logits, labels_list, mask):
    """Batch content loss over stacked (B, T, C) logits: the mean negative
    log-probability of the pseudo-label over all masked frames of all
    utterances (`mask` is the batch's BatchMask). Returns (loss, dlogits)
    with dlogits (B, T, C), zero on unmasked frames."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3:
        raise ValueError(f"logits must be a (B, T, C) array, got shape {logits.shape}")
    b, t, k = logits.shape
    if len(labels_list) != b or (mask.batch_size, mask.num_frames) != (b, t):
        raise ValueError(
            f"{b} utterances of {t} frames of logits, {len(labels_list)} label "
            f"sequences, masks of {mask.batch_size} utterances of {mask.num_frames} frames"
        )
    for labels in labels_list:
        if len(labels) != t:
            raise ValueError(f"labels length {len(labels)} != logits frames {t}")
        if labels.labels.size and labels.labels.max() >= k:
            raise ValueError("label id exceeds number of classes")
    rows = mask.rows
    if rows.size == 0:
        raise ValueError("content loss needs a non-empty mask")
    targets = np.concatenate([lab.labels for lab in labels_list])[rows]
    flat = logits.reshape(b * t, k)
    logp = _log_softmax(flat[rows])
    picked = np.arange(rows.size)
    loss = float(-logp[picked, targets].mean())
    dmasked = np.exp(logp)
    dmasked[picked, targets] -= 1.0
    dlogits = np.zeros_like(flat)
    dlogits[rows] = dmasked / rows.size
    return loss, dlogits.reshape(b, t, k)


# ---------------------------------------------------------------------------
# Contrastive loss


@dataclass
class ContrastiveResult:
    """danchors and dq are the gradients at the P masked tap rows and at the
    P quantized vectors, both in the order of the mask's rows."""

    value: float
    danchors: np.ndarray
    dq: np.ndarray
    num_positives: int
    num_negatives: int
    with_replacement: bool


def sample_negatives(mask, num_negatives: int, seed: int):
    """For every masked step (b, i), draw `num_negatives` candidates uniformly
    from the masked steps of the other utterances. Returns
    {b: array of (F_b, K) indices into the flattened candidate pool}, the
    pool as a (P, 2) array of (utterance, row within the utterance) pairs,
    and whether any draw fell back to replacement. The pool is the mask's
    rows in order. Shared by the loss and its test oracle."""
    counts = mask.counts
    owner = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts              # pool index of each utterance's first row
    pool = np.stack([owner, np.arange(owner.size) - first[owner]], axis=1)
    rng = np.random.default_rng(seed)
    picks: dict[int, np.ndarray] = {}
    with_replacement = False
    for b, f in enumerate(counts):
        others = np.flatnonzero(owner != b)
        if num_negatives == 0 or f == 0:
            picks[b] = np.zeros((f, 0), dtype=np.int64)
            continue
        if others.size == 0:
            raise ValueError(
                "no negatives available: batch has a single utterance; "
                "set num_negatives=0 or use a batch of >= 2 utterances"
            )
        rows = []
        for _ in range(f):
            if others.size >= num_negatives:
                rows.append(others[rng.choice(others.size, num_negatives, replace=False)])
            else:
                with_replacement = True
                rows.append(others[rng.choice(others.size, num_negatives, replace=True)])
        picks[b] = np.stack(rows)
    if with_replacement:
        log.info("negative sampling fell back to replacement (pool smaller than K)")
    return picks, pool, with_replacement


def contrastive_loss(taps, q, mask, weights: LossWeights,
                     seed: int = 0) -> ContrastiveResult:
    """Utterance-wise contrastive loss over the masked steps of a batch.

    taps: (B, T, d) latents at the tap layer (or B arrays of T x d).
    q: (P, d) quantized vectors, one per masked row of `mask`, in its order.
    Positive term -log(sigmoid(sim/kappa)); negative term -log(sigmoid(-sim/kappa)).
    Positive and negative terms are averaged separately and the two class
    means averaged, so the positive pairs keep half the weight at any K (a
    pooled mean lets K >> 1 negatives drown the positives out entirely).
    Gradients are returned with respect to the masked tap rows and the
    quantized vectors. Rescaling any latent by a positive constant leaves
    the value unchanged (cosine similarity).

    All similarities are entries of one P x P cosine matrix over the P masked
    steps (positives on its diagonal, negatives gathered from it), so both
    gradients are P x P @ P x d products. That holds O(P^2) floats where a
    (P, K, d) negative gather holds O(P*K*d): break-even at P = K*d, 6400
    masked frames at K=100, d=64.
    """
    if np.any(mask.counts == 0):
        raise ValueError("contrastive loss needs a non-empty mask per utterance")
    kappa = weights.kappa
    taps = np.asarray(taps, dtype=np.float64)
    anchors = taps.reshape(-1, taps.shape[-1])[mask.rows]
    q_all = np.asarray(q, dtype=np.float64)
    if anchors.shape != q_all.shape:
        raise ValueError(
            f"masked tap rows {anchors.shape} and quantized rows {q_all.shape} differ"
        )
    picks, _, with_replacement = sample_negatives(mask, weights.num_negatives, seed)
    # anchors and positives follow the mask's rows, as does the pool the
    # negatives index
    neg_idx = np.concatenate([picks[b] for b in range(mask.batch_size)], axis=0)
    del picks
    num_pos, k_neg = neg_idx.shape

    norm_a = np.maximum(np.linalg.norm(anchors, axis=1), NORM_FLOOR)
    norm_q = np.maximum(np.linalg.norm(q_all, axis=1), NORM_FLOOR)
    unit_a = anchors / norm_a[:, None]
    unit_q = q_all / norm_q[:, None]

    num_neg = num_pos * k_neg
    pos_weight = (0.5 if k_neg > 0 else 1.0) / num_pos
    neg_weight = 0.5 / num_neg if k_neg > 0 else 0.0
    rows = np.arange(num_pos)
    sim = unit_a @ unit_q.T                            # (P, P)
    sim_pos = np.diagonal(sim)
    sim_neg = sim[rows[:, None], neg_idx]              # (P, K)
    value = pos_weight * float(np.sum(-log_sigmoid(sim_pos / kappa)))
    value += neg_weight * float(np.sum(-log_sigmoid(-sim_neg / kappa)))
    # d(-log sigmoid(s/kappa))/ds = -sigmoid(-s/kappa)/kappa for a positive,
    # d(-log sigmoid(-s/kappa))/ds = sigmoid(s/kappa)/kappa for a negative
    coeff_pos = pos_weight * (-sigmoid(-sim_pos / kappa) / kappa)
    coeff_neg = neg_weight * (sigmoid(sim_neg / kappa) / kappa)
    del sim_neg
    # coeff[p, j] = dvalue/dsim[p, j]; bincount sums a negative drawn twice
    # (replacement fallback), which fancy-index += would count once
    flat = np.concatenate([rows * (num_pos + 1), (rows[:, None] * num_pos + neg_idx).ravel()])
    coeff = np.bincount(flat, weights=np.concatenate([coeff_pos, coeff_neg.ravel()]),
                        minlength=num_pos * num_pos).reshape(num_pos, num_pos)
    del flat, coeff_neg
    # cosine: ds/da = q/(|a||q|) - s*a/|a|^2, symmetrically for q. sim is
    # spent, so coeff * sim goes into its buffer; with the dels above this
    # takes a third off the loss's peak memory
    coeff_sim = np.multiply(coeff, sim, out=sim)
    danchors = (coeff @ unit_q - coeff_sim.sum(axis=1)[:, None] * unit_a) / norm_a[:, None]
    dq_all = (coeff.T @ unit_a - coeff_sim.sum(axis=0)[:, None] * unit_q) / norm_q[:, None]

    return ContrastiveResult(float(value), danchors, dq_all, num_pos, num_neg,
                             with_replacement)


# ---------------------------------------------------------------------------
# Diversity loss


def diversity_loss(p_bar: np.ndarray):
    """(1/GV) sum p log p of averaged usage, with 0*log(0) = 0.

    Returns (value, dp_bar); range [-(ln V)/V, 0].
    """
    p = np.asarray(p_bar, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("p_bar must be a G x V matrix")
    if np.max(np.abs(p.sum(axis=-1) - 1.0)) > 1e-6:
        raise ValueError("each row of p_bar must sum to 1")
    g, v = p.shape
    safe = p > 0.0
    logp = np.zeros_like(p)
    logp[safe] = np.log(p[safe])
    value = float((p * logp).sum() / (g * v))
    dp = np.zeros_like(p)
    dp[safe] = (1.0 + logp[safe]) / (g * v)
    return value, dp
