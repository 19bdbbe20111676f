"""The trainable network: feature projection, span masking with a learned
mask embedding, a pre-norm transformer stack with sinusoidal positions, an
intermediate tap feeding the contrastive objective, and a linear
content-prediction head over pseudo-label classes.

Forward and backward passes are written out by hand in float64; backward is
verified against central finite differences in the test suite. Both are
batched: they take B equal-length utterances stacked as (B, T, D) with one
BatchMask over their B*T frames. Projection, layer norm, the FFN, the head and the mask
embedding act row-wise on the B*T frames, and only attention reshapes to
(B, H, T, dh), so utterances never interact and a single utterance is the
B=1 case. Every (B*T)-row activation and gradient, and the few
parameter-shaped temporaries, come from `alloc` (np.empty by default); a
caller that steps repeatedly passes a numerics.BufferPool's `empty` so that
a warm step allocates none of them anew.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    FlatArrays,
    gelu_backward,
    gelu_forward,
    gelu_output,
    layer_norm_backward,
    layer_norm_forward,
    layer_norm_output,
    linear_backward,
    softmax,
    softmax_backward,
)


class NonFiniteActivations(FloatingPointError):
    """Non-finite activations out of encoder block `block` (0-based) in the
    listed batch rows."""

    def __init__(self, block: int, rows: list):
        super().__init__(f"non-finite activations after block {block} "
                         f"(layer {block + 1}) in batch row(s) {rows}")
        self.block = block
        self.rows = rows


@dataclass
class EncoderConfig:
    input_dim: int = 39
    model_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4
    ffn_dim: int = 128
    num_classes: int = 16
    tap_layer: int = 2
    mask_span: int = 10
    mask_start_prob: float = 0.08

    def __post_init__(self):
        if not 0 <= self.tap_layer <= self.num_layers:
            raise ValueError("tap_layer must lie in [0, num_layers]")
        if self.model_dim % self.num_heads != 0:
            raise ValueError("num_heads must divide model_dim")
        if self.mask_span < 1:
            raise ValueError("mask_span must be >= 1")
        if not 0.0 <= self.mask_start_prob <= 1.0:
            raise ValueError("mask_start_prob must lie in [0, 1]")


@dataclass
class BatchMask:
    """The masked frames of a batch of B utterances of `num_frames` frames
    each, as one set. `rows` are the masked rows, in increasing order, of
    the flattened B*num_frames frames (utterance b's frame i is row
    b*num_frames + i); `counts[b]` is how many of them utterance b has."""

    rows: np.ndarray
    counts: np.ndarray
    num_frames: int

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or np.any(self.counts < 0) or self.num_frames < 1:
            raise ValueError("mask counts must be non-negative, one per utterance")
        owner = np.repeat(np.arange(self.counts.size), self.counts)
        if owner.size != self.rows.size or np.any(self.rows // self.num_frames != owner):
            raise ValueError("mask indices out of range of their utterance's frames")
        if np.any(np.diff(self.rows) <= 0):
            raise ValueError("mask indices must be strictly increasing")

    def __len__(self) -> int:
        return self.rows.size

    @property
    def batch_size(self) -> int:
        return self.counts.size

    @classmethod
    def from_indices(cls, indices, num_frames: int) -> "BatchMask":
        """`indices[b]` holds utterance b's masked frames, increasing."""
        indices = [np.asarray(idx, dtype=np.int64) for idx in indices]
        rows = [b * num_frames + idx for b, idx in enumerate(indices)]
        return cls(np.concatenate(rows) if rows else np.array([], dtype=np.int64),
                   [idx.size for idx in indices], num_frames)


def sample_mask(num_frames: int, cfg: EncoderConfig, seed: int,
                min_spans: int = 0) -> np.ndarray:
    """Each frame starts a span of `mask_span` frames (clipped at the end)
    with probability `mask_start_prob`; overlapping spans merge. With
    min_spans >= 1 a fallback span is placed when nothing was sampled.
    Returns the masked frame indices, increasing."""
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    rng = np.random.default_rng(seed)
    starts = np.nonzero(rng.random(num_frames) < cfg.mask_start_prob)[0]
    if starts.size == 0 and min_spans >= 1:
        starts = np.array([rng.integers(num_frames)])
    # +1 where a span starts and -1 where it ends: the running sum counts
    # the spans covering each frame
    ends = np.minimum(starts + cfg.mask_span, num_frames)
    edges = np.bincount(starts, minlength=num_frames + 1)
    edges -= np.bincount(ends, minlength=num_frames + 1)
    return np.flatnonzero(np.cumsum(edges[:num_frames]))


def corrupt(frames: np.ndarray, rows, mask_embedding: np.ndarray,
            alloc=np.empty) -> np.ndarray:
    """Replace the frames at `rows` with the learned mask embedding."""
    frames = np.asarray(frames, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and rows.max() >= frames.shape[0]:
        raise ValueError("mask index out of range for this sequence")
    if mask_embedding.shape != (frames.shape[1],):
        raise ValueError("mask embedding dim does not match frames")
    out = alloc(frames.shape)
    out[...] = frames
    out[rows] = mask_embedding
    return out


def sinusoidal_positions(num_frames: int, dim: int) -> np.ndarray:
    pos = np.arange(num_frames)[:, None].astype(np.float64)
    i = np.arange(0, dim, 2).astype(np.float64)
    angles = pos / (10000.0 ** (i / dim))[None, :]
    enc = np.zeros((num_frames, dim))
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles[:, : dim // 2])
    return enc


@dataclass
class EncoderOutput:
    """tap, final and layer_outputs are (B, T, d), content_logits (B, T, C);
    mask is the batch's BatchMask."""

    tap: np.ndarray
    final: np.ndarray
    content_logits: np.ndarray
    mask: BatchMask
    layer_outputs: list = field(repr=False, default_factory=list)
    cache: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def num_frames(self) -> int:
        """Total frames of the batch, B*T."""
        return self.final.shape[0] * self.final.shape[1]


# ---------------------------------------------------------------------------
# Parameters


def init_encoder_params(cfg: EncoderConfig, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    d = cfg.model_dim

    def xavier(n_in, n_out):
        limit = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-limit, limit, (n_in, n_out))

    params = {}
    params["proj/W"] = xavier(cfg.input_dim, d)
    params["proj/b"] = np.zeros(d)
    params["mask_emb"] = rng.normal(0.0, 0.1, d)
    for i in range(cfg.num_layers):
        params[f"block{i}/ln1/g"] = np.ones(d)
        params[f"block{i}/ln1/b"] = np.zeros(d)
        # attention projections carry no biases: a key bias is provably inert
        # under softmax and would defeat finite-difference verification
        for name in ("Wq", "Wk", "Wv", "Wo"):
            params[f"block{i}/attn/{name}"] = xavier(d, d)
        params[f"block{i}/ln2/g"] = np.ones(d)
        params[f"block{i}/ln2/b"] = np.zeros(d)
        params[f"block{i}/ffn/W1"] = xavier(d, cfg.ffn_dim)
        params[f"block{i}/ffn/b1"] = np.zeros(cfg.ffn_dim)
        params[f"block{i}/ffn/W2"] = xavier(cfg.ffn_dim, d)
        params[f"block{i}/ffn/b2"] = np.zeros(d)
    params["final_ln/g"] = np.ones(d)
    params["final_ln/b"] = np.zeros(d)
    params["head/W"] = xavier(d, cfg.num_classes)
    params["head/b"] = np.zeros(cfg.num_classes)
    return params


def zero_grads(params: dict, alloc=np.empty) -> FlatArrays:
    """Zeros shaped like `params`, as views into one flat vector."""
    shapes = {k: v.shape for k, v in params.items()}
    flat = alloc((sum(v.size for v in params.values()),))
    flat.fill(0.0)
    return FlatArrays(shapes, flat)


# ---------------------------------------------------------------------------
# Transformer. Activations are (B*T, d) row matrices; attention alone sees
# the batch axis.


def _qkv_weights(params, prefix, alloc):
    """Wq, Wk and Wv side by side: one (d, 3d) projection whose output rows
    split into the q, k and v heads."""
    parts = [params[f"{prefix}/W{c}"] for c in "qkv"]
    d = parts[0].shape[0]
    return np.concatenate(parts, axis=1, out=alloc((d, 3 * d)))


def _attention_context(attn, vh, alloc):
    """attn @ v per head, laid out as (B*T, d) rows with the heads side by side."""
    batch, num_heads, t, dh = vh.shape
    ctx = alloc((batch * t, num_heads * dh))
    np.matmul(attn, vh, out=ctx.reshape(batch, t, num_heads, dh).transpose(0, 2, 1, 3))
    return ctx


def _attention_forward(x, params, prefix, num_heads, batch, alloc):
    # the context rows are not cached: backward recomputes them from attn and v
    n, d = x.shape
    t = n // batch
    dh = d // num_heads
    qkv = np.matmul(x, _qkv_weights(params, prefix, alloc), out=alloc((n, 3 * d)))
    qh, kh, vh = qkv.reshape(batch, t, 3, num_heads, dh).transpose(2, 0, 3, 1, 4)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2), out=alloc((batch, num_heads, t, t)))
    scores /= np.sqrt(dh)
    attn = softmax(scores, axis=-1, alloc=alloc)
    del scores
    out = np.matmul(_attention_context(attn, vh, alloc), params[f"{prefix}/Wo"],
                    out=alloc((n, d)))
    return out, (qh, kh, vh, attn)


def _attention_backward(cache, x, dout, params, prefix, num_heads, grads, alloc):
    """`x` is the attention input, recomputed by the caller rather than cached."""
    qh, kh, vh, attn = cache
    n, d = x.shape
    batch, _, t, dh = qh.shape
    grads[f"{prefix}/Wo"] += _attention_context(attn, vh, alloc).T @ dout
    dctx_h = np.matmul(dout, params[f"{prefix}/Wo"].T, out=alloc((n, d)))
    dctx_h = dctx_h.reshape(batch, t, num_heads, dh).transpose(0, 2, 1, 3)
    # the score gradient is formed before dqkv is allocated, and dies before
    # the last product, which keeps the step's peak memory down
    dattn = np.matmul(dctx_h, vh.transpose(0, 1, 3, 2), out=alloc(attn.shape))
    dscores = softmax_backward(attn, dattn, alloc=alloc)
    del dattn
    dscores /= np.sqrt(dh)
    dqkv = alloc((n, 3 * d))                            # rows laid out as qkv
    dqh, dkh, dvh = dqkv.reshape(batch, t, 3, num_heads, dh).transpose(2, 0, 3, 1, 4)
    np.matmul(attn.transpose(0, 1, 3, 2), dctx_h, out=dvh)
    np.matmul(dscores, kh, out=dqh)
    np.matmul(dscores.transpose(0, 1, 3, 2), qh, out=dkh)
    del dscores, dctx_h
    dw = np.matmul(x.T, dqkv, out=alloc((d, 3 * d)))
    for j, name in enumerate(("Wq", "Wk", "Wv")):
        grads[f"{prefix}/{name}"] += dw[:, j * d:(j + 1) * d]
    return np.matmul(dqkv, _qkv_weights(params, prefix, alloc).T, out=alloc((n, d)))


def _block_forward(x, params, i, cfg, batch, alloc):
    # The cache keeps the layer-norm, GELU and attention caches only: backward
    # recomputes the two layer-norm outputs, the GELU output and the attention
    # context from them with the same operations, which keeps the activations
    # held from forward to backward small.
    n1, c_ln1 = layer_norm_forward(x, params[f"block{i}/ln1/g"], params[f"block{i}/ln1/b"],
                                   alloc=alloc)
    a, c_attn = _attention_forward(n1, params, f"block{i}/attn", cfg.num_heads, batch, alloc)
    del n1
    a += x
    n2, c_ln2 = layer_norm_forward(a, params[f"block{i}/ln2/g"], params[f"block{i}/ln2/b"],
                                   alloc=alloc)
    pre = np.matmul(n2, params[f"block{i}/ffn/W1"], out=alloc((x.shape[0], cfg.ffn_dim)))
    del n2
    pre += params[f"block{i}/ffn/b1"]
    act, c_gelu = gelu_forward(pre, alloc)
    y = np.matmul(act, params[f"block{i}/ffn/W2"], out=alloc(x.shape))
    del act
    y += params[f"block{i}/ffn/b2"]
    y += a
    return y, (c_ln1, c_attn, c_ln2, c_gelu)


def _block_backward(cache, dy, params, i, cfg, grads, alloc):
    # `d` carries the gradient down the block; rebinding it frees each
    # intermediate as soon as the next one exists. dy is consumed: it ends
    # up holding the residual gradient.
    c_ln1, c_attn, c_ln2, c_gelu = cache
    d, dw2, db2 = linear_backward(gelu_output(c_gelu, alloc), params[f"block{i}/ffn/W2"],
                                  dy, alloc)
    grads[f"block{i}/ffn/W2"] += dw2
    grads[f"block{i}/ffn/b2"] += db2
    d = gelu_backward(c_gelu, d, alloc)
    d, dw1, db1 = linear_backward(layer_norm_output(c_ln2, params[f"block{i}/ln2/b"], alloc),
                                  params[f"block{i}/ffn/W1"], d, alloc)
    grads[f"block{i}/ffn/W1"] += dw1
    grads[f"block{i}/ffn/b1"] += db1
    d, dg2, dbias2 = layer_norm_backward(c_ln2, d, alloc)
    grads[f"block{i}/ln2/g"] += dg2
    grads[f"block{i}/ln2/b"] += dbias2
    dy += d                             # the gradient at the attention residual
    d = _attention_backward(c_attn, layer_norm_output(c_ln1, params[f"block{i}/ln1/b"], alloc),
                            dy, params, f"block{i}/attn", cfg.num_heads, grads, alloc)
    d, dg1, dbias1 = layer_norm_backward(c_ln1, d, alloc)
    grads[f"block{i}/ln1/g"] += dg1
    grads[f"block{i}/ln1/b"] += dbias1
    d += dy
    return d


def forward(frames: np.ndarray, mask: BatchMask, params: dict, cfg: EncoderConfig,
            alloc=np.empty) -> EncoderOutput:
    """Project a (B, T, D) batch, corrupt the frames that `mask` marks, run
    the transformer stack, and emit per-layer outputs plus content logits.
    layer_outputs[0] is the projected corrupted input; layer_outputs[j] is
    the output of block j. Non-finite activations out of a block raise
    NonFiniteActivations naming the block and the batch rows."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3:
        raise ValueError(f"frames must be a (B, T, D) array, got shape {frames.shape}")
    batch, t, dim = frames.shape
    if dim != cfg.input_dim:
        raise ValueError(f"feature dim {dim} != configured input_dim {cfg.input_dim}")
    if (mask.batch_size, mask.num_frames) != (batch, t):
        raise ValueError(
            f"masks cover {mask.batch_size} utterances of {mask.num_frames} frames, "
            f"but the batch holds {batch} utterances of {t} frames"
        )

    def per_utterance(rows):
        return rows.reshape(batch, t, -1)

    n, d = batch * t, cfg.model_dim
    feats = frames.reshape(n, dim)
    projected = np.matmul(feats, params["proj/W"], out=alloc((n, d)))
    projected += params["proj/b"]
    h0 = corrupt(projected, mask.rows, params["mask_emb"], alloc)
    del projected
    layer_outputs = [per_utterance(h0)]
    block_caches = []
    h = h0
    if cfg.num_layers >= 1:
        h = alloc((n, d))
        np.add(layer_outputs[0], sinusoidal_positions(t, d), out=per_utterance(h))
        for i in range(cfg.num_layers):
            h, cache = _block_forward(h, params, i, cfg, batch, alloc)
            finite = np.isfinite(h).reshape(batch, -1).all(axis=1)
            if not finite.all():
                raise NonFiniteActivations(i, np.flatnonzero(~finite).tolist())
            block_caches.append(cache)
            layer_outputs.append(per_utterance(h))
    final, c_final = layer_norm_forward(h, params["final_ln/g"], params["final_ln/b"],
                                        alloc=alloc)
    logits = np.matmul(final, params["head/W"], out=alloc((n, cfg.num_classes)))
    logits += params["head/b"]
    cache = {
        "features": feats,
        "blocks": block_caches,
        "final_ln": c_final,
        "final": final,
    }
    return EncoderOutput(layer_outputs[cfg.tap_layer], per_utterance(final),
                         per_utterance(logits), mask, layer_outputs, cache)


def backward(output: EncoderOutput, params: dict, cfg: EncoderConfig,
             dlogits: np.ndarray | None = None,
             dtap: np.ndarray | None = None,
             grads: dict | None = None,
             alloc=np.empty) -> dict:
    """Accumulate parameter gradients for upstream gradients arriving at the
    content logits (B, T, C) and/or at the tap layer (B, T, d). Returns the
    grads dict."""
    cache = output.cache
    if grads is None:
        grads = zero_grads(params)
    n = output.num_frames
    d = cfg.model_dim
    if dtap is not None:
        dtap = np.reshape(dtap, (n, d))

    if dlogits is not None:
        dh, dwh, dbh = linear_backward(cache["final"], params["head/W"],
                                       np.reshape(dlogits, (n, -1)), alloc)
        grads["head/W"] += dwh
        grads["head/b"] += dbh
    else:
        dh = alloc((n, d))
        dh.fill(0.0)
    dh, dg, db = layer_norm_backward(cache["final_ln"], dh, alloc)
    grads["final_ln/g"] += dg
    grads["final_ln/b"] += db

    # dh is a fresh buffer at every point dtap is added, so it adds in place
    for i in reversed(range(cfg.num_layers)):
        if dtap is not None and cfg.tap_layer == i + 1:
            dh += dtap
        dh = _block_backward(cache["blocks"][i], dh, params, i, cfg, grads, alloc)
    if dtap is not None and cfg.tap_layer == 0:
        dh += dtap

    rows = output.mask.rows
    grads["mask_emb"] += dh[rows].sum(axis=0)
    dh[rows] = 0.0                      # masked rows never saw the projection
    grads["proj/W"] += cache["features"].T @ dh
    grads["proj/b"] += dh.sum(axis=0)
    return grads
