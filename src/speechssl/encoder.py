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
B=1 case.
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
    model_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4
    ffn_dim: int = 128
    num_classes: int = 16
    tap_layer: int = 2
    mask_span: int = 10
    mask_start_prob: float = 0.08

    def __post_init__(self):
        if self.num_layers < 0:     # 0 is a block-free encoder
            raise ValueError(f"num_layers must be >= 0, got {self.num_layers}")
        if not 0 <= self.tap_layer <= self.num_layers:
            raise ValueError(f"tap_layer must be in [0, {self.num_layers}], got {self.tap_layer}")
        for key in ("model_dim", "num_heads", "ffn_dim", "num_classes", "mask_span"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.model_dim % self.num_heads != 0:
            raise ValueError(f"num_heads {self.num_heads} must divide model_dim {self.model_dim}")
        if not 0.0 <= self.mask_start_prob <= 1.0:
            raise ValueError(f"mask_start_prob must lie in [0, 1], got {self.mask_start_prob}")


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


def sample_mask(num_frames: int, cfg: EncoderConfig, seed: int) -> np.ndarray:
    """Each frame starts a span of `mask_span` frames (clipped at the end)
    with probability `mask_start_prob`; overlapping spans merge. When no
    frame starts a span, one fallback span starts at a seeded frame, so the
    mask is never empty. Returns the masked frame indices, increasing."""
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    rng = np.random.default_rng(seed)
    starts = np.nonzero(rng.random(num_frames) < cfg.mask_start_prob)[0]
    if starts.size == 0:
        starts = np.array([rng.integers(num_frames)])
    # +1 where a span starts and -1 where it ends: the running sum counts
    # the spans covering each frame
    ends = np.minimum(starts + cfg.mask_span, num_frames)
    edges = np.bincount(starts, minlength=num_frames + 1)
    edges -= np.bincount(ends, minlength=num_frames + 1)
    return np.flatnonzero(np.cumsum(edges[:num_frames]))


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


def init_encoder_params(cfg: EncoderConfig, input_dim: int, seed: int) -> dict:
    """Parameters for frames of `input_dim` features (the MFCC width)."""
    rng = np.random.default_rng(seed)
    d = cfg.model_dim

    def xavier(n_in, n_out):
        limit = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-limit, limit, (n_in, n_out))

    params = {}
    params["proj/W"] = xavier(input_dim, d)
    params["proj/b"] = np.zeros(d)
    params["mask_emb"] = rng.normal(0.0, 0.1, d)
    for i in range(cfg.num_layers):
        params[f"block{i}/ln1/g"] = np.ones(d)
        params[f"block{i}/ln1/b"] = np.zeros(d)
        # attention projections carry no biases: a key bias is provably inert
        # under softmax and would defeat finite-difference verification. Wqkv
        # holds the q, k and v projections side by side, each drawn as (d, d)
        params[f"block{i}/attn/Wqkv"] = np.concatenate([xavier(d, d) for _ in "qkv"], axis=1)
        params[f"block{i}/attn/Wo"] = xavier(d, d)
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


def zero_grads(params: dict) -> FlatArrays:
    """Zeros shaped like `params`, as views into one flat vector."""
    return FlatArrays({k: v.shape for k, v in params.items()})


# ---------------------------------------------------------------------------
# Transformer. Activations are (B*T, d) row matrices; attention alone sees
# the batch axis.


def _attention_context(attn, vh):
    """attn @ v per head, laid out as (B*T, d) rows with the heads side by side."""
    batch, num_heads, t, dh = vh.shape
    ctx = np.empty((batch * t, num_heads * dh))
    np.matmul(attn, vh, out=ctx.reshape(batch, t, num_heads, dh).transpose(0, 2, 1, 3))
    return ctx


def _attention_forward(x, params, prefix, num_heads, batch):
    # the context rows are not cached: backward recomputes them from attn and v
    n, d = x.shape
    t = n // batch
    dh = d // num_heads
    qkv = x @ params[f"{prefix}/Wqkv"]
    qh, kh, vh = qkv.reshape(batch, t, 3, num_heads, dh).transpose(2, 0, 3, 1, 4)
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores /= np.sqrt(dh)
    attn = softmax(scores, axis=-1)
    del scores
    out = _attention_context(attn, vh) @ params[f"{prefix}/Wo"]
    return out, (qh, kh, vh, attn)


def _attention_backward(cache, x, dout, params, prefix, num_heads, grads):
    """`x` is the attention input, recomputed by the caller rather than cached."""
    qh, kh, vh, attn = cache
    batch, _, t, dh = qh.shape
    grads[f"{prefix}/Wo"] += _attention_context(attn, vh).T @ dout
    dctx_h = dout @ params[f"{prefix}/Wo"].T
    dctx_h = dctx_h.reshape(batch, t, num_heads, dh).transpose(0, 2, 1, 3)
    # the score gradient is formed before dqkv is created, and dies before
    # the last product, which keeps the step's peak memory down
    dattn = dctx_h @ vh.transpose(0, 1, 3, 2)
    dscores = softmax_backward(attn, dattn)
    del dattn
    dscores /= np.sqrt(dh)
    dqkv = np.empty((batch * t, 3 * num_heads * dh))    # columns laid out as Wqkv's
    dqh, dkh, dvh = dqkv.reshape(batch, t, 3, num_heads, dh).transpose(2, 0, 3, 1, 4)
    np.matmul(attn.transpose(0, 1, 3, 2), dctx_h, out=dvh)
    np.matmul(dscores, kh, out=dqh)
    np.matmul(dscores.transpose(0, 1, 3, 2), qh, out=dkh)
    del dscores, dctx_h
    grads[f"{prefix}/Wqkv"] += x.T @ dqkv
    return dqkv @ params[f"{prefix}/Wqkv"].T


def _block_forward(x, params, i, cfg, batch):
    # The cache keeps the layer-norm, GELU and attention caches only: backward
    # recomputes the two layer-norm outputs, the GELU output and the attention
    # context from them with the same operations, which keeps the activations
    # held from forward to backward small.
    n1, c_ln1 = layer_norm_forward(x, params[f"block{i}/ln1/g"], params[f"block{i}/ln1/b"])
    a, c_attn = _attention_forward(n1, params, f"block{i}/attn", cfg.num_heads, batch)
    del n1
    a += x
    n2, c_ln2 = layer_norm_forward(a, params[f"block{i}/ln2/g"], params[f"block{i}/ln2/b"])
    pre = n2 @ params[f"block{i}/ffn/W1"]
    del n2
    pre += params[f"block{i}/ffn/b1"]
    act, c_gelu = gelu_forward(pre)
    y = act @ params[f"block{i}/ffn/W2"]
    del act
    y += params[f"block{i}/ffn/b2"]
    y += a
    return y, (c_ln1, c_attn, c_ln2, c_gelu)


def _block_backward(cache, dy, params, i, cfg, grads):
    # `d` carries the gradient down the block; rebinding it frees each
    # intermediate as soon as the next one exists. dy is consumed: it ends
    # up holding the residual gradient.
    c_ln1, c_attn, c_ln2, c_gelu = cache
    d, dw2, db2 = linear_backward(gelu_output(c_gelu), params[f"block{i}/ffn/W2"], dy)
    grads[f"block{i}/ffn/W2"] += dw2
    grads[f"block{i}/ffn/b2"] += db2
    d = gelu_backward(c_gelu, d)
    d, dw1, db1 = linear_backward(layer_norm_output(c_ln2, params[f"block{i}/ln2/b"]),
                                  params[f"block{i}/ffn/W1"], d)
    grads[f"block{i}/ffn/W1"] += dw1
    grads[f"block{i}/ffn/b1"] += db1
    d, dg2, dbias2 = layer_norm_backward(c_ln2, d)
    grads[f"block{i}/ln2/g"] += dg2
    grads[f"block{i}/ln2/b"] += dbias2
    dy += d                             # the gradient at the attention residual
    d = _attention_backward(c_attn, layer_norm_output(c_ln1, params[f"block{i}/ln1/b"]),
                            dy, params, f"block{i}/attn", cfg.num_heads, grads)
    d, dg1, dbias1 = layer_norm_backward(c_ln1, d)
    grads[f"block{i}/ln1/g"] += dg1
    grads[f"block{i}/ln1/b"] += dbias1
    d += dy
    return d


def forward(frames: np.ndarray, mask: BatchMask, params: dict,
            cfg: EncoderConfig, for_backward: bool = True) -> EncoderOutput:
    """Project a (B, T, D) batch, replace the frames that `mask` marks with
    the learned mask embedding, run the transformer stack, and emit
    per-layer outputs plus content logits. layer_outputs[0] is the
    projected corrupted input; layer_outputs[j] is the output of block j.
    Only with for_backward does the output keep the state backward reads
    (its `cache`); a frozen pass holds at most one block's caches at a time.
    Non-finite activations out of a block raise NonFiniteActivations naming
    the block and the batch rows."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3:
        raise ValueError(f"frames must be a (B, T, D) array, got shape {frames.shape}")
    batch, t, dim = frames.shape
    if dim != params["proj/W"].shape[0]:
        raise ValueError(f"feature dim {dim} != the projection's input width "
                         f"{params['proj/W'].shape[0]}")
    if (mask.batch_size, mask.num_frames) != (batch, t):
        raise ValueError(
            f"masks cover {mask.batch_size} utterances of {mask.num_frames} frames, "
            f"but the batch holds {batch} utterances of {t} frames"
        )

    def per_utterance(rows):
        return rows.reshape(batch, t, -1)

    n, d = batch * t, cfg.model_dim
    feats = frames.reshape(n, dim)
    h0 = feats @ params["proj/W"]
    h0 += params["proj/b"]
    h0[mask.rows] = params["mask_emb"]  # BatchMask checked the rows lie in range
    layer_outputs = [per_utterance(h0)]
    block_caches = []
    h = h0
    if cfg.num_layers >= 1:
        h = (layer_outputs[0] + sinusoidal_positions(t, d)).reshape(n, d)
        for i in range(cfg.num_layers):
            h, cache = _block_forward(h, params, i, cfg, batch)
            finite = np.isfinite(h).reshape(batch, -1).all(axis=1)
            if not finite.all():
                raise NonFiniteActivations(i, np.flatnonzero(~finite).tolist())
            if for_backward:
                block_caches.append(cache)
            del cache
            layer_outputs.append(per_utterance(h))
    final, c_final = layer_norm_forward(h, params["final_ln/g"], params["final_ln/b"])
    logits = final @ params["head/W"]
    logits += params["head/b"]
    cache = {"features": feats, "blocks": block_caches, "final_ln": c_final}
    return EncoderOutput(layer_outputs[cfg.tap_layer], per_utterance(final), per_utterance(logits),
                         mask, layer_outputs, cache if for_backward else {})


def backward(output: EncoderOutput, params: dict, cfg: EncoderConfig,
             dlogits: np.ndarray, dtap: np.ndarray | None, grads: dict) -> dict:
    """Accumulate into `grads` the parameter gradients for upstream
    gradients arriving at the content logits (B, T, C) and, unless dtap is
    None, at the tap layer's masked rows: (P, d), in the mask's row order.
    Returns `grads`."""
    cache = output.cache
    n = output.num_frames
    rows = output.mask.rows

    dh, dwh, dbh = linear_backward(output.final.reshape(n, -1), params["head/W"],
                                   np.reshape(dlogits, (n, -1)))
    grads["head/W"] += dwh
    grads["head/b"] += dbh
    dh, dg, db = layer_norm_backward(cache["final_ln"], dh)
    grads["final_ln/g"] += dg
    grads["final_ln/b"] += db

    # dh is a fresh buffer at every point dtap is added, so it adds in place
    for i in reversed(range(cfg.num_layers)):
        if dtap is not None and cfg.tap_layer == i + 1:
            dh[rows] += dtap
        dh = _block_backward(cache["blocks"][i], dh, params, i, cfg, grads)
    if dtap is not None and cfg.tap_layer == 0:
        dh[rows] += dtap

    grads["mask_emb"] += dh[rows].sum(axis=0)
    dh[rows] = 0.0                      # masked rows never saw the projection
    grads["proj/W"] += cache["features"].T @ dh
    grads["proj/b"] += dh.sum(axis=0)
    return grads
