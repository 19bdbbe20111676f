"""Deterministic pre-training loop.

Every random draw is keyed on (named seed, step, utterance position), never
on mutable generator state, so any step can be recomputed in isolation:
two runs with the same seeds are bit-identical and resuming from a
checkpoint reproduces the uninterrupted run exactly.

Step order: draw batch -> mix -> features on mixed audio -> masks ->
encoder forward -> quantize tap rows at masked steps -> losses -> manual
backward -> Adam update. Pseudo-labels always come from clean audio; they
are computed before training and never recomputed from mixed waveforms.
"""

import functools
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .augment import FixedGain, GainPolicy, UniformSnrGain, mix_batch
from .corpus import Batch, make_batch
from .dsp import MfccConfig, mfcc_batch
from .encoder import (
    BatchMask,
    EncoderConfig,
    NonFiniteActivations,
    backward,
    forward,
    init_encoder_params,
    sample_mask,
    zero_grads,
)
from .losses import (
    LossBreakdown,
    LossCounts,
    LossWeights,
    combine,
    content_loss_batch,
    contrastive_loss,
    diversity_loss,
)
from .numerics import BufferPool, FlatArrays, derive_seed
from .pseudolabel import PseudoLabelSequence
from .quantizer import (
    QuantizerConfig,
    QuantizerState,
    gumbel_noise,
    init_quantizer_params,
    quantize,
    quantize_backward,
    tau_at,
    usage_stats,
)

CLEAN_LABEL_SOURCES = ("mfcc", "embedding:layer")
CHECKPOINT_FORMAT = "speechssl-checkpoint-v2"
ADAM_BLOCK = 8192   # elements per block of the flat Adam update (64 KiB per scratch vector)


@dataclass
class Seeds:
    data: int = 0
    model: int = 1
    mixing: int = 2
    masking: int = 3
    negatives: int = 4
    noise: int = 5


@dataclass
class TrainConfig:
    steps: int = 300
    batch_size: int = 8
    utterance_length: int = 8000
    learning_rate: float = 4e-3
    warmup_frac: float = 0.08
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-6
    mix_probability: float = 0.2
    gain_fixed: float | None = None       # set to use a fixed mixing gain
    gain_snr_low: float = -5.0
    gain_snr_high: float = 5.0
    quantizer_hard: bool = True
    speaker_loss: bool = True             # ablation: False trains on content only
    distinct_speakers: bool = True        # draw batches from distinct speakers
    checkpoint_every: int = 0             # 0 = only final
    seeds: Seeds = field(default_factory=Seeds)
    weights: LossWeights = field(default_factory=LossWeights)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    mfcc: MfccConfig = field(default_factory=MfccConfig)

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.quantizer.latent_dim != self.encoder.model_dim:
            raise ValueError("quantizer latent_dim must equal encoder model_dim")
        if self.quantizer.out_dim != self.encoder.model_dim:
            raise ValueError("quantizer out_dim must equal encoder model_dim")

    @functools.cached_property
    def scratch_pool(self) -> BufferPool:
        """The train step's scratch buffers, shared by every state that
        init_state or load_checkpoint makes from this config object. Not a
        field: it is not saved, compared or carried over by replace(). A
        pooled buffer is only handed out while nothing else refers to it,
        so states that share the pool never see each other's data."""
        return BufferPool()

    @property
    def gain_policy(self) -> GainPolicy:
        if self.gain_fixed is not None:
            return FixedGain(self.gain_fixed)
        return UniformSnrGain(self.gain_snr_low, self.gain_snr_high)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        for key, sub in (("seeds", Seeds), ("weights", LossWeights),
                         ("encoder", EncoderConfig), ("quantizer", QuantizerConfig),
                         ("mfcc", MfccConfig)):
            if key in data and isinstance(data[key], dict):
                data[key] = sub(**data[key])
        return cls(**data)


def learning_rate_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup over warmup_frac of the run, then linear decay to 0."""
    warmup = max(1, math.ceil(cfg.warmup_frac * cfg.steps))
    if step <= warmup:
        return cfg.learning_rate * step / warmup
    if cfg.steps == warmup:
        return cfg.learning_rate
    return cfg.learning_rate * (cfg.steps - step) / (cfg.steps - warmup)


@dataclass
class TrainState:
    """Everything a run carries from step to step, and what a checkpoint
    saves: the config, parameters, Adam moments and the metrics row of
    every step so far (1..step). Parameters and moments are FlatArrays.

    `pool` is not saved or compared: it holds the train step's scratch
    buffers for reuse by the next step (config.scratch_pool for a state from
    init_state or load_checkpoint), and changes no value. With None, every
    step allocates afresh."""

    config: TrainConfig
    params: FlatArrays
    adam_m: FlatArrays
    adam_v: FlatArrays
    step: int = 0
    metrics: list = field(default_factory=list)
    last_usage: np.ndarray | None = None  # batch-averaged codebook usage
    pool: BufferPool | None = field(default=None, repr=False, compare=False)

    @property
    def encoder_config(self) -> EncoderConfig:
        return self.config.encoder

    @property
    def mfcc_config(self) -> MfccConfig:
        return self.config.mfcc


def _initial_params(config: TrainConfig) -> dict:
    params = init_encoder_params(config.encoder, derive_seed(config.seeds.model, "encoder"))
    params.update(
        init_quantizer_params(config.quantizer, derive_seed(config.seeds.model, "quantizer"))
    )
    return params


def init_state(config: TrainConfig) -> TrainState:
    params = _initial_params(config)
    # a new run starts from an empty pool, so the memory the last run's
    # buffers held is free for this state's arrays
    config.scratch_pool.clear()
    params = FlatArrays.copy_of(params)
    shapes = {k: v.shape for k, v in params.items()}
    return TrainState(config, params, FlatArrays(shapes), FlatArrays(shapes),
                      pool=config.scratch_pool)


def _allocator(state: TrainState):
    return np.empty if state.pool is None else state.pool.empty


def adam_update(state: TrainState, grads: FlatArrays, lr: float, cfg: TrainConfig) -> None:
    """In-place Adam step on the flat parameter, moment and gradient
    vectors, a block of ADAM_BLOCK elements at a time so the two scratch
    vectors stay small. Each element sees the operations of the textbook
    per-array update, in the same order."""
    t = state.step
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    alloc = _allocator(state)
    s1, s2 = alloc((ADAM_BLOCK,)), alloc((ADAM_BLOCK,))
    vectors = (state.params.flat, state.adam_m.flat, state.adam_v.flat, grads.flat)
    for lo in range(0, grads.flat.size, ADAM_BLOCK):
        p, m, v, g = (x[lo:lo + ADAM_BLOCK] for x in vectors)
        a, b = s1[:g.size], s2[:g.size]
        m *= b1
        np.multiply(g, 1 - b1, out=a)
        m += a                                          # b1 m + (1 - b1) g
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        a *= g
        v += a                                          # b2 v + (1 - b2) g g
        np.divide(v, 1 - b2**t, out=a)                  # vhat
        np.sqrt(a, out=a)
        a += eps
        np.divide(m, 1 - b1**t, out=b)                  # mhat
        b *= lr
        b /= a                                          # lr mhat / (sqrt(vhat) + eps)
        p -= b


def _check_label_provenance(labels) -> None:
    for seq in labels:
        if not isinstance(seq, PseudoLabelSequence):
            raise ValueError("labels must be PseudoLabelSequence instances")
        if not seq.source.startswith(CLEAN_LABEL_SOURCES):
            raise ValueError(
                f"label source {seq.source!r} is not a clean-audio source; "
                "content targets must be computed before mixing"
            )


@dataclass
class ObjectiveSeeds:
    noise: list       # quantizer noise seed, one per utterance
    negatives: int    # negative-sampling seed of the batch


@dataclass
class ObjectiveResult:
    breakdown: LossBreakdown
    grads: dict | None                  # set when called with grads=True
    usage: np.ndarray | None            # batch-averaged codebook usage (speaker loss)


def objective(params: dict, features: np.ndarray, labels, mask: BatchMask,
              seeds: ObjectiveSeeds, tau: float, config: TrainConfig, grads: bool,
              alloc=np.empty) -> ObjectiveResult:
    """The combined loss of a (B, T, D) feature batch and its mask: encoder
    forward -> quantize the tap rows at the batch's masked steps in one call
    -> contrastive, diversity and content terms, and with grads=True the
    manual backward into every parameter (FlatArrays). Training and the
    finite-difference check both evaluate this one function. `alloc`
    supplies the encoder's batch-shaped buffers and the gradient vector (see
    numerics.BufferPool)."""
    enc_cfg = config.encoder
    out = forward(features, mask, params, enc_cfg, alloc)
    if config.speaker_loss:
        qstate = QuantizerState(config.quantizer, params, tau)
        latent = out.tap.reshape(-1, enc_cfg.model_dim)[mask.rows]
        noise = gumbel_noise(seeds.noise, mask.counts, config.quantizer)
        qout = quantize(latent, qstate, noise, hard=config.quantizer_hard)
        usage = usage_stats(qout)
        div_value, dp_bar = diversity_loss(usage)
        contr = contrastive_loss(out.tap, qout.q, mask, config.weights, seed=seeds.negatives)
        contrastive_value = contr.value
        num_pos, num_neg = contr.num_positives, contr.num_negatives
    else:
        usage = None
        contrastive_value, div_value = 0.0, 0.0
        num_pos = num_neg = 0
    cont_value, dlogits = content_loss_batch(out.content_logits, labels, mask)
    counts = LossCounts(num_pos, num_neg, len(out.mask))
    breakdown = combine(contrastive_value, div_value, cont_value, config.weights, counts)
    if not grads:
        return ObjectiveResult(breakdown, None, usage)

    param_grads = zero_grads(params, alloc)
    dtap = None
    if config.speaker_loss:
        dprobs = np.broadcast_to(config.weights.alpha * dp_bar / len(mask), qout.probs.shape)
        dlatent, qgrads = quantize_backward(qout, qstate, contr.dq, dprobs)
        for key, grad in qgrads.items():
            param_grads[key] += grad
        dtap = alloc(out.tap.shape)
        dtap.fill(0.0)
        dlatent += contr.danchors
        dtap.reshape(-1, enc_cfg.model_dim)[mask.rows] = dlatent
    backward(out, params, enc_cfg, dlogits=config.weights.beta * dlogits,
             dtap=dtap, grads=param_grads, alloc=alloc)
    return ObjectiveResult(breakdown, param_grads, usage)


def train_step(state: TrainState, batch: Batch, labels, config: TrainConfig):
    """One optimization step. `labels` are per-batch-member pseudo-labels
    computed from the clean audio. Returns (state, LossBreakdown). A
    non-finite activation or loss raises FloatingPointError naming the step
    and the utterance ids."""
    _check_label_provenance(labels)
    step = state.step + 1
    seeds = config.seeds

    mixed = mix_batch(
        batch, config.mix_probability, config.gain_policy,
        seed=derive_seed(seeds.mixing, "mix", step),
    )
    alloc = _allocator(state)
    features = mfcc_batch([u.waveform for u in mixed.batch.utterances], config.mfcc, alloc)
    ids = [u.id for u in mixed.batch.utterances]
    del mixed                           # the mixed audio is not needed past its features
    num_frames = features.shape[1]
    for uid, seq in zip(ids, labels):
        if num_frames != len(seq):
            raise ValueError(
                f"utterance {uid!r}: {num_frames} frames vs "
                f"{len(seq)} labels; labels must come from the clean audio "
                "at the training utterance length"
            )

    mask = BatchMask.from_indices([
        sample_mask(num_frames, config.encoder,
                    derive_seed(seeds.masking, "mask", step, b), min_spans=1)
        for b in range(len(ids))
    ], num_frames)
    step_seeds = ObjectiveSeeds(
        [derive_seed(seeds.noise, "noise", step, b) for b in range(len(ids))],
        derive_seed(seeds.negatives, "neg", step),
    )
    tau = tau_at(step, config.steps, config.quantizer.tau_start, config.quantizer.tau_end)
    try:
        result = objective(state.params, features, labels, mask, step_seeds, tau, config,
                           grads=True, alloc=alloc)
    except NonFiniteActivations as exc:
        bad = [ids[row] for row in exc.rows]
        raise FloatingPointError(f"step {step}, utterance(s) {bad}: {exc}") from exc
    breakdown = result.breakdown
    if not np.isfinite(breakdown.total):
        terms = [k for k, v in breakdown.as_dict().items() if not np.isfinite(v)]
        raise FloatingPointError(
            f"non-finite loss at step {step} in term(s) {terms} of the batch of "
            f"utterances {ids}: {breakdown}"
        )
    if result.usage is not None:
        state.last_usage = result.usage

    state.step = step
    adam_update(state, result.grads, learning_rate_at(step, config), config)
    return state, breakdown


def draw_batch(corpus, config: TrainConfig, step: int) -> Batch:
    """Seeded per-step batch. When every utterance carries a speaker tag and
    enough speakers exist, members are drawn from distinct speakers (the
    contrastive loss treats other batch members as different-speaker
    negatives, so same-speaker collisions would push a speaker apart)."""
    seed = derive_seed(config.seeds.data, "batch", step)
    speakers = sorted({u.speaker for u in corpus if u.speaker is not None})
    stratify = (config.distinct_speakers and len(speakers) >= config.batch_size
                and all(u.speaker is not None for u in corpus))
    if not stratify:
        return make_batch(corpus, config.batch_size, config.utterance_length, seed)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(speakers), size=config.batch_size, replace=False)
    members = []
    for idx in chosen:
        pool = [u for u in corpus if u.speaker == speakers[idx]]
        members.append(pool[rng.integers(len(pool))])
    batch = make_batch(members, config.batch_size, config.utterance_length,
                       seed=derive_seed(seed, "crop"))
    return batch


def mean_total_last_tenth(metrics) -> float:
    """Mean total loss over the last tenth of the rows (at least one)."""
    return float(np.mean([m["total"] for m in metrics[-max(1, len(metrics) // 10):]]))


def _first_difference(a: dict, b: dict, prefix: str = "") -> str | None:
    """Dotted name of the first key whose value differs between two config
    dicts of the same shape, or None when they are equal."""
    for key in a:
        if isinstance(a[key], dict):
            found = _first_difference(a[key], b[key], f"{prefix}{key}.")
            if found:
                return found
        elif a[key] != b[key]:
            return prefix + key
    return None


def train(
    config: TrainConfig,
    corpus,
    labels_by_id: dict[str, PseudoLabelSequence],
    out_dir=None,
    resume: TrainState | None = None,
    until_step: int | None = None,
):
    """Run (or continue) pre-training. Returns (TrainState, metrics list).

    With out_dir set, metrics stream to metrics.jsonl and checkpoints are
    written on the checkpoint_every schedule plus at the end. A checkpoint
    carries the metrics rows of every step up to it, so a resumed run's
    metrics, metrics.jsonl and summary.json equal the uninterrupted run's.
    A resumed state is continued in place and must carry the same config.
    """
    missing = [u.id for u in corpus if u.id not in labels_by_id]
    if missing:
        raise ValueError(f"no labels for utterances: {missing[:5]}")
    if resume is not None:
        if [m["step"] for m in resume.metrics] != list(range(1, resume.step + 1)):
            raise ValueError(
                f"checkpoint at step {resume.step} does not carry the metrics of "
                f"steps 1..{resume.step}; it cannot be resumed"
            )
        differs = _first_difference(resume.config.to_dict(), config.to_dict())
        if differs:
            raise ValueError(
                f"config key {differs!r} differs from the checkpoint's; a run "
                "resumes only with the config it was started with"
            )
        state = resume
    else:
        state = init_state(config)
    metrics = state.metrics
    last_step = min(until_step or config.steps, config.steps)

    out_dir = Path(out_dir) if out_dir is not None else None
    metrics_fh = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        # a resumed run rewrites the rows up to its checkpoint, so rows past
        # an intermediate checkpoint are not left behind as duplicates
        metrics_fh = open(out_dir / "metrics.jsonl", "w", encoding="utf-8")
        metrics_fh.writelines(json.dumps(record) + "\n" for record in metrics)
    try:
        while state.step < last_step:
            step = state.step + 1
            batch = draw_batch(corpus, config, step)
            labels = [labels_by_id[u.id] for u in batch.utterances]
            state, breakdown = train_step(state, batch, labels, config)
            record = {"step": step, "lr": learning_rate_at(step, config)}
            record.update(breakdown.as_dict())
            metrics.append(record)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(record) + "\n")
                metrics_fh.flush()
            if (out_dir is not None and config.checkpoint_every
                    and step % config.checkpoint_every == 0 and step < last_step):
                save_checkpoint(out_dir / f"checkpoint_{step:06d}", state)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    if out_dir is not None:
        save_checkpoint(out_dir / "checkpoint_final", state)
        summary = {"steps": state.step, "mean_total_last_tenth": mean_total_last_tenth(metrics)}
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        if state.last_usage is not None:
            write_usage_histogram(out_dir / "usage.json", state.last_usage)
    return state, metrics


def write_usage_histogram(path, p_bar: np.ndarray) -> None:
    """Codebook usage diagnostics: last-step averaged selection probabilities
    and each codebook's usage perplexity (V means perfectly uniform use)."""
    entropy = -np.sum(np.where(p_bar > 0, p_bar * np.log(p_bar), 0.0), axis=-1)
    doc = {
        "num_codebooks": int(p_bar.shape[0]),
        "num_entries": int(p_bar.shape[1]),
        "mean_probs": [row.tolist() for row in p_bar],
        "perplexity": np.exp(entropy).tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Checkpointing: {stem}.json metadata + {stem}.bin float64 little-endian blob.
# Each file is written to a temporary name and renamed into place, the blob
# first; the metadata records the blob's length and sha256, so a torn or
# mismatched pair is refused on load.


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def save_checkpoint(stem, state: TrainState) -> None:
    stem = Path(stem)
    manifest = []
    chunks = []
    offset = 0
    groups = (("param", state.params), ("adam_m", state.adam_m), ("adam_v", state.adam_v))
    for prefix, group in groups:
        for key in sorted(group):
            arr = np.ascontiguousarray(group[key], dtype=np.float64)
            manifest.append([f"{prefix}/{key}", offset, list(arr.shape)])
            chunks.append(arr.reshape(-1))
            offset += arr.size
    blob = np.concatenate(chunks).astype("<f8").tobytes()
    meta = {
        "format": CHECKPOINT_FORMAT,
        "step": state.step,
        "config": state.config.to_dict(),
        "manifest": manifest,
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "metrics": state.metrics,
    }
    _write_atomic(stem.with_suffix(".bin"), blob)
    _write_atomic(stem.with_suffix(".json"), (json.dumps(meta, indent=2) + "\n").encode("utf-8"))


def load_checkpoint(stem) -> TrainState:
    """Load a checkpoint, refusing a blob that does not match the manifest's
    length and digest, and a manifest whose entries are not exactly the
    parameter layout (names and shapes) that the checkpoint's config builds."""
    stem = Path(stem)
    meta = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise ValueError(f"{stem}.json is not a JSON object")
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {stem}")
    raw = stem.with_suffix(".bin").read_bytes()
    if (len(raw) != meta.get("blob_bytes")
            or hashlib.sha256(raw).hexdigest() != meta.get("blob_sha256")):
        raise ValueError(f"{stem}.bin does not match the length and digest in {stem}.json")
    blob = np.frombuffer(raw, dtype="<f8")
    for entry in ("config", "manifest", "step", "metrics"):
        if entry not in meta:
            raise ValueError(f"{stem}.json has no {entry!r} entry")
    try:
        config = TrainConfig.from_dict(meta["config"])
    except TypeError as exc:
        raise ValueError(f"the config in {stem}.json is not a TrainConfig: {exc}") from exc
    layout = {key: value.shape for key, value in _initial_params(config).items()}
    groups = {"param": {}, "adam_m": {}, "adam_v": {}}
    for entry in meta["manifest"]:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and isinstance(entry[1], int) and entry[1] >= 0 and isinstance(entry[2], list)):
            raise ValueError(f"checkpoint entry {entry!r} in {stem}.json is not "
                             "[name, offset, shape]")
        name, offset, shape = entry
        prefix, _, key = name.partition("/")
        if prefix not in groups or key in groups[prefix] or layout.get(key) != tuple(shape):
            raise ValueError(f"checkpoint entry {name} with shape {shape} is not in the "
                             f"parameter layout of the config in {stem}.json")
        size = int(np.prod(shape)) if shape else 1
        if offset + size > blob.size:
            raise ValueError(f"checkpoint entry {name} runs past the end of {stem}.bin")
        groups[prefix][key] = blob[offset : offset + size].reshape(shape)
    for prefix, group in groups.items():
        missing = sorted(layout.keys() - group.keys())
        if missing:
            raise ValueError(f"checkpoint entry {prefix}/{missing[0]} is missing from {stem}.json")
    params, adam_m, adam_v = (FlatArrays.copy_of(groups[g]) for g in ("param", "adam_m", "adam_v"))
    return TrainState(config, params, adam_m, adam_v, meta["step"], meta["metrics"],
                      pool=config.scratch_pool)


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_group: dict
    num_coords: int

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_error < tol


def tiny_config(seed: int = 0) -> TrainConfig:
    """A deliberately small configuration for finite-difference work."""
    return TrainConfig(
        steps=10,
        batch_size=3,
        utterance_length=400,
        mix_probability=0.0,
        quantizer_hard=False,
        weights=LossWeights(alpha=0.1, beta=1.0, kappa=0.1, num_negatives=4),
        encoder=EncoderConfig(
            input_dim=6, model_dim=16, num_layers=2, num_heads=2, ffn_dim=24,
            num_classes=4, tap_layer=1, mask_span=2, mask_start_prob=0.3,
        ),
        quantizer=QuantizerConfig(
            num_codebooks=2, num_entries=4, entry_dim=8, latent_dim=16, out_dim=16,
        ),
        seeds=Seeds(*(derive_seed(seed, name) for name in
                      ("data", "model", "mixing", "masking", "negatives", "noise"))),
    )


def grad_check(
    config: TrainConfig | None = None,
    seed: int = 0,
    num_coords: int = 240,
    step_size: float = 1e-4,
    groups: list[str] | None = None,
) -> GradCheckReport:
    """Analytic gradients of the full combined loss vs central finite
    differences, sampled across every parameter group (soft quantizer mode)."""
    config = config or tiny_config(seed)
    if config.quantizer_hard:
        config = replace(config, quantizer_hard=False)
    rng = np.random.default_rng(derive_seed(seed, "gradcheck"))
    num_frames = 8
    enc = config.encoder
    features = np.stack([
        rng.standard_normal((num_frames, enc.input_dim)) for _ in range(config.batch_size)
    ])
    labels = [
        PseudoLabelSequence(rng.integers(0, enc.num_classes, num_frames), enc.num_classes)
        for _ in range(config.batch_size)
    ]
    mask = BatchMask.from_indices([
        sample_mask(num_frames, enc, derive_seed(seed, "mask", b), min_spans=1)
        for b in range(config.batch_size)
    ], num_frames)
    seeds = ObjectiveSeeds([derive_seed(seed, "noise", b) for b in range(config.batch_size)],
                           derive_seed(seed, "neg"))
    tau = 1.0

    params = init_encoder_params(enc, derive_seed(seed, "enc-params"))
    params.update(init_quantizer_params(config.quantizer, derive_seed(seed, "q-params")))

    def loss() -> float:
        return objective(params, features, labels, mask, seeds, tau, config,
                         grads=False).breakdown.total

    analytic = objective(params, features, labels, mask, seeds, tau, config,
                         grads=True).grads

    keys = sorted(params) if groups is None else [
        k for k in sorted(params) if any(k.startswith(g) for g in groups)
    ]
    if not keys:
        raise ValueError("no parameter groups matched")
    per_key = max(1, math.ceil(num_coords / len(keys)))
    per_group: dict[str, float] = {}
    checked = 0
    for key in keys:
        flat = params[key].reshape(-1)
        n = min(per_key, flat.size)
        coords = rng.choice(flat.size, size=n, replace=False)
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + step_size
            up = loss()
            flat[c] = original - step_size
            down = loss()
            flat[c] = original
            fd = (up - down) / (2 * step_size)
            an = analytic[key].reshape(-1)[c]
            rel = abs(an - fd) / max(abs(an) + abs(fd), 1e-8)
            worst = max(worst, rel)
            checked += 1
        per_group[key] = worst
    return GradCheckReport(max(per_group.values()), per_group, checked)
