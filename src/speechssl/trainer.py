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

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .augment import mix_batch
from .corpus import Batch, make_batch, read_json
from .dsp import MfccConfig, frame_count, mfcc_batch
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
    LossWeights,
    NonFiniteLoss,
    combine,
    content_loss_batch,
    contrastive_loss,
    diversity_loss,
    sample_negatives,
)
from .numerics import FlatArrays, adam_step, derive_seed, retain_freed_memory
from .pseudolabel import PseudoLabelSequence
from .quantizer import (
    QuantizerConfig,
    gumbel_noise,
    init_quantizer_params,
    quantize,
    quantize_backward,
    tau_at,
    usage_stats,
)

CLEAN_LABEL_SOURCES = ("mfcc", "embedding:layer")
# v7 saves the last codebook usage; v6 joined Wq, Wk, Wv (a v5 blob has as many floats)
CHECKPOINT_FORMAT = "speechssl-checkpoint-v7"
# HuBERT's Adam (arXiv 2106.07447)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.98, 1e-6
# a finite-difference gradient check passes below this max relative error
GRADCHECK_TOL = 1e-4

# once per process: a warm train step reuses the memory the last one freed
retain_freed_memory()


@dataclass
class Seeds:
    data: int = 0
    model: int = 1
    mixing: int = 2
    masking: int = 3
    negatives: int = 4
    noise: int = 5


# the JSON value types a key whose default has this type takes: a float key
# takes an int too, and a bool is never taken for a number
_VALUE_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
                float: ((int, float), "a number")}


def _config_from_doc(cls, doc: dict, prefix: str = ""):
    """Config dataclass `cls` from a JSON object; a key left out keeps its
    default. A document error raises TypeError naming the dotted key: an
    unknown key, a value where a section belongs or the reverse, a value of
    another JSON type than the default's, or an int too large for a float.
    A non-finite number, or a value a config check refuses, raises
    ValueError naming the dotted key too."""
    defaults, values = vars(cls()), {}
    for key, value in doc.items():
        name = prefix + key
        if key not in defaults:
            raise TypeError(f"unknown config key: {name!r}")
        default = defaults[key]
        if is_dataclass(default) != isinstance(value, dict):
            kind = "an object of keys" if is_dataclass(default) else "a single value"
            raise TypeError(f"config key {name!r} takes {kind}")
        if isinstance(value, dict):
            values[key] = _config_from_doc(type(default), value, f"{name}.")
            continue
        types, kind = _VALUE_TYPES[type(default)]
        refusal = TypeError(f"config key {name!r} takes {kind}, got {value!r}")
        if type(value) not in types:
            raise refusal
        try:
            values[key] = type(default)(value)
        except OverflowError:
            raise refusal from None
        if not math.isfinite(values[key]):
            raise ValueError(f"config key {name!r} must be finite, got {values[key]}")
    try:
        return cls(**values)
    except ValueError as exc:   # a section's check names its bare field first
        if not prefix:
            raise
        raise ValueError(f"config key {prefix}{exc}") from None


@dataclass
class TrainConfig:
    steps: int = 300
    batch_size: int = 8
    utterance_length: int = 8000
    learning_rate: float = 4e-3
    warmup_frac: float = 0.08
    mix_probability: float = 0.2
    speaker_loss: bool = True             # ablation: False trains on content only
    checkpoint_every: int = 0             # 0 = only final
    seeds: Seeds = field(default_factory=Seeds)
    weights: LossWeights = field(default_factory=LossWeights)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    mfcc: MfccConfig = field(default_factory=MfccConfig)

    def __post_init__(self):
        for key in ("warmup_frac", "mix_probability"):
            if not 0 <= getattr(self, key) <= 1:
                raise ValueError(f"config key {key!r} must lie in [0, 1], "
                                 f"got {getattr(self, key)}")
        # mixing draws a chunk of up to half the crop, so a crop holds >= 2 samples
        for key, low in (("steps", 1), ("batch_size", 1), ("checkpoint_every", 0),
                         ("learning_rate", 0), ("utterance_length", max(2, self.mfcc.window))):
            if getattr(self, key) < low:
                raise ValueError(f"config key {key!r} must be >= {low}, got {getattr(self, key)}")
        if self.speaker_loss and self.weights.num_negatives and self.batch_size < 2:
            raise ValueError("config key 'batch_size' must be >= 2 while the speaker loss "
                             f"draws negatives from other utterances, got {self.batch_size}")

    def to_dict(self) -> dict:
        return asdict(self)

    from_dict = classmethod(_config_from_doc)


def learning_rate_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup over warmup_frac of the run, then linear decay to 0."""
    warmup = max(1, math.ceil(cfg.warmup_frac * cfg.steps))
    if step <= warmup:
        return cfg.learning_rate * step / warmup
    return cfg.learning_rate * (cfg.steps - step) / (cfg.steps - warmup)


@dataclass
class TrainState:
    """Everything a run carries from step to step, and what a checkpoint
    saves: the config, parameters, Adam moments, the metrics rows of steps
    1..step and the last step's usage. Parameters and moments are FlatArrays."""

    config: TrainConfig
    params: FlatArrays
    adam_m: FlatArrays
    adam_v: FlatArrays
    step: int = 0
    metrics: list = field(default_factory=list)
    last_usage: np.ndarray | None = None  # batch-averaged codebook usage


def init_state(config: TrainConfig) -> TrainState:
    """The encoder reads `mfcc.dim` features; the quantizer reads and returns
    tap rows of the encoder's model width. Adam's moments start at zero."""
    model_seed = config.seeds.model
    params = init_encoder_params(config.encoder, config.mfcc.dim,
                                 derive_seed(model_seed, "encoder"))
    params.update(init_quantizer_params(config.quantizer, config.encoder.model_dim,
                                        derive_seed(model_seed, "quantizer")))
    params = FlatArrays.copy_of(params)
    return TrainState(config, params, zero_grads(params), zero_grads(params))


def adam_update(state: TrainState, grads: FlatArrays, lr: float) -> None:
    """In-place Adam step on the flat parameter, moment and gradient
    vectors: one pass over every parameter at once."""
    adam_step(state.params.flat, state.adam_m.flat, state.adam_v.flat, grads.flat,
              state.step, lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)


@dataclass
class ObjectiveResult:
    breakdown: LossBreakdown
    grads: dict | None                  # set when called with grads=True
    usage: np.ndarray | None            # batch-averaged codebook usage (speaker loss)


def _draws(num_frames: int, batch: int, config: TrainConfig, *key):
    """(mask, noise, negatives) of `batch` utterances of `num_frames` frames
    at `key` (a train step's is its step): utterance b's mask and noise rows
    from derive_seed(seeds.masking / seeds.noise, "mask" / "noise", *key, b),
    the negatives from derive_seed(seeds.negatives, "neg", *key). Noise and
    negatives are None when the speaker loss is off."""
    seeds = config.seeds
    mask = BatchMask.from_indices([
        sample_mask(num_frames, config.encoder, derive_seed(seeds.masking, "mask", *key, b))
        for b in range(batch)
    ], num_frames)
    if not config.speaker_loss:
        return mask, None, None
    noise_seeds = [derive_seed(seeds.noise, "noise", *key, b) for b in range(batch)]
    return (mask, gumbel_noise(noise_seeds, mask.counts, config.quantizer),
            sample_negatives(mask, config.weights.num_negatives,
                             derive_seed(seeds.negatives, "neg", *key)))


def objective(params: dict, features: np.ndarray, labels, mask: BatchMask,
              noise, negatives, tau: float, config: TrainConfig,
              grads: bool, hard: bool = True) -> ObjectiveResult:
    """The combined loss of a (B, T, D) feature batch and its mask: encoder
    forward -> quantize the tap rows at the batch's masked steps in one call
    -> contrastive, diversity and content terms, and with grads=True the
    manual backward into every parameter (FlatArrays). `noise` and
    `negatives` are the batch's draws from _draws, unused when the
    speaker loss is off. Training and the finite-difference check both
    evaluate this one function; training quantizes with hard
    (straight-through) selection, the check with soft (hard=False)."""
    enc_cfg = config.encoder
    out = forward(features, mask, params, enc_cfg, for_backward=grads)
    if config.speaker_loss:
        latent = out.tap.reshape(-1, enc_cfg.model_dim)[mask.rows]
        qout = quantize(latent, params, config.quantizer, tau, noise, hard=hard)
        usage = usage_stats(qout)
        div_value, dp_bar = diversity_loss(usage)
        contr = contrastive_loss(out.tap, qout.q, mask, config.weights, negatives)
        contrastive_value = contr.value
        num_pos, num_neg = contr.num_positives, contr.num_negatives
    else:
        usage = None
        contrastive_value, div_value = 0.0, 0.0
        num_pos = num_neg = 0
    cont_value, dlogits = content_loss_batch(out.content_logits, labels, mask)
    breakdown = combine(contrastive_value, div_value, cont_value, config.weights,
                        num_pos, num_neg, len(out.mask))
    if not grads:
        return ObjectiveResult(breakdown, None, usage)

    param_grads = zero_grads(params)
    dtap = None
    if config.speaker_loss:
        dtap = quantize_backward(qout, params, config.quantizer, tau, contr.dq,
                                 config.weights.alpha * dp_bar, param_grads)
        dtap += contr.danchors
    backward(out, params, enc_cfg, config.weights.beta * dlogits, dtap, param_grads)
    return ObjectiveResult(breakdown, param_grads, usage)


def train_step(state: TrainState, batch: Batch, labels, config: TrainConfig):
    """One optimization step. `labels` are per-batch-member pseudo-labels
    computed from the clean audio; `train` checks them once, before its
    first step. Returns (state, LossBreakdown). A non-finite activation or
    loss raises FloatingPointError naming the step and the utterance ids."""
    step = state.step + 1
    mixed = mix_batch(batch, config.mix_probability,
                      derive_seed(config.seeds.mixing, "mix", step))
    features = mfcc_batch([u.waveform for u in mixed.batch.utterances], config.mfcc)
    ids = [u.id for u in mixed.batch.utterances]
    del mixed                           # the mixed audio is not needed past its features
    mask, noise, negatives = _draws(features.shape[1], len(ids), config, step)
    tau = tau_at(step, config.steps)
    try:
        result = objective(state.params, features, labels, mask, noise, negatives, tau,
                           config, grads=True)
    except NonFiniteActivations as exc:
        bad = [ids[row] for row in exc.rows]
        raise FloatingPointError(f"step {step}, utterance(s) {bad}: {exc}") from exc
    except NonFiniteLoss as exc:
        raise FloatingPointError(f"step {step}, batch of utterances {ids}: {exc}") from exc
    if result.usage is not None:
        state.last_usage = result.usage

    state.step = step
    adam_update(state, result.grads, learning_rate_at(step, config))
    return state, result.breakdown


def draw_batch(corpus, config: TrainConfig, step: int) -> Batch:
    """Seeded per-step batch. When every utterance carries a speaker tag and
    enough speakers exist, members are drawn from distinct speakers (the
    contrastive loss treats other batch members as different-speaker
    negatives, so same-speaker collisions would push a speaker apart)."""
    seed = derive_seed(config.seeds.data, "batch", step)
    speakers = sorted({u.speaker for u in corpus if u.speaker is not None})
    stratify = (len(speakers) >= config.batch_size
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


def _check_labels(corpus, labels_by_id: dict, config: TrainConfig) -> None:
    """Refuse, naming the utterance, a corpus utterance without labels or
    whose labels are not from clean audio, do not have one label per frame
    of a training crop, or have more clusters than the content head."""
    frames = frame_count(config.utterance_length, config.mfcc.window, config.mfcc.hop)
    for utt in corpus:
        seq = labels_by_id.get(utt.id)
        if seq is None:
            raise ValueError(f"no labels for utterance {utt.id!r}")
        if not seq.source.startswith(CLEAN_LABEL_SOURCES):
            raise ValueError(f"utterance {utt.id!r}: label source {seq.source!r} is not a "
                             "clean-audio source; content targets must be computed before mixing")
        if len(seq) != frames:
            raise ValueError(f"utterance {utt.id!r}: {len(seq)} labels vs {frames} frames; "
                             "labels must come from the clean audio at the training "
                             "utterance length")
        if seq.k > config.encoder.num_classes:
            raise ValueError(f"utterance {utt.id!r}: labels of k={seq.k} exceed "
                             f"encoder.num_classes={config.encoder.num_classes}")


def train(state: TrainState, corpus, labels_by_id: dict[str, PseudoLabelSequence],
          out_dir=None, until_step: int | None = None) -> TrainState:
    """Run `state` (init_state(config) or load_checkpoint(stem)) to its
    config's last step, or to `until_step`, and return it. The batch size
    and every utterance's labels are checked before anything is written.
    With out_dir set, metrics stream to metrics.jsonl and checkpoints are
    written on the checkpoint_every schedule plus at the end. A checkpoint
    carries the metrics rows of every step up to it, so a resumed run's
    metrics, metrics.jsonl and summary.json equal the uninterrupted run's."""
    config = state.config
    if until_step is not None and until_step < 1:
        raise ValueError(f"until_step must be >= 1, got {until_step}")
    if config.batch_size > len(corpus):
        raise ValueError(f"config key 'batch_size' is {config.batch_size}, but the corpus "
                         f"holds {len(corpus)} utterances")
    _check_labels(corpus, labels_by_id, config)
    metrics = state.metrics
    last_step = config.steps if until_step is None else min(until_step, config.steps)

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
    return state


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
# Checkpointing: {stem}.json metadata (format, step, config, metrics rows and
# the blob's length and sha256) + {stem}.bin, the float64 little-endian
# concatenation of the params, adam_m and adam_v flat vectors. The config
# fixes the layout of all three, so it is the only layout the metadata keeps.
# Each file is written to a temporary name and renamed into place, the blob
# first, so a torn or mismatched pair is refused on load.


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def save_checkpoint(stem, state: TrainState) -> None:
    stem = Path(stem)
    blob = b"".join(group.flat.astype("<f8").tobytes()
                    for group in (state.params, state.adam_m, state.adam_v))
    meta = {
        "format": CHECKPOINT_FORMAT,
        "step": state.step,
        "config": state.config.to_dict(),
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "metrics": state.metrics,
        "usage": None if state.last_usage is None else state.last_usage.tolist(),
    }
    _write_atomic(stem.with_suffix(".bin"), blob)
    _write_atomic(stem.with_suffix(".json"), (json.dumps(meta, indent=2) + "\n").encode("utf-8"))


def load_checkpoint(stem) -> TrainState:
    """Load a checkpoint, checking the blob against the metadata's length
    and digest and the config's parameter count, and each metadata entry as
    it enters; a refusal raises ValueError naming the file and the entry."""
    stem = Path(stem)
    meta = read_json(stem.with_suffix(".json"), "checkpoint")
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format {meta.get('format')!r} in "
                         f"{stem}.json; this version reads {CHECKPOINT_FORMAT!r}")
    raw = stem.with_suffix(".bin").read_bytes()
    if (len(raw) != meta.get("blob_bytes")
            or hashlib.sha256(raw).hexdigest() != meta.get("blob_sha256")):
        raise ValueError(f"{stem}.bin does not match the length and digest in {stem}.json")
    for entry, kind, what in (("config", dict, "an object"), ("step", int, "an integer"),
                              ("metrics", list, "a list")):
        if type(meta.get(entry)) is not kind:
            raise ValueError(f"{stem}.json has no {entry!r} entry holding {what}, "
                             f"got {meta.get(entry)!r}")
    try:
        config = TrainConfig.from_dict(meta["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"the config in {stem}.json: {exc}") from None
    step, metrics = meta["step"], meta["metrics"]
    if step < 0:
        raise ValueError(f"the 'step' entry of {stem}.json must be >= 0, got {step}")
    if ([row.get("step") if isinstance(row, dict) else None for row in metrics]
            != list(range(1, step + 1))):
        raise ValueError(f"the 'metrics' entry of {stem}.json does not hold the rows of "
                         f"steps 1..{step}")
    row_keys = sorted({"step", "lr", *(f.name for f in fields(LossBreakdown))})
    for row in metrics:
        if sorted(row) != row_keys or any(type(v) not in (int, float) for v in row.values()):
            raise ValueError(f"the metrics row of step {row['step']} in {stem}.json must map "
                             f"each of {row_keys} to a number, got {row}")
    usage = meta.get("usage", "absent")
    g, v = config.quantizer.num_codebooks, config.quantizer.num_entries
    if usage is not None and not (type(usage) is list and len(usage) == g and all(
            type(row) is list and len(row) == v
            and all(type(x) in (int, float) and math.isfinite(x) for x in row) for row in usage)):
        raise ValueError(f"the 'usage' entry of {stem}.json must be null or a {g} x {v} list "
                         "(quantizer.num_codebooks x num_entries) of finite numbers")
    state = init_state(config)
    n = state.params.flat.size
    if len(raw) != 3 * 8 * n:
        raise ValueError(f"{stem}.bin holds {len(raw) / 8:.12g} floats, but the config in "
                         f"{stem}.json needs 3 x {n} = {3 * n} (parameters, adam_m, adam_v)")
    blob = np.frombuffer(raw, dtype="<f8")
    for i, group in enumerate((state.params, state.adam_m, state.adam_v)):
        group.flat[...] = blob[i * n : (i + 1) * n]
    state.step, state.metrics = step, metrics
    state.last_usage = None if usage is None else np.array(usage, dtype=np.float64)
    return state


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_group: dict
    num_coords: int

    def ok(self) -> bool:
        return self.max_rel_error < GRADCHECK_TOL


def tiny_config(seed: int = 0) -> TrainConfig:
    """A deliberately small configuration for finite-difference work."""
    return TrainConfig(
        steps=10,
        batch_size=3,
        utterance_length=400,
        mix_probability=0.0,
        weights=LossWeights(alpha=0.1, beta=1.0, kappa=0.1, num_negatives=4),
        encoder=EncoderConfig(
            model_dim=16, num_layers=2, num_heads=2, ffn_dim=24,
            num_classes=4, tap_layer=1, mask_span=2, mask_start_prob=0.3,
        ),
        quantizer=QuantizerConfig(num_codebooks=2, num_entries=4, entry_dim=8),
        mfcc=MfccConfig(num_ceps=2),    # 6 features with deltas
        seeds=Seeds(*(derive_seed(seed, f.name) for f in fields(Seeds))),
    )


def grad_check(config: TrainConfig | None = None, seed: int = 0,
               num_coords: int = 240) -> GradCheckReport:
    """Analytic gradients of the full combined loss vs central finite
    differences with soft quantizer selection (the hard argmax is not
    differentiable), at init_state(config)'s parameters with the _draws of
    step 0, which no run takes; config defaults to tiny_config(seed). Each
    parameter group gets one coordinate and the other num_coords - groups are
    drawn over the flat parameter vector, so a group is checked by its size."""
    config = config or tiny_config(seed)
    params = init_state(config).params
    rng = np.random.default_rng(derive_seed(config.seeds.data, "gradcheck"))
    num_frames, batch, classes = 8, config.batch_size, config.encoder.num_classes
    features = rng.standard_normal((batch, num_frames, config.mfcc.dim))
    labels = [PseudoLabelSequence(rng.integers(0, classes, num_frames), classes)
              for _ in range(batch)]
    mask, noise, negatives = _draws(num_frames, batch, config, 0)
    tau, step_size = 1.0, 1e-4          # step_size: the central-difference step

    def loss() -> float:
        return objective(params, features, labels, mask, noise, negatives, tau,
                         config, grads=False, hard=False).breakdown.total

    analytic = objective(params, features, labels, mask, noise, negatives, tau,
                         config, grads=True, hard=False).grads.flat

    sizes = [a.size for a in params.values()]     # the groups in flat-vector order
    group = np.repeat(list(params), sizes)        # each flat coordinate's group
    firsts = np.cumsum([0, *sizes[:-1]]) + rng.integers(sizes)
    rest = np.setdiff1d(np.arange(group.size), firsts)
    coords = [*firsts, *rng.choice(rest, max(0, num_coords - len(sizes)), replace=False)]
    flat, per_group = params.flat, dict.fromkeys(params, 0.0)
    for c in coords:
        original = flat[c]
        flat[c] = original + step_size
        up = loss()
        flat[c] = original - step_size
        down = loss()
        flat[c] = original
        fd = (up - down) / (2 * step_size)
        rel = abs(analytic[c] - fd) / max(abs(analytic[c]) + abs(fd), 1e-8)
        per_group[group[c]] = max(per_group[group[c]], rel)
    return GradCheckReport(max(per_group.values()), per_group, len(coords))
