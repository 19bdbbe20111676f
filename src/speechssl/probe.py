"""Frozen-representation diagnostics.

encode_corpus is the one loop that runs a frozen checkpoint over a corpus;
probing and re-clustering both read its outputs. speaker_separability
scores how well utterance-mean embeddings at a chosen layer cluster by
speaker, via leave-one-out nearest-centroid accuracy: a parameter-free
stand-in for a trained speaker classifier. fit_layer_weights learns a
softmax-weighted combination of layer outputs plus a linear head, exposing
which depths carry the probed information.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import Utterance, Waveform
from .dsp import mfcc
from .encoder import BatchMask, forward, sample_mask
from .numerics import derive_seed, rng_from, softmax, softmax_backward


@dataclass
class LayerWeights:
    logits: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.ndim != 1:
            raise ValueError("layer logits must be 1-D")

    @property
    def weights(self) -> np.ndarray:
        return softmax(self.logits)

    def __len__(self) -> int:
        return self.logits.size


def encode_corpus(checkpoint, corpus, mask_seed: int | None = None):
    """Run a frozen checkpoint over a corpus, one utterance (B=1) at a time.

    For each utterance: MFCC of the clean audio with the checkpoint's MFCC
    config, then one encoder forward. Yields (utterance, EncoderOutput,
    BatchMask of that one utterance). The mask is empty unless `mask_seed`
    is set; then utterance b gets the evaluation mask drawn from
    derive_seed(mask_seed, "eval-mask", b). A generator, so only the current
    utterance's output (which holds every block's caches) is kept alive.
    """
    cfg = checkpoint.encoder_config
    for b, utt in enumerate(corpus):
        feats = mfcc(utt.waveform, checkpoint.mfcc_config, meta=utt.id)
        indices = [] if mask_seed is None else sample_mask(
            feats.num_frames, cfg, derive_seed(mask_seed, "eval-mask", b), min_spans=1)
        mask = BatchMask.from_indices([indices], feats.num_frames)
        yield utt, forward(feats.frames[None], mask, checkpoint.params, cfg), mask


def _utterance_means(checkpoint, corpus):
    """Clean-audio utterance-mean embeddings at every layer, stacked as
    (num_layers + 1, n, d), plus the speaker tags in corpus order."""
    means, tags = [], []
    for utt, out, _ in encode_corpus(checkpoint, corpus):
        means.append([layer[0].mean(axis=0) for layer in out.layer_outputs])
        tags.append(utt.speaker)
    return np.stack([np.stack(rows) for rows in means], axis=1), tags


def loo_nearest_centroid_accuracy(embeddings: np.ndarray, classes) -> float:
    """Leave-one-out nearest-centroid accuracy; every class needs >= 2 members.

    The held-out point is excluded from its own class centroid; distance ties
    resolve to the first class in sorted order.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    classes = list(classes)
    names = sorted(set(classes))
    if len(names) < 2:
        raise ValueError("need at least 2 classes")
    index = {name: i for i, name in enumerate(names)}
    y = np.array([index[c] for c in classes])
    counts = np.bincount(y, minlength=len(names))
    if counts.min() < 2:
        small = names[int(np.argmin(counts))]
        raise ValueError(f"class {small!r} has fewer than 2 members")
    sums = np.zeros((len(names), embeddings.shape[1]))
    np.add.at(sums, y, embeddings)
    correct = 0
    for i, x in enumerate(embeddings):
        centroids = sums.copy()
        centroids[y[i]] -= x
        sizes = counts.copy().astype(np.float64)
        sizes[y[i]] -= 1
        centroids /= sizes[:, None]
        d2 = np.sum((centroids - x) ** 2, axis=1)
        correct += int(np.argmin(d2) == y[i])
    return correct / embeddings.shape[0]


def speaker_separability(checkpoint, corpus, layer: int) -> float:
    """Leave-one-out nearest-centroid speaker accuracy of utterance-mean
    embeddings at `layer` for a speaker-tagged corpus."""
    cfg = checkpoint.encoder_config
    if not 0 <= layer <= cfg.num_layers:
        raise ValueError(f"layer {layer} invalid for a {cfg.num_layers}-layer encoder")
    speakers = {u.speaker for u in corpus}
    if None in speakers or len(speakers) < 2:
        raise ValueError("corpus must carry at least 2 distinct speaker tags")
    means, tags = _utterance_means(checkpoint, corpus)
    return loo_nearest_centroid_accuracy(means[layer], tags)


def fit_layer_weights(
    per_layer_outputs: np.ndarray,
    targets,
    steps: int = 200,
    lr: float = 0.1,
    seed: int = 0,
):
    """Train (layer logits + linear head) on frozen per-layer features.

    per_layer_outputs: (num_layers, num_examples, d); targets: int class per
    example. Returns (LayerWeights, final accuracy). The representation fed
    to the head is the softmax-weighted layer combination, so the learned
    weights read out as a layer-contribution profile.
    """
    outputs = np.asarray(per_layer_outputs, dtype=np.float64)
    if outputs.ndim != 3:
        raise ValueError("per_layer_outputs must be (layers, examples, dim)")
    y = np.asarray(targets, dtype=np.int64)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("targets are degenerate: need at least 2 classes")
    num_layers, n, d = outputs.shape
    k = int(classes.max()) + 1
    rng = np.random.default_rng(seed)
    theta = np.zeros(num_layers)
    w = rng.standard_normal((d, k)) * 0.01
    b = np.zeros(k)

    moments = {name: [np.zeros_like(p), np.zeros_like(p)]
               for name, p in (("theta", theta), ("w", w), ("b", b))}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, steps + 1):
        lw = softmax(theta)
        rep = np.einsum("l,lnd->nd", lw, outputs)
        logits = rep @ w + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        probs = np.exp(shifted - logz)
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        grad_w = rep.T @ dlogits
        grad_b = dlogits.sum(axis=0)
        drep = dlogits @ w.T
        dlw = np.einsum("nd,lnd->l", drep, outputs)
        grad_theta = softmax_backward(lw, dlw)
        for name, p, g in (("theta", theta, grad_theta), ("w", w, grad_w), ("b", b, grad_b)):
            m, v = moments[name]
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            p -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    lw = softmax(theta)
    rep = np.einsum("l,lnd->nd", lw, outputs)
    accuracy = float(np.mean(np.argmax(rep @ w + b, axis=1) == y))
    return LayerWeights(theta), accuracy


def layer_profile(checkpoint, corpus, steps: int = 200, lr: float = 0.1, seed: int = 0):
    """Layer-contribution profile for the speaker task on a tagged corpus.

    Returns (LayerWeights, accuracy, per-layer separability dict).
    """
    stacked, tags = _utterance_means(checkpoint, corpus)
    index = {s: i for i, s in enumerate(sorted(set(tags)))}
    targets = np.array([index[t] for t in tags])
    weights, accuracy = fit_layer_weights(stacked, targets, steps=steps, lr=lr, seed=seed)
    separability = {
        layer: loo_nearest_centroid_accuracy(stacked[layer], tags)
        for layer in range(stacked.shape[0])
    }
    return weights, accuracy, separability


def masked_prediction_accuracy(checkpoint, corpus, labels_by_id, seed: int = 0) -> float:
    """Fraction of masked frames whose argmax content logit matches the
    pseudo-label, with fresh evaluation masks. Chance level is 1/k."""
    correct = 0
    total = 0
    for utt, out, mask in encode_corpus(checkpoint, corpus, mask_seed=seed):
        # one utterance: its mask rows are its frame indices
        predicted = np.argmax(out.content_logits[0, mask.rows], axis=1)
        target = labels_by_id[utt.id].labels[mask.rows]
        correct += int(np.sum(predicted == target))
        total += len(mask)
    return correct / total


def overlapped_corpus(corpus, seed: int = 0) -> list:
    """Simulated-overlap evaluation set: each utterance receives a chunk from
    a different speaker covering exactly half its length at matched energy.
    Speaker tags keep naming the main (dominant) speaker."""
    speakers = [u.speaker for u in corpus]
    if len(set(speakers)) < 2:
        raise ValueError("need at least 2 speakers to simulate overlap")
    out = []
    for i, utt in enumerate(corpus):
        rng = rng_from(seed, "overlap", i)
        others = [j for j, s in enumerate(speakers) if s != utt.speaker]
        source = corpus[others[rng.integers(len(others))]]
        n = len(utt.waveform)
        l = min(n // 2, len(source.waveform))
        s = int(rng.integers(0, n - l + 1))
        s_b = int(rng.integers(0, len(source.waveform) - l + 1))
        target_region = utt.waveform.samples[s : s + l]
        chunk = source.waveform.samples[s_b : s_b + l]
        chunk_energy = float(np.sum(chunk**2))
        gain = 1.0
        if chunk_energy > 0:
            gain = float(np.sqrt(np.sum(target_region**2) / chunk_energy))
        samples = utt.waveform.samples.copy()
        samples[s : s + l] += gain * chunk
        out.append(Utterance(utt.id, Waveform(samples, utt.waveform.sample_rate),
                             utt.speaker))
    return out


def ascii_bar_chart(values: dict, width: int = 40) -> str:
    """Render {label: value in [0, 1]} as fixed-width ASCII bars."""
    lines = []
    for label, value in values.items():
        bar = "#" * int(round(width * max(0.0, min(1.0, value))))
        lines.append(f"{str(label):>10s} | {bar:<{width}s} {value:.3f}")
    return "\n".join(lines)
