"""Frozen-representation diagnostics.

encode_corpus is the one loop that runs a frozen checkpoint over a corpus;
probing and re-clustering both read its outputs. utterance_means is the one
pass that speaker scores read: every layer's utterance-mean embeddings of a
speaker-tagged corpus. loo_nearest_centroid_accuracy scores how well one
layer's means cluster by speaker: a parameter-free stand-in for a trained
speaker classifier. fit_layer_weights learns a softmax-weighted combination
of layer outputs plus a linear head, exposing which depths carry the probed
information.
"""

from dataclasses import replace
from itertools import groupby, islice

import numpy as np

from .augment import chunk_gain
from .corpus import Utterance
from .dsp import mfcc_batch
from .encoder import BatchMask, forward, sample_mask
from .numerics import (FlatArrays, adam_step, derive_seed, log_softmax, rng_from,
                       softmax, softmax_backward)


def encode_corpus(checkpoint, corpus, mask_seed: int | None = None,
                  num_layers: int | None = None):
    """Run a frozen checkpoint over a corpus in chunks of at most its
    `batch_size` consecutive utterances of one length: per chunk, one
    clean-audio MFCC batch and one encoder forward through the first
    `num_layers` blocks (default all; the tap layer clipped to them).
    Yields (utterances, EncoderOutput); output row i is the B=1 forward of
    utterances[i] bit for bit. The output's mask is empty unless `mask_seed`
    is set; then corpus index b's mask is drawn from derive_seed(mask_seed,
    "eval-mask", b). The forward keeps no backward state."""
    config, cfg = checkpoint.config, checkpoint.config.encoder
    if num_layers is not None:
        cfg = replace(cfg, num_layers=num_layers, tap_layer=min(cfg.tap_layer, num_layers))
    # each utterance's audio is read once, and at most a chunk of it is held
    audio = ((b, utt, utt.waveform) for b, utt in enumerate(corpus))
    for _, run in groupby(audio, key=lambda item: len(item[2])):
        while piece := list(islice(run, config.batch_size)):
            indices, chunk, waveforms = zip(*piece)
            features = mfcc_batch(list(waveforms), config.mfcc)
            t = features.shape[1]
            mask = BatchMask.from_indices([[] if mask_seed is None else sample_mask(
                t, cfg, derive_seed(mask_seed, "eval-mask", b)) for b in indices], t)
            yield list(chunk), forward(features, mask, checkpoint.params, cfg,
                                       for_backward=False)


def utterance_means(checkpoint, corpus):
    """Clean-audio utterance-mean embeddings at every layer, stacked as
    (num_layers + 1, n, d), plus the speaker tags in corpus order. Refuses,
    before encoding anything, an untagged utterance (naming it) and a corpus
    of fewer than 2 speakers."""
    for utt in corpus:
        if utt.speaker is None:
            raise ValueError(f"utterance {utt.id!r} carries no speaker tag")
    if len({utt.speaker for utt in corpus}) < 2:
        raise ValueError("corpus must carry at least 2 distinct speaker tags")
    means = [np.stack([layer.mean(axis=1) for layer in out.layer_outputs])
             for _, out in encode_corpus(checkpoint, corpus)]
    return np.concatenate(means, axis=1), [utt.speaker for utt in corpus]


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
    n = embeddings.shape[0]
    sums = np.zeros((len(names), embeddings.shape[1]))
    np.add.at(sums, y, embeddings)
    # every held-out point at once: row i holds the centroids without point i
    centroids = np.repeat(sums[None], n, axis=0)
    centroids[np.arange(n), y] -= embeddings
    centroids /= (counts - np.eye(len(names), dtype=np.int64)[y])[:, :, None]
    d2 = np.sum((centroids - embeddings[:, None]) ** 2, axis=2)
    return int(np.sum(np.argmin(d2, axis=1) == y)) / n


def fit_layer_weights(
    per_layer_outputs: np.ndarray,
    targets,
    steps: int = 200,
    lr: float = 0.1,
    seed: int = 0,
):
    """Train (layer logits + linear head) on frozen per-layer features.

    per_layer_outputs: (num_layers, num_examples, d); targets: int class per
    example. Returns (softmax layer weights, final accuracy). The
    representation fed to the head is the softmax-weighted layer
    combination, so the learned weights read out as a layer-contribution
    profile.
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
    shapes = {"theta": (num_layers,), "w": (d, k), "b": (k,)}
    params, grads, m, v = (FlatArrays(shapes) for _ in range(4))
    theta, w, b = params["theta"], params["w"], params["b"]
    w[...] = rng.standard_normal((d, k)) * 0.01
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, steps + 1):
        lw = softmax(theta)
        rep = np.einsum("l,lnd->nd", lw, outputs)
        dlogits = np.exp(log_softmax(rep @ w + b))
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        grads["w"][...] = rep.T @ dlogits
        grads["b"][...] = dlogits.sum(axis=0)
        drep = dlogits @ w.T
        dlw = np.einsum("nd,lnd->l", drep, outputs)
        grads["theta"][...] = softmax_backward(lw, dlw)
        adam_step(params.flat, m.flat, v.flat, grads.flat, t, lr, beta1, beta2, eps)
    lw = softmax(theta)
    rep = np.einsum("l,lnd->nd", lw, outputs)
    accuracy = float(np.mean(np.argmax(rep @ w + b, axis=1) == y))
    return lw, accuracy


def layer_profile(means, tags, steps: int = 200, seed: int = 0):
    """Layer-contribution profile for the speaker task from utterance_means'
    (num_layers + 1, n, d) means and speaker tags.

    Returns (softmax layer weights, accuracy, per-layer separability dict).
    """
    index = {s: i for i, s in enumerate(sorted(set(tags)))}
    targets = np.array([index[t] for t in tags])
    weights, accuracy = fit_layer_weights(means, targets, steps=steps, seed=seed)
    separability = {layer: loo_nearest_centroid_accuracy(means[layer], tags)
                    for layer in range(means.shape[0])}
    return weights, accuracy, separability


def masked_prediction_accuracy(checkpoint, corpus, labels_by_id, seed: int = 0) -> float:
    """Fraction of masked frames whose argmax content logit matches the
    pseudo-label, with fresh evaluation masks. Chance level is 1/k. Refuses,
    naming the utterance, labels of another length than its frame count."""
    correct = total = 0
    for chunk, out in encode_corpus(checkpoint, corpus, mask_seed=seed):
        labels = [labels_by_id[utt.id].labels for utt in chunk]
        for utt, seq in zip(chunk, labels):
            if seq.size != out.mask.num_frames:
                raise ValueError(f"utterance {utt.id!r}: {seq.size} labels vs "
                                 f"{out.mask.num_frames} frames")
        logits = out.content_logits.reshape(-1, out.content_logits.shape[-1])[out.mask.rows]
        correct += int(np.sum(np.argmax(logits, axis=1) == np.concatenate(labels)[out.mask.rows]))
        total += len(out.mask)
    return correct / total


def overlapped_corpus(corpus, seed: int = 0) -> list:
    """Simulated-overlap evaluation set: each utterance receives a chunk from
    a different speaker covering exactly half its length at matched energy
    (0 dB; unit gain over a silent region, as in training's mixing).
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
        chunk = source.waveform[s_b : s_b + l]
        samples = utt.waveform.copy()
        samples[s : s + l] += chunk_gain(samples[s : s + l], chunk, 0.0) * chunk
        out.append(Utterance(utt.id, samples, utt.speaker))
    return out


def ascii_bar_chart(values: dict, width: int = 40) -> str:
    """Render {label: value in [0, 1]} as fixed-width ASCII bars."""
    lines = []
    for label, value in values.items():
        bar = "#" * int(round(width * max(0.0, min(1.0, value))))
        lines.append(f"{str(label):>10s} | {bar:<{width}s} {value:.3f}")
    return "\n".join(lines)
