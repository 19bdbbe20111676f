"""Offline k-means pseudo-labeling.

First-pass labels cluster MFCC frames; later passes re-cluster the frame
outputs of an intermediate encoder layer from a trained checkpoint. Fitting
is Lloyd's algorithm with k-means++ seeding, deterministic under the seed,
with the recorded inertia history guaranteed non-increasing.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import FeatureSequence
from .numerics import rng_from
from .probe import encode_corpus

FIT_CHUNK = 512   # rows per (chunk, k, d) difference block in _pairwise_sq_dists


@dataclass
class PseudoLabelSequence:
    """Per-frame cluster indices in [0, k)."""

    labels: np.ndarray
    k: int
    source: str = "mfcc"

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D sequence")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError(f"labels must lie in [0, {self.k})")

    def __len__(self) -> int:
        return self.labels.size


@dataclass
class KmeansModel:
    centers: np.ndarray
    inertia: float
    iterations_run: int
    seed: int
    inertia_history: list = field(default_factory=list)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("centers must be finite")
        if self.inertia < 0:
            raise ValueError("inertia must be >= 0")

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Exact (n, k) squared distances via explicit differences.

    The expanded |x|^2 - 2xc + |c|^2 form rounds asymmetrically, which would
    break lowest-index tie-breaking on exactly equidistant points.
    """
    out = np.empty((points.shape[0], centers.shape[0]))
    for start in range(0, points.shape[0], FIT_CHUNK):
        chunk = points[start : start + FIT_CHUNK]
        diff = chunk[:, None, :] - centers[None, :, :]
        out[start : start + chunk.shape[0]] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    dist2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = dist2.sum()
        if total > 0:
            pick = rng.choice(n, p=dist2 / total)
        else:
            pick = rng.integers(n)
        centers[j] = points[pick]
        dist2 = np.minimum(dist2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int):
    history = []
    prev_assign = None
    iterations = 0
    for _ in range(max_iters):
        d2 = _pairwise_sq_dists(points, centers)
        assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(points.shape[0]), assign].sum()))
        iterations += 1
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        # Reseed empty clusters at the point farthest from its own center;
        # the moved center served no point, so inertia cannot increase.
        point_d2 = d2[np.arange(points.shape[0]), assign]
        taken: set[int] = set()
        for j in range(centers.shape[0]):
            members = assign == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
            else:
                order = np.argsort(-point_d2, kind="stable")
                far = next(int(i) for i in order if int(i) not in taken)
                taken.add(far)
                centers[j] = points[far]
    return centers, history, iterations


def kmeans_fit(
    frames: np.ndarray,
    k: int,
    max_iters: int = 100,
    seed: int = 0,
    restarts: int = 1,
    sample_cap: int = 100_000,
) -> KmeansModel:
    """Fit k-means on pooled frames; best of `restarts` seeded runs.

    Fitting subsamples to at most `sample_cap` frames (seeded, uniform).
    """
    points = np.asarray(frames, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError("frames must be an N x D matrix")
    if not np.all(np.isfinite(points)):
        raise ValueError("frames contain non-finite values")
    if points.shape[0] < k:
        raise ValueError(f"need at least k={k} frames, got {points.shape[0]}")
    if sample_cap and points.shape[0] > sample_cap:
        keep = rng_from(seed, "subsample").choice(points.shape[0], sample_cap, replace=False)
        points = points[np.sort(keep)]
    best: KmeansModel | None = None
    for r in range(restarts):
        rng = rng_from(seed, "restart", r)
        centers = _kmeanspp_init(points, k, rng)
        centers, history, iterations = _lloyd(points, centers.copy(), max_iters)
        model = KmeansModel(centers, history[-1], iterations, seed, history)
        if best is None or model.inertia < best.inertia:
            best = model
    return best


def assign(model: KmeansModel, features, source: str = "mfcc") -> PseudoLabelSequence:
    """Label each frame with its nearest center (squared Euclidean,
    ties broken by lowest center index)."""
    frames = features.frames if isinstance(features, FeatureSequence) else np.asarray(features)
    if frames.shape[1] != model.dim:
        raise ValueError(f"feature dim {frames.shape[1]} != center dim {model.dim}")
    d2 = _pairwise_sq_dists(np.asarray(frames, dtype=np.float64), model.centers)
    return PseudoLabelSequence(np.argmin(d2, axis=1), model.k, source)


def fit_labels(frames_by_id: dict, k: int, *, seed: int, restarts: int,
               max_iters: int = 100, sample_cap: int = 100_000, source: str = "mfcc"):
    """Pool every utterance's (T, D) frames, fit k-means on the pool and
    label each utterance with its nearest centers.

    Returns (KmeansModel, {utterance_id: PseudoLabelSequence}).
    """
    pooled = np.concatenate(list(frames_by_id.values()), axis=0)
    model = kmeans_fit(pooled, k, max_iters=max_iters, seed=seed, restarts=restarts,
                       sample_cap=sample_cap)
    labels = {uid: assign(model, frames, source=source) for uid, frames in frames_by_id.items()}
    return model, labels


def recluster_from_embeddings(
    checkpoint,
    corpus,
    tap_layer: int,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
    restarts: int = 1,
    sample_cap: int = 100_000,
):
    """Second-iteration labels: run the frozen encoder over clean features,
    pool the chosen layer's frame outputs, re-fit k-means and re-assign.

    Returns (KmeansModel, {utterance_id: PseudoLabelSequence}).
    """
    cfg = checkpoint.encoder_config
    if not 0 <= tap_layer <= cfg.num_layers:
        raise ValueError(f"tap_layer {tap_layer} invalid for a {cfg.num_layers}-layer encoder")
    frames = {utt.id: out.layer_outputs[tap_layer][0]
              for utt, out, _ in encode_corpus(checkpoint, corpus)}
    return fit_labels(frames, k, seed=seed, restarts=restarts, max_iters=max_iters,
                      sample_cap=sample_cap, source=f"embedding:layer{tap_layer}")


# ---------------------------------------------------------------------------
# Dumps. Labels: JSONL {id, k, source, labels}. Model: {stem}.json + {stem}.f32


def save_labels(path, labeled: dict[str, PseudoLabelSequence]) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        for uid, seq in labeled.items():
            fh.write(json.dumps({
                "id": uid, "k": seq.k, "source": seq.source,
                "labels": seq.labels.tolist(),
            }) + "\n")


def load_labels(path) -> dict[str, PseudoLabelSequence]:
    out: dict[str, PseudoLabelSequence] = {}
    with open(Path(path), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            out[obj["id"]] = PseudoLabelSequence(
                np.asarray(obj["labels"], dtype=np.int64), obj["k"], obj["source"]
            )
    return out


def save_kmeans(stem, model: KmeansModel) -> None:
    stem = Path(stem)
    header = {"k": model.k, "D": model.dim, "seed": model.seed, "inertia": model.inertia}
    stem.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="utf-8")
    stem.with_suffix(".f32").write_bytes(model.centers.astype("<f4").tobytes(order="C"))


def load_kmeans(stem) -> KmeansModel:
    stem = Path(stem)
    header = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    centers = np.frombuffer(stem.with_suffix(".f32").read_bytes(), dtype="<f4")
    centers = centers.astype(np.float64).reshape(header["k"], header["D"])
    return KmeansModel(centers, header["inertia"], 0, header["seed"])
