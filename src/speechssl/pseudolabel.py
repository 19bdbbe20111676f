"""Offline k-means pseudo-labeling.

First-pass labels cluster MFCC frames; later passes re-cluster the frame
outputs of an intermediate encoder layer from a trained checkpoint. Fitting
is Lloyd's algorithm with k-means++ seeding, deterministic under the seed.
No pass raises the recorded inertia in exact arithmetic; in floating point
a center mean can round away from the optimum, so the history may rise,
by no more than the rounding error of those means.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import ManifestError, read_jsonl
from .dsp import FeatureSequence
from .numerics import rng_from
from .probe import encode_corpus

FIT_CHUNK = 512   # rows per block of _nearest; bounds its temporaries
SAMPLE_CAP = 100_000  # kmeans_fit fits a seeded uniform subsample of larger pools


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


def _nearest(points: np.ndarray, centers: np.ndarray):
    """Exact nearest center of every point, ties broken by lowest index.

    Returns (labels, d2): d2[n] is the squared distance from point n to its
    center as the explicit-difference contraction einsum(x - c, x - c)
    gives it.

    Each block of FIT_CHUNK rows is screened with one BLAS product,
    s = |x|^2 - 2 x.c + |c|^2. The screen s and the explicit-difference
    value e each lie within a = 2(d+3) eps (|x|^2 + |c|^2) of the true
    squared distance, and the margin m = 8(d+4) eps (|x|^2 + |c|^2) is more
    than twice their sum. For the exact argmin j* and any j,
    s_j* - m_j* <= e_j* <= e_j <= s_j + m_j, so center j* is always among
    the kept centers, those with s_j - m_j <= min_j (s_j + m_j). Only
    the kept pairs get the explicit-difference value; the others stay at
    inf, and argmin picks the label. Labels and d2 are therefore bit for bit
    those of the full (n, k) explicit-difference matrix, whatever the BLAS
    threading does to s. A screen that is not a number (overflowing input)
    keeps its whole row.

    Temporaries stay within one block: at most FIT_CHUNK*k*d floats for the
    differences (kept pairs are differenced half a block at a time) plus a
    few (k, FIT_CHUNK) arrays.
    """
    n, d = points.shape
    k = centers.shape[0]
    labels = np.empty(n, dtype=np.int64)
    d2 = np.empty(n)
    sq_points = np.einsum("nd,nd->n", points, points)
    sq_centers = np.einsum("kd,kd->k", centers, centers)
    tol = 8 * (d + 4) * np.finfo(np.float64).eps
    for start in range(0, n, FIT_CHUNK):
        block = points[start : start + FIT_CHUNK]
        rows = np.arange(block.shape[0])
        sq_block = sq_points[start : start + FIT_CHUNK]
        # (k, rows) layout: the per-point minimum is then a reduction
        # across k contiguous rows
        screen = centers @ block.T
        screen *= -2.0
        screen += sq_centers[:, None]
        screen += sq_block
        margin = np.add.outer(sq_centers, sq_block)
        margin *= tol
        bound = np.min(screen + margin, axis=0)
        screen -= margin
        # negated so that a NaN screen keeps the pair
        kept_cols, kept_rows = np.divmod(np.flatnonzero(~(screen > bound)), rows.size)
        exact = np.full((rows.size, k), np.inf)
        piece = max(1, exact.size // 2)
        for lo in range(0, kept_rows.size, piece):
            r, c = kept_rows[lo : lo + piece], kept_cols[lo : lo + piece]
            diff = block[r]
            diff -= centers[c]
            exact[r, c] = np.einsum("md,md->m", diff, diff)
        best = np.argmin(exact, axis=1)
        labels[start : start + rows.size] = best
        d2[start : start + rows.size] = exact[rows, best]
    return labels, d2


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
    """Run Lloyd iterations until the assignment repeats or `max_iters`
    updates; returns (centers, inertia history, iterations).

    Every history entry is the inertia of the centers at that pass, and the
    last is that of the returned centers: a run cut off by `max_iters`
    assigns once more after its last update.
    """
    history = []
    prev_assign = None
    for it in range(max_iters + 1):
        assign, point_d2 = _nearest(points, centers)
        history.append(float(point_d2.sum()))
        if it == max_iters or (prev_assign is not None and np.array_equal(assign, prev_assign)):
            break
        prev_assign = assign
        # A cluster whose points all sit on its center keeps it: that is
        # their mean, which recomputing would only round away. Empty
        # clusters are reseeded at the point farthest from its own center;
        # the moved center served no point, so inertia cannot increase. A
        # point at distance 0 gains nothing from a center of its own, so
        # when no point is left at a positive distance the empty center
        # stays where it is.
        spread = np.bincount(assign, weights=point_d2, minlength=centers.shape[0])
        taken: set[int] = set()
        for j in range(centers.shape[0]):
            members = assign == j
            if members.any():
                if spread[j] > 0:
                    centers[j] = points[members].mean(axis=0)
            else:
                order = np.argsort(-point_d2, kind="stable")
                far = next((int(i) for i in order
                            if int(i) not in taken and point_d2[i] > 0), None)
                if far is not None:
                    taken.add(far)
                    centers[j] = points[far]
    return centers, history, min(len(history), max_iters)


def kmeans_fit(
    frames: np.ndarray,
    k: int,
    max_iters: int = 100,
    seed: int = 0,
    restarts: int = 1,
) -> KmeansModel:
    """Fit k-means on pooled frames; best of `restarts` seeded runs.

    Fitting subsamples to at most SAMPLE_CAP frames (seeded, uniform).
    """
    points = np.asarray(frames, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError("frames must be an N x D matrix")
    if not np.all(np.isfinite(points)):
        raise ValueError("frames contain non-finite values")
    if k < 1 or restarts < 1 or max_iters < 0:
        raise ValueError(f"k and restarts must be >= 1 and max_iters >= 0, got k={k}, "
                         f"restarts={restarts}, max_iters={max_iters}")
    if points.shape[0] < k:
        raise ValueError(f"need at least k={k} frames, got {points.shape[0]}")
    if points.shape[0] > SAMPLE_CAP:
        keep = rng_from(seed, "subsample").choice(points.shape[0], SAMPLE_CAP, replace=False)
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
    frames = features.frames if isinstance(features, FeatureSequence) else features
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[1] != model.dim:
        raise ValueError(f"feature dim {frames.shape[1]} != center dim {model.dim}")
    bad = ~np.isfinite(frames)
    if bad.any():
        raise ValueError(f"frame {int(np.argmax(bad.any(axis=1)))} has non-finite values")
    return PseudoLabelSequence(_nearest(frames, model.centers)[0], model.k, source)


def fit_labels(frames_by_id: dict, k: int, *, seed: int, restarts: int,
               max_iters: int = 100, source: str = "mfcc"):
    """Pool every utterance's (T, D) frames, fit k-means on the pool and
    label each utterance with its nearest centers.

    Refuses, naming both, an utterance whose frame width differs from the
    first one's. Returns (KmeansModel, {utterance_id: PseudoLabelSequence}).
    """
    widths = [(uid, frames.shape[1]) for uid, frames in frames_by_id.items()]
    for uid, width in widths[1:]:
        if width != widths[0][1]:
            raise ValueError(f"utterance {uid!r} has frames {width} wide, but "
                             f"{widths[0][0]!r} has frames {widths[0][1]} wide")
    pooled = np.concatenate(list(frames_by_id.values()), axis=0)
    model = kmeans_fit(pooled, k, max_iters=max_iters, seed=seed, restarts=restarts)
    labels = {uid: assign(model, frames, source=source) for uid, frames in frames_by_id.items()}
    return model, labels


def recluster_from_embeddings(
    checkpoint,
    corpus,
    layer: int,
    k: int,
    seed: int = 0,
    restarts: int = 1,
):
    """Second-iteration labels: run the frozen encoder's blocks up to the
    chosen layer over clean features, pool its frames, re-fit and re-assign.

    Returns (KmeansModel, {utterance_id: PseudoLabelSequence}).
    """
    cfg = checkpoint.config.encoder
    if not 0 <= layer <= cfg.num_layers:
        raise ValueError(f"layer {layer} invalid for a {cfg.num_layers}-layer encoder")
    frames = {utt.id: out.layer_outputs[layer][i]
              for chunk, out in encode_corpus(checkpoint, corpus, num_layers=layer)
              for i, utt in enumerate(chunk)}
    return fit_labels(frames, k, seed=seed, restarts=restarts,
                      source=f"embedding:layer{layer}")


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
    for where, obj in read_jsonl(path, ("id", "k", "source", "labels"), "labels file"):
        k, source, labels = obj["k"], obj["source"], obj["labels"]
        if (type(k) is not int or type(source) is not str or type(labels) is not list
                or any(type(v) is not int for v in labels)):
            raise ManifestError(f"{where}: expected an integer 'k', a string 'source' and "
                                "a list of integer 'labels'")
        try:
            out[obj["id"]] = PseudoLabelSequence(np.asarray(labels, dtype=np.int64), k, source)
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return out


def save_kmeans(stem, model: KmeansModel) -> None:
    stem = Path(stem)
    header = {"k": model.k, "D": model.dim, "seed": model.seed, "inertia": model.inertia}
    stem.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="utf-8")
    stem.with_suffix(".f32").write_bytes(model.centers.astype("<f4").tobytes(order="C"))
