import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechssl.corpus import synth_corpus
from speechssl.dsp import FeatureSequence
from speechssl.numerics import rng_from
from speechssl.pseudolabel import (
    FIT_CHUNK,
    KmeansModel,
    PseudoLabelSequence,
    _kmeanspp_init,
    _lloyd,
    _nearest,
    assign,
    fit_labels,
    kmeans_fit,
    load_labels,
    recluster_from_embeddings,
    save_kmeans,
    save_labels,
)


def brute_force_two_cluster_inertia(points: np.ndarray) -> float:
    """Oracle: minimum SSE over every assignment of points to 2 clusters."""
    n = points.shape[0]
    best = np.inf
    for bits in itertools.product([0, 1], repeat=n):
        sse = 0.0
        for side in (0, 1):
            members = points[np.array(bits) == side]
            if members.size:
                sse += float(np.sum((members - members.mean(axis=0)) ** 2))
        best = min(best, sse)
    return best


def explicit_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Oracle: the full (n, k) matrix of squared distances from explicit
    differences, one einsum over every (point, center) pair."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def explicit_lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int):
    """Oracle: Lloyd's algorithm on the full explicit-difference matrix, with
    the same empty-cluster reseeding. Returns (centers, history, iterations,
    reseeds)."""
    history, prev, iterations, reseeds = [], None, 0, 0
    rows = np.arange(points.shape[0])
    for _ in range(max_iters):
        d2 = explicit_sq_dists(points, centers)
        labels = np.argmin(d2, axis=1)
        history.append(float(d2[rows, labels].sum()))
        iterations += 1
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        point_d2 = d2[rows, labels]
        taken: set[int] = set()
        for j in range(centers.shape[0]):
            members = labels == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
            else:
                reseeds += 1
                order = np.argsort(-point_d2, kind="stable")
                far = next(int(i) for i in order if int(i) not in taken)
                taken.add(far)
                centers[j] = points[far]
    return centers, history, iterations, reseeds


def explicit_kmeans_fit(points: np.ndarray, k: int, seed: int, restarts: int,
                        max_iters: int = 100):
    """Oracle: kmeans_fit's restarts over explicit_lloyd. Returns the best
    (centers, history, iterations) and the total number of reseeds."""
    best, reseeds = None, 0
    for r in range(restarts):
        centers = _kmeanspp_init(points, k, rng_from(seed, "restart", r))
        centers, history, iterations, n_reseeds = explicit_lloyd(points, centers, max_iters)
        reseeds += n_reseeds
        if best is None or history[-1] < best[1][-1]:
            best = (centers, history, iterations)
    return best, reseeds


@st.composite
def nearest_cases(draw):
    """Points and centers at every scale the screen's margin must cover:
    scales from 1e-3 to 1e3, a common offset up to 1e6, integer grids with
    exact ties, repeated points and more centers than distinct points."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # integer grid: many exact ties between centers
        points = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
        centers = rng.integers(-3, 4, size=(k, d)).astype(np.float64)
    else:
        points = rng.standard_normal((n, d))
        centers = rng.standard_normal((k, d))
    if draw(st.booleans()):
        # repeated points, and centers drawn from them (k may exceed the
        # number of distinct points)
        points = points[rng.integers(0, max(1, n // 3), size=n)]
        centers = points[rng.integers(0, n, size=k)]
    scale = 10.0 ** draw(st.floats(-3, 3))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6])) * rng.standard_normal(d)
    return points * scale + offset, centers * scale + offset


def assert_nearest_matches_oracle(points: np.ndarray, centers: np.ndarray) -> None:
    oracle = explicit_sq_dists(points, centers)
    want = np.argmin(oracle, axis=1)
    labels, d2 = _nearest(points, centers)
    assert np.array_equal(labels, want)
    assert np.array_equal(d2, oracle[np.arange(points.shape[0]), want])


class TestNearest:
    @given(case=nearest_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_explicit_matrix(self, case):
        assert_nearest_matches_oracle(*case)

    def test_blocks_with_every_center_kept(self):
        # several blocks plus a ragged tail; the large common offset makes
        # the screen's margin keep every center, so the kept pairs are
        # differenced in more than one piece
        rng = np.random.default_rng(7)
        points = rng.standard_normal((2 * FIT_CHUNK + 37, 5)) * 1e-3 + 1e6
        centers = rng.standard_normal((6, 5)) * 1e-3 + 1e6
        assert_nearest_matches_oracle(points, centers)


class TestKmeansFit:
    def test_exact_two_clusters(self):
        points = np.array([[0.0], [0.0], [10.0], [10.0]])
        model = kmeans_fit(points, 2, seed=0)
        assert sorted(model.centers[:, 0].tolist()) == [0.0, 10.0]
        assert model.inertia == 0.0

    def test_k1_center_is_mean(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((20, 3))
        model = kmeans_fit(points, 1, seed=0)
        assert np.allclose(model.centers[0], points.mean(axis=0))
        expected = float(np.sum((points - points.mean(axis=0)) ** 2))
        assert abs(model.inertia - expected) < 1e-9

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for trial in range(4):
            points = rng.standard_normal((8, 2))
            oracle = brute_force_two_cluster_inertia(points)
            model = kmeans_fit(points, 2, seed=trial, restarts=20)
            assert model.inertia <= oracle + 1e-9
            assert abs(model.inertia - oracle) < 1e-9

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((200, 5))
        model = kmeans_fit(points, 8, seed=3)
        diffs = np.diff(model.inertia_history)
        assert np.all(diffs <= 1e-12)

    def test_k_equals_n_distinct_points(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((6, 2))
        model = kmeans_fit(points, 6, seed=1, restarts=5)
        assert model.inertia < 1e-18
        assert {tuple(np.round(c, 9)) for c in model.centers} == {
            tuple(np.round(p, 9)) for p in points
        }

    def test_n_less_than_k(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans_fit(np.zeros((3, 2)), 4)

    def test_non_finite_rejected(self):
        pts = np.zeros((5, 2))
        pts[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            kmeans_fit(pts, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((50, 4))
        a = kmeans_fit(points, 4, seed=42)
        b = kmeans_fit(points, 4, seed=42)
        assert np.array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia

    @pytest.mark.parametrize("name", ["normal", "blocks", "ties", "few-distinct"])
    def test_matches_explicit_lloyd(self, name):
        rng = np.random.default_rng(21)
        if name == "normal":
            points, k = rng.standard_normal((300, 4)), 6
        elif name == "blocks":
            points, k = rng.standard_normal((2 * FIT_CHUNK + 11, 3)) * 5 + 100, 6
        elif name == "ties":
            points, k = rng.integers(-2, 3, size=(120, 2)).astype(np.float64), 6
        else:
            # 3 distinct points for k = 4: k-means++ repeats a point and
            # Lloyd reseeds the emptied cluster
            points, k = rng.standard_normal((3, 1))[np.arange(40) % 3], 4
        for seed in range(3):
            (centers, history, iterations), reseeds = explicit_kmeans_fit(points, k, seed, 3)
            model = kmeans_fit(points, k, seed=seed, restarts=3)
            assert iterations < 100   # converged: the oracle's history is final
            assert np.array_equal(model.centers, centers)
            assert model.inertia_history == history
            assert model.iterations_run == iterations
            assert (reseeds > 0) == (name == "few-distinct")

    def test_reseed_matches_explicit_lloyd(self):
        # a center far from every point empties at the first pass and is
        # moved to the point farthest from its own center
        rng = np.random.default_rng(3)
        points = rng.standard_normal((50, 2))
        start = np.vstack([points[:3], [[100.0, 100.0]]])
        want, history, iterations, reseeds = explicit_lloyd(points, start.copy(), 100)
        centers, got_history, got_iterations = _lloyd(points, start.copy(), 100)
        assert reseeds == 1
        assert history[0] > 0
        assert np.array_equal(centers, want)
        assert (got_history, got_iterations) == (history, iterations)

    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_cut_off_run_reports_returned_centers(self, max_iters):
        points = np.random.default_rng(0).standard_normal((200, 3))
        model = kmeans_fit(points, 5, max_iters=max_iters, seed=0)
        sse = float(explicit_sq_dists(points, model.centers).min(axis=1).sum())
        assert model.inertia == sse
        assert model.inertia_history[-1] == sse
        assert model.iterations_run == max_iters
        # the same max_iters updates as before; one more pass measures them
        (centers, history, _), _ = explicit_kmeans_fit(points, 5, 0, 1, max_iters)
        assert np.array_equal(model.centers, centers)
        assert model.inertia_history[:-1] == history

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_inertia_monotone_property(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((40, 3))
        model = kmeans_fit(points, 5, seed=seed)
        assert np.all(np.diff(model.inertia_history) <= 1e-12)


class TestAssign:
    def model(self):
        return KmeansModel(np.array([[10.0, 10.0], [2.0, 0.0], [0.0, 2.0], [5.0, 5.0]]),
                           0.0, 1, 0)

    def test_frame_equal_to_center(self):
        labels = assign(self.model(), np.array([[5.0, 5.0]]))
        assert labels.labels.tolist() == [3]

    def test_tie_breaks_to_lowest_index(self):
        # (1, 1) is exactly equidistant from centers 1 and 2 (and far from 0, 3)
        labels = assign(self.model(), np.array([[1.0, 1.0]]))
        assert labels.labels.tolist() == [1]

    def test_matches_distance_matrix_oracle(self):
        rng = np.random.default_rng(13)
        frames = rng.standard_normal((30, 2))
        model = self.model()
        oracle = np.array([
            int(np.argmin([np.sum((f - c) ** 2) for c in model.centers]))
            for f in frames
        ])
        labels = assign(model, frames)
        assert np.array_equal(labels.labels, oracle)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        frames = rng.standard_normal((10, 2))
        model = self.model()
        a = assign(model, frames)
        b = assign(model, frames)
        assert np.array_equal(a.labels, b.labels)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            assign(self.model(), np.zeros((3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected(self, bad):
        frames = np.zeros((4, 2))
        frames[2, 1] = bad
        frames[3, 0] = np.nan
        with pytest.raises(ValueError, match="frame 2 has non-finite"):
            assign(self.model(), frames)

    def test_feature_sequence_input(self):
        feats = FeatureSequence(np.zeros((4, 2)), 100.0)
        labels = assign(self.model(), feats)
        # origin ties centers 1 and 2 at distance 4; lowest index wins
        assert labels.labels.tolist() == [1, 1, 1, 1]


class TestPseudoLabelSequence:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PseudoLabelSequence(np.array([0, 5]), 4)


class TestFitLabels:
    def test_equals_hand_pooled_fit_and_assign(self):
        rng = np.random.default_rng(11)
        frames = {f"u{i}": rng.standard_normal((int(rng.integers(5, 15)), 4)) for i in range(6)}
        model, labels = fit_labels(frames, 5, seed=3, restarts=2, max_iters=50,
                                   source="embedding:layer1")
        oracle = kmeans_fit(np.concatenate(list(frames.values())), 5, max_iters=50, seed=3,
                            restarts=2)
        assert np.array_equal(model.centers, oracle.centers)
        assert model.inertia == oracle.inertia
        assert list(labels) == list(frames)
        for uid, seq in labels.items():
            want = assign(oracle, frames[uid], source="embedding:layer1")
            assert np.array_equal(seq.labels, want.labels)
            assert (seq.k, seq.source) == (want.k, want.source)


class TestDumps:
    def test_labels_round_trip(self, tmp_path):
        labeled = {
            "a": PseudoLabelSequence(np.array([0, 1, 1]), 2, "mfcc"),
            "b": PseudoLabelSequence(np.array([1, 0]), 2, "embedding:layer2"),
        }
        save_labels(tmp_path / "labels.jsonl", labeled)
        back = load_labels(tmp_path / "labels.jsonl")
        assert set(back) == {"a", "b"}
        assert np.array_equal(back["a"].labels, labeled["a"].labels)
        assert back["b"].source == "embedding:layer2"

    def test_kmeans_round_trip(self, tmp_path):
        model = kmeans_fit(np.random.default_rng(0).standard_normal((30, 3)), 4, seed=0)
        save_kmeans(tmp_path / "km", model)
        header = json.loads((tmp_path / "km.json").read_text(encoding="utf-8"))
        assert header == {"k": 4, "D": 3, "seed": 0, "inertia": model.inertia}
        centers = np.frombuffer((tmp_path / "km.f32").read_bytes(), dtype="<f4")
        assert np.array_equal(centers.reshape(4, 3), model.centers.astype("<f4"))


@pytest.fixture(scope="module")
def checkpoint():
    from speechssl.encoder import EncoderConfig
    from speechssl.trainer import init_state, tiny_config

    config = tiny_config(seed=5)
    # real MFCC dims for this test, tiny model otherwise
    config.encoder = EncoderConfig(
        input_dim=39, model_dim=16, num_layers=2, num_heads=2, ffn_dim=24,
        num_classes=4, tap_layer=1,
    )
    return init_state(config)


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(2, 3, duration=0.1, seed=8)


class TestRecluster:
    def test_k1_all_labels_zero(self, checkpoint, corpus):
        _, labels = recluster_from_embeddings(checkpoint, corpus, tap_layer=1, k=1, seed=0)
        assert all(np.all(seq.labels == 0) for seq in labels.values())
        assert all(seq.source == "embedding:layer1" for seq in labels.values())

    def test_run_twice_identical(self, checkpoint, corpus):
        _, a = recluster_from_embeddings(checkpoint, corpus, tap_layer=1, k=3, seed=4)
        _, b = recluster_from_embeddings(checkpoint, corpus, tap_layer=1, k=3, seed=4)
        assert all(np.array_equal(a[uid].labels, b[uid].labels) for uid in a)

    def test_occupancy_non_degenerate(self, checkpoint, corpus):
        _, labels = recluster_from_embeddings(checkpoint, corpus, tap_layer=2, k=3, seed=4)
        occupied = set(np.concatenate([seq.labels for seq in labels.values()]).tolist())
        assert len(occupied) >= 2

    def test_invalid_layer(self, checkpoint, corpus):
        with pytest.raises(ValueError, match="tap_layer"):
            recluster_from_embeddings(checkpoint, corpus, tap_layer=9, k=2, seed=0)
