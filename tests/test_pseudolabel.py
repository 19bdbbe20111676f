import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechssl.corpus import synth_corpus
from speechssl.dsp import FeatureSequence
from speechssl.pseudolabel import (
    FIT_CHUNK,
    KmeansModel,
    PseudoLabelSequence,
    _pairwise_sq_dists,
    assign,
    fit_labels,
    kmeans_fit,
    load_kmeans,
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

    def test_chunked_distances_match_unchunked(self):
        # two full chunks plus a ragged tail, against one unchunked einsum
        rng = np.random.default_rng(7)
        points = rng.standard_normal((2 * FIT_CHUNK + 37, 5))
        centers = rng.standard_normal((6, 5))
        diff = points[:, None, :] - centers[None, :, :]
        oracle = np.einsum("nkd,nkd->nk", diff, diff)
        assert np.array_equal(_pairwise_sq_dists(points, centers), oracle)

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
        back = load_kmeans(tmp_path / "km")
        assert back.k == 4 and back.dim == 3
        assert np.array_equal(back.centers, model.centers.astype("<f4").astype(np.float64))


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
