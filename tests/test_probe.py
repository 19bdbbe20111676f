import inspect

import numpy as np
import pytest

from speechssl.dsp import mfcc
from speechssl.encoder import BatchMask, forward, sample_mask
from speechssl.numerics import derive_seed
from speechssl.probe import (
    LayerWeights,
    ascii_bar_chart,
    encode_corpus,
    fit_layer_weights,
    layer_profile,
    loo_nearest_centroid_accuracy,
    speaker_separability,
)


class TestWeightedSum:
    def test_uniform_logits_uniform_weights(self):
        weights = LayerWeights(np.zeros(5))
        assert np.allclose(weights.weights, 0.2)
        assert abs(weights.weights.sum() - 1.0) < 1e-8


class TestEncodeCorpus:
    def direct(self, state, utt, mask=None):
        feats = mfcc(utt.waveform, state.mfcc_config, meta=utt.id)
        mask = mask or BatchMask.from_indices([[]], feats.num_frames)
        return forward(feats.frames[None], mask, state.params, state.encoder_config)

    def assert_same_output(self, got, want):
        assert np.array_equal(got.content_logits, want.content_logits)
        assert np.array_equal(got.final, want.final)
        assert len(got.layer_outputs) == len(want.layer_outputs)
        for a, b in zip(got.layer_outputs, want.layer_outputs):
            assert np.array_equal(a, b)

    def test_is_a_generator(self, small_setup):
        from speechssl.trainer import init_state

        config, corpus, _ = small_setup
        assert inspect.isgenerator(encode_corpus(init_state(config), corpus))

    def test_matches_direct_mfcc_and_forward(self, small_setup):
        from speechssl.trainer import init_state

        config, corpus, _ = small_setup
        state = init_state(config)
        yielded = list(encode_corpus(state, corpus))
        assert [utt for utt, _, _ in yielded] == list(corpus)
        for utt, out, mask in yielded:
            assert len(mask) == 0
            self.assert_same_output(out, self.direct(state, utt))

    def test_eval_masks(self, small_setup):
        from speechssl.trainer import init_state

        config, corpus, _ = small_setup
        state = init_state(config)
        for b, (utt, out, mask) in enumerate(encode_corpus(state, corpus, mask_seed=7)):
            want = sample_mask(out.num_frames, config.encoder, derive_seed(7, "eval-mask", b),
                               min_spans=1)
            assert len(mask) > 0
            assert np.array_equal(mask.rows, want)
            self.assert_same_output(
                out, self.direct(state, utt, BatchMask.from_indices([want], out.num_frames)))


class TestLooNearestCentroid:
    def test_perfectly_separable(self):
        embeddings = np.array([
            [0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
            [10.0, 10.0], [10.1, 10.0], [10.0, 10.1],
        ])
        classes = ["a", "a", "a", "b", "b", "b"]
        assert loo_nearest_centroid_accuracy(embeddings, classes) == 1.0

    def test_chance_level_on_noise(self):
        # i.i.d. noise with S speakers scores ~1/S on average
        s, per = 4, 12
        accs = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            embeddings = rng.standard_normal((s * per, 8))
            classes = [f"c{i % s}" for i in range(s * per)]
            accs.append(loo_nearest_centroid_accuracy(embeddings, classes))
        mean = np.mean(accs)
        se = np.std(accs) / np.sqrt(len(accs))
        assert abs(mean - 1.0 / s) < max(4 * se, 0.05)

    def test_matches_exhaustive_loop_oracle(self):
        rng = np.random.default_rng(9)
        embeddings = rng.standard_normal((10, 3))
        classes = ["a", "b", "a", "b", "a", "b", "a", "b", "a", "b"]
        names = sorted(set(classes))
        correct = 0
        for i in range(10):
            best, best_d = None, np.inf
            for name in names:
                members = [
                    embeddings[j] for j in range(10)
                    if classes[j] == name and j != i
                ]
                centroid = np.mean(members, axis=0)
                d = float(np.sum((embeddings[i] - centroid) ** 2))
                if d < best_d:
                    best, best_d = name, d
            correct += best == classes[i]
        assert loo_nearest_centroid_accuracy(embeddings, classes) == correct / 10

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            loo_nearest_centroid_accuracy(np.zeros((3, 2)), ["a", "a", "a"])

    def test_singleton_class_rejected(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            loo_nearest_centroid_accuracy(np.zeros((3, 2)), ["a", "a", "b"])


class TestSpeakerSeparability:
    def test_runs_on_trained_checkpoint(self, small_setup):
        import dataclasses

        from speechssl.trainer import train

        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=2)
        ckpt, _ = train(config, corpus, labels)
        score = speaker_separability(ckpt, corpus, layer=config.encoder.tap_layer)
        assert 0.0 <= score <= 1.0

    def test_requires_speaker_tags(self, small_setup):
        import dataclasses

        from speechssl.corpus import Utterance
        from speechssl.trainer import train

        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=1)
        ckpt, _ = train(config, corpus, labels)
        untagged = [Utterance(u.id, u.waveform, None) for u in corpus]
        with pytest.raises(ValueError, match="speaker"):
            speaker_separability(ckpt, untagged, layer=0)


class TestFitLayerWeights:
    def planted_instance(self, planted_layer=1, layers=4, n=200, d=8, seed=0):
        rng = np.random.default_rng(seed)
        outputs = rng.standard_normal((layers, n, d))
        targets = (outputs[planted_layer, :, 0] > 0).astype(np.int64)
        return outputs, targets

    def test_weights_concentrate_on_planted_layer(self):
        outputs, targets = self.planted_instance(planted_layer=1)
        weights, accuracy = fit_layer_weights(outputs, targets, steps=400, lr=0.1, seed=0)
        assert weights.weights[1] > 0.5
        assert accuracy > 0.9

    def test_single_class_rejected(self):
        outputs, _ = self.planted_instance()
        with pytest.raises(ValueError, match="degenerate"):
            fit_layer_weights(outputs, np.zeros(200, dtype=np.int64))

    def test_zero_learning_rate_keeps_uniform(self):
        outputs, targets = self.planted_instance()
        weights, _ = fit_layer_weights(outputs, targets, steps=50, lr=0.0, seed=0)
        assert np.allclose(weights.weights, 0.25)

    def test_profile_invariant_to_example_order(self):
        outputs, targets = self.planted_instance(seed=3)
        perm = np.random.default_rng(1).permutation(targets.size)
        w1, _ = fit_layer_weights(outputs, targets, steps=200, seed=0)
        w2, _ = fit_layer_weights(outputs[:, perm], targets[perm], steps=200, seed=0)
        assert np.max(np.abs(w1.weights - w2.weights)) < 1e-6


class TestLayerProfile:
    def test_emits_profile_and_separability(self, small_setup):
        import dataclasses

        from speechssl.trainer import train

        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=2)
        ckpt, _ = train(config, corpus, labels)
        weights, accuracy, separability = layer_profile(ckpt, corpus, steps=50)
        assert len(weights) == config.encoder.num_layers + 1
        assert abs(weights.weights.sum() - 1.0) < 1e-8
        assert set(separability) == set(range(config.encoder.num_layers + 1))
        assert 0.0 <= accuracy <= 1.0


class TestAsciiBarChart:
    def test_renders_lines(self):
        chart = ascii_bar_chart({"layer0": 0.5, "layer1": 1.0})
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 40
