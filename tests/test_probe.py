import inspect

import numpy as np
import pytest

from speechssl import probe
from speechssl.corpus import Utterance, synth_corpus
from speechssl.dsp import mfcc
from speechssl.encoder import BatchMask, forward, sample_mask
from speechssl.numerics import derive_seed
from speechssl.probe import (
    ascii_bar_chart,
    encode_corpus,
    fit_layer_weights,
    layer_profile,
    loo_nearest_centroid_accuracy,
    masked_prediction_accuracy,
    utterance_means,
)

from conftest import count_calls, fast_config


class TestEncodeCorpus:
    def direct(self, state, utt, mask=None):
        feats = mfcc(utt.waveform, state.config.mfcc, meta=utt.id)
        mask = mask or BatchMask.from_indices([[]], feats.num_frames)
        return forward(feats.frames[None], mask, state.params, state.config.encoder)

    def assert_same_row(self, got, i, want):
        """Row i of a chunk's output equals a B=1 output bit for bit."""
        assert np.array_equal(got.content_logits[i], want.content_logits[0])
        assert np.array_equal(got.final[i], want.final[0])
        assert len(got.layer_outputs) == len(want.layer_outputs)
        for a, b in zip(got.layer_outputs, want.layer_outputs):
            assert np.array_equal(a[i], b[0])

    def chunks(self, state, corpus, **kwargs):
        """encode_corpus' chunks, with each utterance's corpus index."""
        out, b = [], 0
        for chunk, enc in encode_corpus(state, corpus, **kwargs):
            out.append((list(range(b, b + len(chunk))), chunk, enc, enc.mask))
            b += len(chunk)
        return out

    def test_is_a_generator(self, small_setup):
        from speechssl.trainer import init_state

        config, corpus, _ = small_setup
        assert inspect.isgenerator(encode_corpus(init_state(config), corpus))

    def test_matches_direct_mfcc_and_forward(self, small_setup):
        from speechssl.trainer import init_state

        config, corpus, _ = small_setup
        state = init_state(config)
        yielded = self.chunks(state, corpus)
        assert [utt for _, chunk, _, _ in yielded for utt in chunk] == list(corpus)
        assert [len(chunk) for _, chunk, _, _ in yielded] == [config.batch_size] * 4
        for _, chunk, out, mask in yielded:
            assert len(mask) == 0 and out.cache == {}
            for i, utt in enumerate(chunk):
                self.assert_same_row(out, i, self.direct(state, utt))

    def test_eval_masks(self, small_setup):
        from speechssl.trainer import init_state

        config, corpus, _ = small_setup
        state = init_state(config)
        for indices, chunk, out, mask in self.chunks(state, corpus, mask_seed=7):
            t = mask.num_frames
            want = [sample_mask(t, config.encoder, derive_seed(7, "eval-mask", b))
                    for b in indices]
            assert all(len(w) > 0 for w in want)
            assert np.array_equal(mask.rows, BatchMask.from_indices(want, t).rows)
            for i, utt in enumerate(chunk):
                self.assert_same_row(
                    out, i, self.direct(state, utt, BatchMask.from_indices([want[i]], t)))

    def test_length_change_mid_chunk(self, small_setup):
        from speechssl.trainer import init_state

        config, corpus, _ = small_setup
        state = init_state(config)
        lengths = [1600, 1600, 1200, 1200, 1200, 1200, 1600, 1600]
        mixed = [Utterance(u.id, u.waveform[:n], u.speaker) for u, n in zip(corpus, lengths)]
        yielded = self.chunks(state, mixed, mask_seed=3)
        assert [indices for indices, _, _, _ in yielded] == [[0, 1], [2, 3, 4], [5], [6, 7]]
        for indices, chunk, out, mask in yielded:
            t = mask.num_frames
            for i, (b, utt) in enumerate(zip(indices, chunk)):
                want = sample_mask(t, config.encoder, derive_seed(3, "eval-mask", b))
                self.assert_same_row(
                    out, i, self.direct(state, utt, BatchMask.from_indices([want], t)))

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_truncated_encode_keeps_its_layer(self, small_setup, layer):
        from speechssl.trainer import init_state

        config, corpus, _ = small_setup
        state = init_state(config)
        full = encode_corpus(state, corpus)
        for (chunk, out), (_, whole) in zip(encode_corpus(state, corpus, num_layers=layer),
                                            full):
            assert len(out.layer_outputs) == layer + 1
            assert np.array_equal(out.layer_outputs[layer], whole.layer_outputs[layer])
            assert np.array_equal(out.tap, whole.layer_outputs[min(layer, 1)])

    def test_frozen_chunk_peaks_under_half_a_backward_forward(self):
        # the same 8-utterance batch at the default config: a frozen chunk
        # (MFCC and forward) against a forward that keeps its backward state
        import tracemalloc

        from speechssl.corpus import synth_corpus
        from speechssl.dsp import mfcc_batch
        from speechssl.trainer import TrainConfig, init_state

        state = init_state(TrainConfig())
        config = state.config
        corpus = synth_corpus(8, 1, duration=config.utterance_length / 16000, seed=0)
        features = mfcc_batch([u.waveform for u in corpus], config.mfcc)
        mask = BatchMask.from_indices([[]] * len(corpus), features.shape[1])

        def peak(run):
            run()                       # warm: first-call set-up stays out of the peak
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        frozen = peak(lambda: next(encode_corpus(state, corpus)))
        kept = peak(lambda: forward(features, mask, state.params, config.encoder))
        assert frozen < kept / 2, (frozen, kept)

    def test_one_forward_per_chunk(self, monkeypatch):
        from speechssl.corpus import synth_corpus
        from speechssl.trainer import init_state

        corpus = synth_corpus(8, 16, duration=0.1, seed=0)
        state = init_state(fast_config(batch_size=8))
        calls = count_calls(monkeypatch, probe, "forward")
        means, _ = utterance_means(state, corpus)
        assert means.shape[1] == 128
        assert calls["forward"] == 16


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

        from speechssl.trainer import init_state, train

        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=2)
        ckpt = train(init_state(config), corpus, labels)
        means, tags = utterance_means(ckpt, corpus)
        assert means.shape == (config.encoder.num_layers + 1, len(corpus),
                               config.encoder.model_dim)
        assert tags == [u.speaker for u in corpus]
        for j, utt in enumerate(corpus):
            out = TestEncodeCorpus().direct(ckpt, utt)
            for layer, outputs in enumerate(out.layer_outputs):
                assert np.array_equal(means[layer, j], outputs[0].mean(axis=0))
        score = loo_nearest_centroid_accuracy(means[config.encoder.tap_layer], tags)
        assert 0.0 <= score <= 1.0

    def test_requires_speaker_tags(self, small_setup):
        from speechssl.corpus import Utterance
        from speechssl.trainer import init_state

        config, corpus, _ = small_setup
        untagged = [Utterance(u.id, u.waveform, None) for u in corpus]
        with pytest.raises(ValueError, match="speaker"):
            utterance_means(init_state(config), untagged)

    @pytest.mark.parametrize("retag, message", [
        (lambda i, u: None if i == 2 else u.speaker, "utterance 'spk00_utt002' carries no"),
        (lambda i, u: "spk00", "at least 2 distinct speaker tags"),
    ], ids=["one-untagged", "one-speaker"])
    def test_refuses_before_encoding(self, small_setup, monkeypatch, retag, message):
        from speechssl.corpus import Utterance
        from speechssl.trainer import init_state

        def no_encoding(*args, **kwargs):
            raise AssertionError("encode_corpus called")

        config, corpus, _ = small_setup
        monkeypatch.setattr(probe, "encode_corpus", no_encoding)
        tagged = [Utterance(u.id, u.waveform, retag(i, u)) for i, u in enumerate(corpus)]
        with pytest.raises(ValueError, match=message):
            utterance_means(init_state(config), tagged)


class TestMaskedPredictionAccuracy:
    # 7 utterances at batch_size 3 encode as chunks of 3, 3 and 1
    def test_equals_per_utterance_argmax_count(self, small_setup):
        from speechssl.trainer import init_state, train

        config, corpus, labels = small_setup
        assert config.batch_size == 3
        ckpt = train(init_state(config), corpus, labels)
        corpus = corpus[:7]
        correct = total = 0
        for b, utt in enumerate(corpus):
            feats = mfcc(utt.waveform, config.mfcc, meta=utt.id)
            frames = sample_mask(feats.num_frames, config.encoder,
                                 derive_seed(5, "eval-mask", b))
            out = forward(feats.frames[None],
                          BatchMask.from_indices([frames], feats.num_frames),
                          ckpt.params, config.encoder)
            predicted = np.argmax(out.content_logits[0, frames], axis=1)
            correct += int(np.sum(predicted == labels[utt.id].labels[frames]))
            total += frames.size
        assert 0 < correct < total
        assert masked_prediction_accuracy(ckpt, corpus, labels, seed=5) == correct / total

    def test_refuses_labels_of_another_length(self, small_setup):
        from speechssl.pseudolabel import PseudoLabelSequence
        from speechssl.trainer import init_state

        config, corpus, labels = small_setup
        labels = dict(labels)
        short = labels[corpus[4].id]
        labels[corpus[4].id] = PseudoLabelSequence(short.labels[:-1], short.k, short.source)
        with pytest.raises(ValueError, match=f"utterance '{corpus[4].id}': "
                                             f"{len(short) - 1} labels vs {len(short)} frames"):
            masked_prediction_accuracy(init_state(config), corpus[:7], labels)


class TestFitLayerWeights:
    def planted_instance(self, planted_layer=1, layers=4, n=200, d=8, seed=0):
        rng = np.random.default_rng(seed)
        outputs = rng.standard_normal((layers, n, d))
        targets = (outputs[planted_layer, :, 0] > 0).astype(np.int64)
        return outputs, targets

    def test_weights_concentrate_on_planted_layer(self):
        outputs, targets = self.planted_instance(planted_layer=1)
        weights, accuracy = fit_layer_weights(outputs, targets, steps=400, lr=0.1, seed=0)
        assert weights[1] > 0.5
        assert accuracy > 0.9

    def test_single_class_rejected(self):
        outputs, _ = self.planted_instance()
        with pytest.raises(ValueError, match="degenerate"):
            fit_layer_weights(outputs, np.zeros(200, dtype=np.int64))

    def test_zero_learning_rate_keeps_uniform(self):
        outputs, targets = self.planted_instance()
        weights, _ = fit_layer_weights(outputs, targets, steps=50, lr=0.0, seed=0)
        assert np.allclose(weights, 0.25)

    def test_profile_invariant_to_example_order(self):
        outputs, targets = self.planted_instance(seed=3)
        perm = np.random.default_rng(1).permutation(targets.size)
        w1, _ = fit_layer_weights(outputs, targets, steps=200, seed=0)
        w2, _ = fit_layer_weights(outputs[:, perm], targets[perm], steps=200, seed=0)
        assert np.max(np.abs(w1 - w2)) < 1e-6


class TestLayerProfile:
    def test_emits_profile_and_separability(self, small_setup):
        import dataclasses

        from speechssl.trainer import init_state, train

        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=2)
        ckpt = train(init_state(config), corpus, labels)
        means, tags = utterance_means(ckpt, corpus)
        weights, accuracy, separability = layer_profile(means, tags, steps=50)
        assert len(weights) == config.encoder.num_layers + 1
        assert abs(weights.sum() - 1.0) < 1e-8
        assert separability == {layer: loo_nearest_centroid_accuracy(m, tags)
                                for layer, m in enumerate(means)}
        assert 0.0 <= accuracy <= 1.0


class TestAsciiBarChart:
    def test_renders_lines(self):
        chart = ascii_bar_chart({"layer0": 0.5, "layer1": 1.0})
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 40


class TestOverlappedCorpus:
    """Each overlapped utterance against a brute-force search for the chunk
    that was added to it."""

    @staticmethod
    def find_chunk(added, corpus, speaker):
        """Every (utterance index, offset, gain) whose slice, times a gain,
        is `added` to 1e-9 relative: a search of every offset of every
        utterance of another speaker."""
        found = []
        for j, other in enumerate(corpus):
            if other.speaker == speaker or len(other.waveform) < len(added):
                continue
            windows = np.lib.stride_tricks.sliding_window_view(other.waveform, len(added))
            for offset, window in enumerate(windows):
                gain = float(window @ added) / float(window @ window)
                if np.linalg.norm(added - gain * window) <= 1e-9 * np.linalg.norm(added):
                    found.append((j, offset, gain))
        return found

    def test_against_brute_force_oracle(self):
        corpus = synth_corpus(3, 2, duration=0.05, seed=4)
        mixed = probe.overlapped_corpus(corpus, seed=7)
        assert [(u.id, u.speaker) for u in mixed] == [(u.id, u.speaker) for u in corpus]
        for utt, out in zip(corpus, mixed):
            clean, noisy = utt.waveform, out.waveform
            n, l = len(clean), len(clean) // 2
            changed = np.flatnonzero(noisy != clean)
            assert len(changed) == l, utt.id
            start = changed[0]
            assert np.array_equal(changed, np.arange(start, start + l)), utt.id
            outside = np.r_[0:start, start + l:n]
            assert np.array_equal(noisy[outside], clean[outside]), utt.id
            ((j, offset, gain),) = self.find_chunk(noisy[start:start + l] - clean[start:start + l],
                                                   corpus, utt.speaker)
            chunk = corpus[j].waveform[offset:offset + l]
            target = float(np.sum(clean[start:start + l] ** 2))
            assert abs(gain**2 * float(np.sum(chunk**2)) - target) <= 1e-12 * target, utt.id

    def test_silent_target_region_gets_a_unit_gain_chunk(self):
        # a digitally silent utterance: wherever its half-length chunk lands,
        # the region is silent, and the chunk goes in at unit gain, as
        # training's mixing adds one
        corpus = synth_corpus(2, 2, duration=0.05, seed=4)
        silent = corpus[0]
        corpus[0] = Utterance(silent.id, np.zeros(len(silent.waveform)), silent.speaker)
        noisy = probe.overlapped_corpus(corpus, seed=7)[0].waveform
        changed = np.flatnonzero(noisy)
        l = noisy.size // 2
        assert changed.size == l
        start = changed[0]
        ((_, _, gain),) = self.find_chunk(noisy[start:start + l], corpus, silent.speaker)
        assert gain == 1.0

    def test_refuses_one_speaker(self):
        with pytest.raises(ValueError, match="at least 2 speakers"):
            probe.overlapped_corpus(synth_corpus(1, 3, duration=0.05, seed=0))
