import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechssl.dsp import FeatureSequence
from speechssl.encoder import (
    BatchMask,
    EncoderConfig,
    NonFiniteActivations,
    backward,
    forward,
    init_encoder_params,
    sample_mask,
    sinusoidal_positions,
    zero_grads,
)

INPUT_DIM = 6
TINY = EncoderConfig(model_dim=8, num_layers=2, num_heads=2,
                     ffn_dim=12, num_classes=5, tap_layer=1, mask_span=2,
                     mask_start_prob=0.3)


def tiny_features(t=5, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSequence(rng.standard_normal((t, dim)), 100.0, "probe")


# ---------------------------------------------------------------------------
# Straight-line reference forward pass (independent oracle implementation)


def ref_layer_norm(x_row, gain, bias, eps=1e-5):
    mu = float(np.mean(x_row))
    var = float(np.mean((x_row - mu) ** 2))
    return gain * (x_row - mu) / math.sqrt(var + eps) + bias


def ref_gelu(x_row):
    return np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x_row])


def ref_softmax(row):
    e = np.exp(row - row.max())
    return e / e.sum()


def ref_positions(t, dim):
    enc = np.zeros((t, dim))
    for pos in range(t):
        for i in range(0, dim, 2):
            angle = pos / (10000.0 ** (i / dim))
            enc[pos, i] = math.sin(angle)
            if i + 1 < dim:
                enc[pos, i + 1] = math.cos(angle)
    return enc


def reference_forward(feats, mask_indices, params, cfg):
    t = feats.shape[0]
    d = cfg.model_dim
    heads = cfg.num_heads
    dh = d // heads
    h = np.array([feats[i] @ params["proj/W"] + params["proj/b"] for i in range(t)])
    for i in mask_indices:
        h[i] = params["mask_emb"].copy()
    tap0 = h.copy()
    taps = [tap0]
    if cfg.num_layers:
        h = h + ref_positions(t, d)
        for b in range(cfg.num_layers):
            n1 = np.array([
                ref_layer_norm(h[i], params[f"block{b}/ln1/g"], params[f"block{b}/ln1/b"])
                for i in range(t)
            ])
            # Wqkv's columns are the q, k and v projections, in that order
            wqkv = params[f"block{b}/attn/Wqkv"]
            q = n1 @ wqkv[:, :d]
            k = n1 @ wqkv[:, d:2 * d]
            v = n1 @ wqkv[:, 2 * d:]
            ctx = np.zeros((t, d))
            for head in range(heads):
                sl = slice(head * dh, (head + 1) * dh)
                for i in range(t):
                    scores = np.array([
                        float(q[i, sl] @ k[j, sl]) / math.sqrt(dh) for j in range(t)
                    ])
                    weights = ref_softmax(scores)
                    ctx[i, sl] = sum(weights[j] * v[j, sl] for j in range(t))
            a = h + ctx @ params[f"block{b}/attn/Wo"]
            n2 = np.array([
                ref_layer_norm(a[i], params[f"block{b}/ln2/g"], params[f"block{b}/ln2/b"])
                for i in range(t)
            ])
            ff = np.array([
                ref_gelu(n2[i] @ params[f"block{b}/ffn/W1"] + params[f"block{b}/ffn/b1"])
                @ params[f"block{b}/ffn/W2"] + params[f"block{b}/ffn/b2"]
                for i in range(t)
            ])
            h = a + ff
            taps.append(h.copy())
    final = np.array([
        ref_layer_norm(h[i], params["final_ln/g"], params["final_ln/b"]) for i in range(t)
    ])
    logits = final @ params["head/W"] + params["head/b"]
    return taps, final, logits


class TestSampleMask:
    def test_prob_one_full_span(self):
        cfg = EncoderConfig(mask_start_prob=1.0, mask_span=40)
        mask = sample_mask(40, cfg, seed=1)
        assert len(mask) == 40
        assert np.array_equal(mask, np.arange(40))

    def test_monte_carlo_masked_fraction(self):
        # fraction ~= 1 - (1 - p)^span = 0.5656 for p=0.08, span=10
        cfg = EncoderConfig(mask_start_prob=0.08, mask_span=10)
        fractions = [len(sample_mask(1000, cfg, seed=s)) / 1000 for s in range(1000)]
        assert 0.4 < np.mean(fractions) < 0.7

    def test_deterministic(self):
        cfg = EncoderConfig(mask_start_prob=0.2, mask_span=3)
        a = sample_mask(64, cfg, seed=5)
        b = sample_mask(64, cfg, seed=5)
        assert np.array_equal(a, b)

    def test_min_spans_fallback(self):
        # no frame starts a span at prob 0: exactly one fallback span is placed
        cfg = EncoderConfig(mask_start_prob=0.0, mask_span=4)
        mask = sample_mask(32, cfg, seed=3)
        assert 1 <= len(mask) <= 4
        assert np.array_equal(mask, np.arange(mask[0], mask[0] + len(mask)))

    @given(seed=st.integers(min_value=0, max_value=10**6),
           t=st.integers(min_value=1, max_value=400),
           span=st.integers(min_value=1, max_value=12),
           prob=st.sampled_from([0.0, 0.02, 0.08, 0.15, 0.5, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_matches_concatenate_and_merge_oracle(self, seed, t, span, prob):
        # oracle: the same seeded draw, then one arange per span start,
        # concatenated and merged into sorted unique indices
        cfg = EncoderConfig(mask_start_prob=prob, mask_span=span)
        rng = np.random.default_rng(seed)
        starts = np.nonzero(rng.random(t) < prob)[0]
        if starts.size == 0:
            starts = np.array([rng.integers(t)])
        want = np.unique(np.concatenate(
            [np.arange(s, min(s + span, t)) for s in starts]
        ).astype(np.int64))
        got = sample_mask(t, cfg, seed=seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert all(0 <= i < t for i in got)


class TestCorrupt:
    @pytest.mark.parametrize("indices", [[[], []], [[], [3]], [list(range(5))] * 2],
                             ids=["empty", "one-row", "all-rows"])
    def test_forward_writes_mask_emb_at_masked_rows(self, indices):
        params = init_encoder_params(TINY, INPUT_DIM, seed=4)
        frames = np.stack([tiny_features(seed=s).frames for s in (1, 2)])
        mask = BatchMask.from_indices(indices, 5)
        out = forward(frames, mask, params, TINY)
        projected = frames.reshape(10, -1) @ params["proj/W"] + params["proj/b"]
        projected = projected.reshape(2, 5, -1)
        masked = np.zeros((2, 5), dtype=bool)
        masked.reshape(-1)[mask.rows] = True
        assert np.all(out.layer_outputs[0][masked] == params["mask_emb"])
        assert np.array_equal(out.layer_outputs[0][~masked], projected[~masked])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            BatchMask.from_indices([[7]], 4)


class TestForward:
    def test_degenerate_zero_layers_tap_is_projection(self):
        cfg = EncoderConfig(model_dim=8, num_layers=0, num_heads=2,
                            ffn_dim=12, num_classes=5, tap_layer=0)
        params = init_encoder_params(cfg, INPUT_DIM, seed=0)
        feats = tiny_features()
        mask = BatchMask.from_indices([[1]], feats.num_frames)
        out = forward(feats.frames[None], mask, params, cfg)
        expected = feats.frames @ params["proj/W"] + params["proj/b"]
        expected[1] = params["mask_emb"]
        assert np.array_equal(out.tap[0], expected)

    def test_masking_locality_zero_layers(self):
        cfg = EncoderConfig(model_dim=8, num_layers=0, num_heads=2,
                            ffn_dim=12, num_classes=5, tap_layer=0)
        params = init_encoder_params(cfg, INPUT_DIM, seed=0)
        feats = tiny_features()
        mask = BatchMask.from_indices([[2]], feats.num_frames)
        out1 = forward(feats.frames[None], mask, params, cfg)
        params["mask_emb"] = params["mask_emb"] + 5.0
        out2 = forward(feats.frames[None], mask, params, cfg)
        keep = [0, 1, 3, 4]
        assert np.array_equal(out1.final[0, keep], out2.final[0, keep])
        assert not np.array_equal(out1.final[0, 2], out2.final[0, 2])

    def test_shapes(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=1)
        feats = tiny_features(t=7)
        out = forward(feats.frames[None], BatchMask.from_indices([[]], 7), params, TINY)
        assert out.tap.shape == (1, 7, 8)
        assert out.final.shape == (1, 7, 8)
        assert out.content_logits.shape == (1, 7, 5)
        assert len(out.layer_outputs) == 3
        assert out.num_frames == 7

    def test_deterministic(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=1)
        feats = tiny_features(t=6, seed=3)
        mask = BatchMask.from_indices([sample_mask(6, TINY, seed=2)], 6)
        a = forward(feats.frames[None], mask, params, TINY)
        b = forward(feats.frames[None], mask, params, TINY)
        assert np.array_equal(a.content_logits, b.content_logits)
        assert np.array_equal(a.tap, b.tap)

    def test_batch_order_irrelevant(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=1)
        batch = [tiny_features(t=5, seed=s) for s in range(3)]
        mask = BatchMask.from_indices([[]], 5)
        solo = [forward(f.frames[None], mask, params, TINY).content_logits for f in batch]
        for order in ([2, 0, 1], [1, 2, 0]):
            for pos, idx in enumerate(order):
                again = forward(batch[idx].frames[None], mask, params, TINY).content_logits
                assert np.array_equal(again, solo[idx])

    def test_matches_reference_implementation(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=4)
        feats = tiny_features(t=5, seed=9)
        mask = BatchMask.from_indices([[1, 2]], 5)
        out = forward(feats.frames[None], mask, params, TINY)
        taps, final, logits = reference_forward(feats.frames, [1, 2], params, TINY)
        assert np.max(np.abs(out.content_logits[0] - logits)) < 1e-10
        assert np.max(np.abs(out.final[0] - final)) < 1e-10
        for mine, ref in zip(out.layer_outputs, taps):
            assert np.max(np.abs(mine[0] - ref)) < 1e-10

    def test_dim_mismatch(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=0)
        with pytest.raises(ValueError, match="projection's input width 6"):
            forward(tiny_features(dim=4).frames[None], BatchMask.from_indices([[]], 5),
                    params, TINY)

    def test_mask_frame_count_mismatch(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=0)
        with pytest.raises(ValueError, match="frames"):
            forward(tiny_features(t=5).frames[None], BatchMask.from_indices([[]], 9), params, TINY)


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            EncoderConfig(model_dim=10, num_heads=3)

    def test_tap_layer_range(self):
        with pytest.raises(ValueError):
            EncoderConfig(num_layers=4, tap_layer=5)


class TestParams:
    def test_wqkv_is_three_xavier_draws_side_by_side(self):
        # separate (d, d) Wq, Wk, Wv and Wo drawn in turn from the same seed:
        # Wqkv holds the first three side by side, and every draw stays put
        cfg, seed, d = TINY, 9, TINY.model_dim
        rng = np.random.default_rng(seed)

        def xavier(n_in, n_out):
            limit = math.sqrt(6.0 / (n_in + n_out))
            return rng.uniform(-limit, limit, (n_in, n_out))

        separate = {"proj/W": xavier(INPUT_DIM, d), "mask_emb": rng.normal(0.0, 0.1, d)}
        for i in range(cfg.num_layers):
            for name in ("Wq", "Wk", "Wv", "Wo", "W1", "W2"):
                shape = {"W1": (d, cfg.ffn_dim), "W2": (cfg.ffn_dim, d)}.get(name, (d, d))
                separate[f"block{i}/{name}"] = xavier(*shape)
        separate["head/W"] = xavier(d, cfg.num_classes)

        params = init_encoder_params(cfg, INPUT_DIM, seed)
        assert sorted(k for k in params if "/attn/" in k) == [
            f"block{i}/attn/{name}" for i in range(cfg.num_layers) for name in ("Wo", "Wqkv")]
        for i in range(cfg.num_layers):
            prefix = f"block{i}/"
            assert params[prefix + "attn/Wqkv"].shape == (d, 3 * d)
            assert np.array_equal(params[prefix + "attn/Wqkv"], np.concatenate(
                [separate[prefix + name] for name in ("Wq", "Wk", "Wv")], axis=1))
            assert np.array_equal(params[prefix + "attn/Wo"], separate[prefix + "Wo"])
            for name in ("W1", "W2"):
                assert np.array_equal(params[prefix + "ffn/" + name], separate[prefix + name])
        for key in ("proj/W", "mask_emb", "head/W"):
            assert np.array_equal(params[key], separate[key])


def masked_tap(out):
    """The tap rows at the mask's rows, in its order: the (P, d) layout of
    backward's tap gradient."""
    return out.tap.reshape(-1, out.tap.shape[-1])[out.mask.rows]


class TestBackward:
    def scalar_loss(self, params, frames, masks, cfg):
        out = forward(frames, masks, params, cfg)
        return float(np.sum(np.sin(out.content_logits)) + np.sum(masked_tap(out)**2))

    def test_gradients_match_finite_differences(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=6)
        single = ([tiny_features(t=5, seed=2)], [[0, 3]])
        # B=3, a different mask per utterance, one of them empty
        batched = ([tiny_features(t=5, seed=s) for s in (2, 7, 8)], [[0, 3], [1, 2, 4], []])
        h = 1e-5
        # tap_layer 0: the tap gradient joins below the first block
        for cfg, (feats, mask_indices) in ((TINY, single), (TINY, batched),
                                           (replace(TINY, tap_layer=0), batched)):
            frames = np.stack([f.frames for f in feats])
            masks = BatchMask.from_indices(mask_indices, 5)
            out = forward(frames, masks, params, cfg)
            dlogits = np.cos(out.content_logits)
            dtap = 2.0 * masked_tap(out)
            grads = backward(out, params, cfg, dlogits, dtap, zero_grads(params))
            rng = np.random.default_rng(0)
            # 12 per key, so the (d, 3d) Wqkv gets about 4 per q, k and v projection
            for key in sorted(params):
                flat = params[key].reshape(-1)
                for c in rng.choice(flat.size, min(12, flat.size), replace=False):
                    orig = flat[c]
                    flat[c] = orig + h
                    up = self.scalar_loss(params, frames, masks, cfg)
                    flat[c] = orig - h
                    down = self.scalar_loss(params, frames, masks, cfg)
                    flat[c] = orig
                    fd = (up - down) / (2 * h)
                    an = grads[key].reshape(-1)[c]
                    rel = abs(an - fd) / max(abs(an) + abs(fd), 1e-8)
                    assert rel < 1e-4, (f"B={len(feats)} tap {cfg.tap_layer} {key}: "
                                        f"analytic {an} vs fd {fd}")

    def test_tap_at_top_layer(self):
        cfg = EncoderConfig(model_dim=8, num_layers=2, num_heads=2,
                            ffn_dim=12, num_classes=5, tap_layer=2)
        params = init_encoder_params(cfg, INPUT_DIM, seed=3)
        feats = tiny_features(t=4, seed=5)
        mask = BatchMask.from_indices([[1]], 4)
        out = forward(feats.frames[None], mask, params, cfg)
        grads = backward(out, params, cfg, np.zeros_like(out.content_logits),
                         np.ones((len(mask), cfg.model_dim)), zero_grads(params))
        assert any(np.any(g != 0) for g in grads.values())

    def test_grads_zero_without_upstream(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=3)
        out = forward(tiny_features().frames[None], BatchMask.from_indices([[]], 5), params, TINY)
        grads = backward(out, params, TINY, np.zeros_like(out.content_logits), None,
                         zero_grads(params))
        assert all(np.all(g == 0) for k, g in grads.items() if k.startswith("head"))


class TestBatch:
    """A (B, T, D) batch is B independent utterances."""

    T = 6
    MASKS = ([0, 3], [1, 2, 5], [], [4])

    def batch(self, seed=0):
        rng = np.random.default_rng(seed)
        frames = rng.standard_normal((len(self.MASKS), self.T, INPUT_DIM))
        return frames, BatchMask.from_indices(self.MASKS, self.T)

    @staticmethod
    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    def test_matches_single_utterance_calls(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=11)
        frames, masks = self.batch()
        out = forward(frames, masks, params, TINY)
        assert out.num_frames == len(self.MASKS) * self.T
        assert len(out.mask) == sum(len(m) for m in self.MASKS)
        rng = np.random.default_rng(1)
        dlogits = rng.standard_normal(out.content_logits.shape)
        dtap = rng.standard_normal((len(masks), TINY.model_dim))
        grads = backward(out, params, TINY, dlogits, dtap, zero_grads(params))
        summed = zero_grads(params)
        starts = np.cumsum([0, *masks.counts])
        for b, idx in enumerate(self.MASKS):
            solo = forward(frames[b:b + 1], BatchMask.from_indices([idx], self.T), params, TINY)
            assert self.rel(out.content_logits[b], solo.content_logits[0]) < 1e-12
            assert self.rel(out.tap[b], solo.tap[0]) < 1e-12
            for mine, ref in zip(out.layer_outputs, solo.layer_outputs):
                assert self.rel(mine[b], ref[0]) < 1e-12
            backward(solo, params, TINY, dlogits[b:b + 1], dtap[starts[b]:starts[b + 1]],
                     summed)
        for key in params:
            assert self.rel(grads[key], summed[key]) < 1e-12, key

    def test_perturbing_one_utterance_leaves_others_bit_identical(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=12)
        frames, masks = self.batch(seed=3)
        before = forward(frames, masks, params, TINY)
        frames[1] += np.random.default_rng(4).standard_normal(frames[1].shape)
        after = forward(frames, masks, params, TINY)
        assert not np.array_equal(before.content_logits[1], after.content_logits[1])
        for b in (0, 2, 3):
            assert np.array_equal(before.content_logits[b], after.content_logits[b])
            for x, y in zip(before.layer_outputs, after.layer_outputs):
                assert np.array_equal(x[b], y[b])

    def test_non_finite_activation_names_block_and_row(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=0)
        frames, masks = self.batch()
        frames[2, 3, 0] = np.nan
        with pytest.raises(NonFiniteActivations, match=r"block 0 .* row\(s\) \[2\]") as err:
            forward(frames, masks, params, TINY)
        assert (err.value.block, err.value.rows) == (0, [2])
        assert isinstance(err.value, FloatingPointError)

    def test_one_mask_per_utterance(self):
        params = init_encoder_params(TINY, INPUT_DIM, seed=0)
        frames, _ = self.batch()
        with pytest.raises(ValueError, match="masks"):
            forward(frames, BatchMask.from_indices(self.MASKS[:-1], self.T), params, TINY)

    # fewer utterances or more frames than the batch are covered by
    # test_one_mask_per_utterance and TestForward.test_mask_frame_count_mismatch
    @pytest.mark.parametrize("batch_size, num_frames", [(5, 6), (4, 5)])
    def test_mask_shape_must_match_frames(self, batch_size, num_frames):
        params = init_encoder_params(TINY, INPUT_DIM, seed=0)
        frames, _ = self.batch()
        with pytest.raises(ValueError, match="but the batch holds 4 utterances of 6 frames"):
            forward(frames, BatchMask.from_indices([[]] * batch_size, num_frames), params, TINY)


class TestPositions:
    def test_matches_reference(self):
        assert np.max(np.abs(sinusoidal_positions(7, 8) - ref_positions(7, 8))) < 1e-12
