import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechssl.quantizer import (
    QuantizerConfig,
    QuantizeOutput,
    QuantizerState,
    gumbel_noise,
    gumbel_probs,
    init_quantizer_params,
    quantize,
    quantize_backward,
    tau_at,
    usage_stats,
)


def make_state(tau=1.0, seed=0, **kwargs):
    cfg = QuantizerConfig(**{
        "num_codebooks": 2, "num_entries": 4, "entry_dim": 3,
        "latent_dim": 6, "out_dim": 6, **kwargs,
    })
    return QuantizerState(cfg, init_quantizer_params(cfg, seed), tau)


def noise(seed, latent, cfg):
    """One utterance's Gumbel noise for its latent rows."""
    return gumbel_noise([seed], [len(latent)], cfg)


def longdouble_softmax_oracle(logits, noise, tau):
    """Extended-precision reference for the selection probabilities."""
    z = (np.asarray(logits, dtype=np.longdouble) + np.asarray(noise, dtype=np.longdouble)) / tau
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.float64)


class TestGumbelProbs:
    def test_symmetric_logits_zero_noise(self):
        probs = gumbel_probs(np.zeros((1, 2)), 1.0, np.zeros((1, 2)))
        assert np.allclose(probs, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form_softmax(self):
        probs = gumbel_probs(np.array([[np.log(2.0), 0.0]]), 1.0, np.zeros((1, 2)))
        assert np.allclose(probs, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(17)
        logits = rng.standard_normal((5, 3, 8)) * 4.0
        noise = rng.gumbel(size=logits.shape)
        got = gumbel_probs(logits, 0.5, noise)
        want = longdouble_softmax_oracle(logits, noise, 0.5)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            gumbel_probs(np.zeros((1, 2)), 0.0, np.zeros((1, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gumbel_probs(np.array([[np.inf, 0.0]]), 1.0, np.zeros((1, 2)))

    @given(seed=st.integers(min_value=0, max_value=10**6),
           tau=st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, seed, tau):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((3, 2, 6)) * 10
        probs = gumbel_probs(logits, tau, rng.gumbel(size=logits.shape))
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-6
        assert probs.min() >= 0.0 and probs.max() <= 1.0


class TestQuantize:
    def test_single_entry_forced(self):
        state = make_state(num_entries=1)
        rng = np.random.default_rng(0)
        a = quantize(rng.standard_normal((4, 6)), state, gumbel_noise([1], [4], state.config))
        b = quantize(rng.standard_normal((4, 6)), state, gumbel_noise([2], [4], state.config))
        assert np.array_equal(a.q[0], b.q[0])  # independent of logits
        assert np.all(a.hard_indices == 0)

    def test_tau_to_zero_approaches_one_hot(self):
        cfg = QuantizerConfig(num_codebooks=1, num_entries=5, entry_dim=2,
                              latent_dim=4, out_dim=4)
        params = init_quantizer_params(cfg, 3)
        latent = np.random.default_rng(5).standard_normal((3, 4))
        max_probs = []
        for tau in (1.0, 0.1, 0.01):
            out = quantize(latent, QuantizerState(cfg, params, tau), noise(11, latent, cfg))
            max_probs.append(out.probs.max(axis=-1).min())
        assert max_probs[0] < max_probs[1] < max_probs[2]
        assert max_probs[2] > 0.999

    def test_run_twice_identical(self):
        state = make_state()
        latent = np.random.default_rng(2).standard_normal((5, 6))
        a = quantize(latent, state, noise(9, latent, state.config))
        b = quantize(latent, state, noise(9, latent, state.config))
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.hard_indices, b.hard_indices)

    def test_hard_forward_uses_argmax_entries(self):
        state = make_state()
        latent = np.random.default_rng(4).standard_normal((3, 6))
        out = quantize(latent, state, noise(7, latent, state.config), hard=True)
        codebook = state.params["quant/codebook"]
        for f in range(3):
            picked = np.concatenate([
                codebook[g, out.hard_indices[f, g]] for g in range(2)
            ])
            expected = picked @ state.params["quant/proj_out/W"] + state.params[
                "quant/proj_out/b"
            ]
            assert np.allclose(out.q[f], expected, atol=1e-15)
        assert np.array_equal(out.hard_indices, np.argmax(out.probs, axis=-1))

    def test_temperature_monotone_max_prob(self):
        # fixed logits+noise: max prob is non-increasing in tau
        rng = np.random.default_rng(21)
        logits = rng.standard_normal((4, 2, 6))
        noise = rng.gumbel(size=logits.shape)
        taus = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]
        maxima = [gumbel_probs(logits, t, noise).max(axis=-1) for t in taus]
        for lo, hi in zip(maxima, maxima[1:]):
            assert np.all(hi <= lo + 1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            state = make_state()
            quantize(np.zeros((2, 5)), state, gumbel_noise([0], [2], state.config))

    def test_soft_mode_gradients_match_finite_differences(self):
        state = make_state(tau=0.7, seed=6)
        rng = np.random.default_rng(8)
        latent = rng.standard_normal((4, 6))
        target = rng.standard_normal((4, 6))

        def loss(params):
            out = quantize(latent, QuantizerState(state.config, params, 0.7),
                           noise(13, latent, state.config), hard=False)
            return 0.5 * float(np.sum((out.q - target) ** 2)) + float(
                np.sum(out.probs**2)
            )

        out = quantize(latent, state, noise(13, latent, state.config), hard=False)
        dq = out.q - target
        dprobs = 2.0 * out.probs
        _, grads = quantize_backward(out, state, dq, dprobs)
        h = 1e-6
        for key, grad in grads.items():
            flat = state.params[key].reshape(-1)
            for c in np.random.default_rng(3).choice(flat.size, 5, replace=False):
                orig = flat[c]
                flat[c] = orig + h
                up = loss(state.params)
                flat[c] = orig - h
                down = loss(state.params)
                flat[c] = orig
                fd = (up - down) / (2 * h)
                an = grad.reshape(-1)[c]
                assert abs(an - fd) / max(abs(an) + abs(fd), 1e-8) < 1e-5, key

    def test_latent_gradient_matches_finite_differences(self):
        state = make_state(tau=0.9, seed=2)
        rng = np.random.default_rng(14)
        latent = rng.standard_normal((3, 6))

        def loss(lat):
            out = quantize(lat, state, noise(4, lat, state.config), hard=False)
            return float(np.sum(out.q**2))

        out = quantize(latent, state, noise(4, latent, state.config), hard=False)
        dlatent, _ = quantize_backward(out, state, 2.0 * out.q)
        h = 1e-6
        for c in range(latent.size):
            flat = latent.reshape(-1)
            orig = flat[c]
            flat[c] = orig + h
            up = loss(latent)
            flat[c] = orig - h
            down = loss(latent)
            flat[c] = orig
            fd = (up - down) / (2 * h)
            an = dlatent.reshape(-1)[c]
            assert abs(an - fd) / max(abs(an) + abs(fd), 1e-8) < 1e-5


class TestBatchedQuantize:
    """The masked rows of a whole batch go through quantize once, with each
    utterance's noise drawn from its own seed."""

    SEEDS = (11, 4, 29, 8)

    @staticmethod
    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    @pytest.mark.parametrize("hard", [True, False], ids=["hard", "soft"])
    @pytest.mark.parametrize("counts", [(3, 7, 2, 5), (3, 7, 1, 5)], ids=["rows", "one-row"])
    def test_equals_per_utterance_calls(self, hard, counts):
        state = make_state(tau=0.8, seed=5)
        rng = np.random.default_rng(31)
        latents = [rng.standard_normal((n, 6)) for n in counts]
        dqs = [rng.standard_normal((n, 6)) for n in counts]
        dprobs = [rng.standard_normal((n, 2, 4)) for n in counts]
        batched = quantize(np.concatenate(latents), state,
                           gumbel_noise(self.SEEDS, counts, state.config), hard=hard)
        solo = [quantize(lat, state, noise(seed, lat, state.config), hard=hard)
                for lat, seed in zip(latents, self.SEEDS)]
        for field in ("q", "probs", "hard_indices"):
            got = getattr(batched, field)
            want = np.concatenate([getattr(out, field) for out in solo])
            if 1 in counts and field != "hard_indices":
                # numpy runs a one-row product as a matrix-vector BLAS call,
                # whose sums may round differently from the matrix product's
                assert self.rel(got, want) < 1e-14, field
            else:
                assert np.array_equal(got, want), field

        dlatent, grads = quantize_backward(batched, state, np.concatenate(dqs),
                                           np.concatenate(dprobs))
        summed = {key: np.zeros_like(value) for key, value in grads.items()}
        solo_dlatent = []
        for out, dq, dp in zip(solo, dqs, dprobs):
            dlat, solo_grads = quantize_backward(out, state, dq, dp)
            solo_dlatent.append(dlat)
            for key, grad in solo_grads.items():
                summed[key] += grad
        assert self.rel(dlatent, np.concatenate(solo_dlatent)) < 1e-12
        for key in grads:
            assert self.rel(grads[key], summed[key]) < 1e-12, key


class TestUsageStats:
    def test_single_frame_identity(self):
        state = make_state()
        latent = np.random.default_rng(0).standard_normal((1, 6))
        out = quantize(latent, state, noise(3, latent, state.config))
        assert np.array_equal(usage_stats(out), out.probs[0])

    def test_mean_of_one_hots(self):
        probs = np.zeros((2, 1, 2))
        probs[0, 0, 0] = 1.0
        probs[1, 0, 1] = 1.0
        out = QuantizeOutput(np.zeros((2, 4)), probs, np.argmax(probs, -1), True)
        assert np.allclose(usage_stats(out), [[0.5, 0.5]])

    def test_matches_naive_sum_oracle(self):
        state = make_state()
        rng = np.random.default_rng(19)
        counts = (3, 5, 2)
        latent = np.concatenate([rng.standard_normal((n, 6)) for n in counts])
        out = quantize(latent, state, gumbel_noise(counts, counts, state.config))
        # straight-line oracle: accumulate frame by frame
        total = np.zeros((2, 4))
        count = 0
        for f in range(out.num_frames):
            total += out.probs[f]
            count += 1
        assert np.max(np.abs(usage_stats(out) - total / count)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            usage_stats(QuantizeOutput(np.zeros((0, 4)), np.zeros((0, 2, 4)),
                                       np.zeros((0, 2), dtype=int), True))

    def test_row_sums_validated(self):
        bad = QuantizeOutput(np.zeros((1, 4)), np.full((1, 2, 4), 0.3),
                             np.zeros((1, 2), dtype=int), True)
        with pytest.raises(ValueError, match="sum"):
            usage_stats(bad)


class TestTauSchedule:
    def test_endpoints(self):
        assert tau_at(0, 100) == 2.0
        assert abs(tau_at(100, 100) - 0.1) < 1e-12

    def test_monotone(self):
        values = [tau_at(s, 50) for s in range(51)]
        assert all(b < a for a, b in zip(values, values[1:]))
