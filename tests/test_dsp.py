import numpy as np
import pytest

from speechssl import dsp
from speechssl.corpus import Waveform
from speechssl.dsp import (
    FeatureSequence,
    MfccConfig,
    dct_matrix,
    frame_count,
    hann_window,
    hz_to_mel,
    load_features,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    mfcc_batch,
    save_features,
)
from speechssl.numerics import BufferPool


def tone(freq, duration=1.0, sr=16000, amp=0.5):
    t = np.arange(int(duration * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


class TestConfig:
    def test_window_exceeds_fft(self):
        with pytest.raises(ValueError):
            MfccConfig(window=600, fft_size=512)

    def test_ceps_exceed_mel(self):
        with pytest.raises(ValueError):
            MfccConfig(num_ceps=30, num_mel=26)

    def test_default_dim(self):
        assert MfccConfig().dim == 39
        assert MfccConfig(deltas=False).dim == 13


class TestFrameCount:
    def test_formula(self):
        # T = 1 + floor((N - window) / hop)
        assert frame_count(4000, 400, 160) == 23
        feats = mfcc(Waveform(np.random.default_rng(0).standard_normal(4000) * 0.1, 16000))
        assert feats.num_frames == 23

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter"):
            mfcc(Waveform(np.zeros(100), 16000))


class TestMfcc:
    def test_all_zero_waveform_constant_frames(self):
        feats = mfcc(Waveform(np.zeros(4000), 16000))
        assert np.all(feats.frames == feats.frames[0])

    def test_pure_tone_hits_nearest_mel_band(self):
        # oracle: band centers computed straight from the mel-scale formula
        sr, freq = 16000, 1000.0
        for num_mel in (24, 26):
            cfg = MfccConfig(num_mel=num_mel)
            centers_oracle = mel_to_hz(
                np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2.0), num_mel + 2)
            )[1:-1]
            logmel = dsp._log_mel([tone(freq, sr=sr)], cfg)[0]
            argmax_band = int(np.argmax(logmel.mean(axis=0)))
            nearest_band = int(np.argmin(np.abs(centers_oracle - freq)))
            assert argmax_band == nearest_band

    def test_deterministic(self):
        wav = tone(300.0, duration=0.2)
        a = mfcc(wav)
        b = mfcc(Waveform(wav.samples.copy(), wav.sample_rate))
        assert np.array_equal(a.frames, b.frames)

    def test_filterbank_built_once_and_read_only(self):
        fb = mel_filterbank(26, 512, 16000)
        assert mel_filterbank(26, 512, 16000) is fb
        assert fb.shape == (26, 257)
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    def test_window_and_dct_built_once_and_read_only(self):
        for build, args in ((hann_window, (400,)), (dct_matrix, (13, 26))):
            mat = build(*args)
            assert build(*args) is mat
            with pytest.raises(ValueError):
                mat[0] = 1.0

    def test_dct_orthonormal_inverse(self):
        # square case: DCT then its transpose recovers the input
        rng = np.random.default_rng(7)
        mat = dct_matrix(26, 26)
        vec = rng.standard_normal(26)
        assert np.max(np.abs(mat.T @ (mat @ vec) - vec)) < 1e-10
        assert np.max(np.abs(mat @ mat.T - np.eye(26))) < 1e-12

    def test_scaling_shifts_logmel_and_fixes_cepstra(self):
        # broadband noise keeps every mel band above the floor
        c = 2.5
        rng = np.random.default_rng(3)
        wav = Waveform(0.1 * rng.standard_normal(4800), 16000)
        scaled = Waveform(c * wav.samples, wav.sample_rate)
        cfg = MfccConfig(deltas=False)
        base = dsp._log_mel([wav], cfg)[0]
        shifted = dsp._log_mel([scaled], cfg)[0]
        assert base.min() > np.log(cfg.floor)  # above floor so the shift is exact
        assert np.max(np.abs(shifted - base - np.log(c**2))) < 1e-8
        f0 = mfcc(wav, cfg).frames
        f1 = mfcc(scaled, cfg).frames
        assert np.max(np.abs(f1[:, 1:] - f0[:, 1:])) < 1e-8
        assert np.all(f1[:, 0] > f0[:, 0])

    def test_delta_dim(self):
        feats = mfcc(tone(250.0, duration=0.1))
        assert feats.dim == 39

    def test_frame_rate(self):
        feats = mfcc(tone(250.0, duration=0.1))
        assert feats.frame_rate == 100.0


class TestFeatureSequence:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureSequence(np.array([[np.inf, 0.0]]), 100.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureSequence(np.zeros((0, 3)), 100.0)


class TestFeatureDump:
    def test_round_trip(self, tmp_path):
        feats = mfcc(tone(440.0, duration=0.1), meta="u0")
        save_features(tmp_path, "u0", feats)
        back = load_features(tmp_path, "u0")
        assert back.num_frames == feats.num_frames
        assert back.dim == feats.dim
        assert back.frame_rate == feats.frame_rate
        # dump format is float32, so round-trip is exact at float32 precision
        assert np.array_equal(back.frames, feats.frames.astype("<f4").astype(np.float64))


def reference_mfcc(samples, sample_rate, cfg):
    """The per-utterance pipeline written out directly: the oracle for the
    batched one."""
    pre = np.empty_like(samples)
    pre[0] = samples[0]
    pre[1:] = samples[1:] - cfg.preemphasis * samples[:-1]
    t = frame_count(samples.size, cfg.window, cfg.hop)
    idx = np.arange(cfg.window)[None, :] + cfg.hop * np.arange(t)[:, None]
    frames = pre[idx] * np.hanning(cfg.window)[None, :]
    power = np.abs(np.fft.rfft(frames, n=cfg.fft_size, axis=1)) ** 2
    fb = mel_filterbank(cfg.num_mel, cfg.fft_size, sample_rate)
    ceps = np.log(np.maximum(power @ fb.T, cfg.floor)) @ dct_matrix(cfg.num_ceps, cfg.num_mel).T

    def deltas(c, width=2):
        padded = np.concatenate([c[:1].repeat(width, axis=0), c, c[-1:].repeat(width, axis=0)])
        num = np.zeros_like(c)
        for w in range(1, width + 1):
            num += w * (padded[width + w : width + w + t] - padded[width - w : width - w + t])
        return num / (2.0 * sum(w * w for w in range(1, width + 1)))

    d1 = deltas(ceps)
    return np.concatenate([ceps, d1, deltas(d1)], axis=1)


class TestMfccBatch:
    def batch(self, b=8, length=8000, seed=3):
        rng = np.random.default_rng(seed)
        return [Waveform(rng.uniform(-0.5, 0.5, length), 16000) for _ in range(b)]

    def test_equals_per_utterance_reference_exactly(self):
        cfg = MfccConfig()
        waves = self.batch()
        feats = mfcc_batch(waves, cfg)
        assert feats.shape == (8, frame_count(8000, cfg.window, cfg.hop), cfg.dim)
        for wav, row in zip(waves, feats):
            assert np.array_equal(row, reference_mfcc(wav.samples, 16000, cfg))
            assert np.array_equal(row, mfcc(wav, cfg).frames)

    def test_pool_reuse_changes_nothing(self):
        cfg = MfccConfig(deltas=False)
        pool = BufferPool()
        first, second = self.batch(seed=1), self.batch(seed=2)
        mfcc_batch(first, cfg, pool.empty)
        held = pool.nbytes
        assert np.array_equal(mfcc_batch(second, cfg, pool.empty), mfcc_batch(second, cfg))
        assert pool.nbytes == held

    def test_rejects_mixed_lengths_and_rates(self):
        with pytest.raises(ValueError, match="length"):
            mfcc_batch([tone(300.0, 0.1), tone(300.0, 0.2)])
        with pytest.raises(ValueError, match="sample rate"):
            mfcc_batch([tone(300.0, 0.1), tone(300.0, 0.2, sr=8000)])
