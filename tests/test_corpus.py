import json
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechssl.corpus import (
    Batch,
    ManifestError,
    Utterance,
    Waveform,
    crop_or_pad,
    load_manifest,
    make_batch,
    read_wav,
    synth_corpus,
    write_manifest,
    write_wav,
)


def sine_utterance(uid, n=1000, freq=440.0, sr=16000, speaker=None):
    t = np.arange(n) / sr
    return Utterance(uid, Waveform(0.5 * np.sin(2 * np.pi * freq * t), sr), speaker)


class TestWaveform:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 16000)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(4), 0)


class TestWavIO:
    def test_round_trip(self, tmp_path):
        wav = Waveform(np.linspace(-0.9, 0.9, 500), 16000)
        write_wav(tmp_path / "a.wav", wav)
        back = read_wav(tmp_path / "a.wav")
        assert back.sample_rate == 16000
        assert len(back) == 500
        # PCM16 quantization error is at most half a step
        assert np.max(np.abs(back.samples - wav.samples)) <= 0.5 / 32768

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(np.zeros(100, dtype="<i2").tobytes())
        with pytest.raises(ValueError, match="mono"):
            read_wav(path)


class TestManifest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n \n")
        with pytest.raises(ManifestError, match=f"^manifest {path} holds no rows$"):
            load_manifest(path)

    def test_two_lines_in_order(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"id": "a", "audio_path": "a.wav"}) + "\n"
            + json.dumps({"id": "b", "audio_path": "b.wav", "speaker": "s1"}) + "\n"
        )
        refs = load_manifest(path)
        assert [r.id for r in refs] == ["a", "b"]
        assert refs[1].speaker == "s1"

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"id": "a", "audio_path": "a.wav"}) + "\n"
            + json.dumps({"id": "b", "audio_path": "b.wav"}) + "\n"
            + json.dumps({"id": "a", "audio_path": "c.wav"}) + "\n"
        )
        with pytest.raises(ManifestError, match=r":3.*duplicate"):
            load_manifest(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "audio_path": "a.wav"}\nnot json\n')
        with pytest.raises(ManifestError, match=":2"):
            load_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize("uid", ["", ".", "..", "a/b", "/abs", "../x", "a\0b",
                                     "run_manifest"])
    def test_id_that_is_not_a_file_name_names_line(self, tmp_path, uid):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "a", "audio_path": "a.wav"}) + "\n"
                        + json.dumps({"id": uid, "audio_path": "b.wav"}) + "\n")
        with pytest.raises(ManifestError, match=":2: id .* is not a plain file name"):
            load_manifest(path)

    def test_id_with_dots_or_spaces_loads(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ids = ["...", "a.b", ".hidden", "run_manifest2", "x y"]
        path.write_text("".join(json.dumps({"id": uid, "audio_path": "a.wav"}) + "\n"
                                for uid in ids))
        assert [r.id for r in load_manifest(path)] == ids

    def test_round_trip(self, tmp_path):
        from speechssl.corpus import UtteranceRef

        corpus = synth_corpus(2, 2, duration=0.05, seed=3)
        for utt in corpus:
            write_wav(tmp_path / f"{utt.id}.wav", utt.waveform)
        refs = [UtteranceRef(u.id, tmp_path / f"{u.id}.wav", u.speaker) for u in corpus]
        write_manifest(tmp_path / "m.jsonl", refs)
        back = load_manifest(tmp_path / "m.jsonl")
        assert back == refs


class TestMakeBatch:
    def test_exact_length_unmodified(self):
        utt = sine_utterance("u0", n=800)
        batch = make_batch([utt], 1, 800, seed=0)
        assert np.array_equal(batch.utterances[0].waveform.samples, utt.waveform.samples)

    def test_shorter_tail_padded(self):
        utt = sine_utterance("u0", n=400)
        batch = make_batch([utt], 1, 800, seed=0)
        got = batch.utterances[0].waveform.samples
        assert np.array_equal(got[:400], utt.waveform.samples)
        assert np.all(got[400:] == 0.0)

    def test_longer_center_cropped(self):
        utt = sine_utterance("u0", n=1000)
        batch = make_batch([utt], 1, 600, seed=0)
        assert np.array_equal(
            batch.utterances[0].waveform.samples, utt.waveform.samples[200:800]
        )

    def test_run_twice_bit_identical(self):
        utts = [sine_utterance(f"u{i}", n=900 + 37 * i, freq=200.0 + i) for i in range(6)]
        a = make_batch(utts, 3, 700, seed=11)
        b = make_batch(utts, 3, 700, seed=11)
        assert [u.id for u in a.utterances] == [u.id for u in b.utterances]
        for ua, ub in zip(a.utterances, b.utterances):
            assert np.array_equal(ua.waveform.samples, ub.waveform.samples)

    def test_batch_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_batch([sine_utterance("u0")], 2, 100, seed=0)

    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6),
        target=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_member_has_length_l(self, lengths, target, seed):
        utts = [
            Utterance(f"u{i}", Waveform(np.arange(1, n + 1) / (n + 1), 8000))
            for i, n in enumerate(lengths)
        ]
        batch = make_batch(utts, len(utts), target, seed=seed)
        assert all(len(u.waveform) == target for u in batch.utterances)


class TestSynthCorpus:
    def test_minimal(self):
        corpus = synth_corpus(1, 1, duration=0.02, seed=0)
        assert len(corpus) == 1
        assert corpus[0].speaker == "spk00"

    def test_distinct_fundamentals(self):
        # fundamentals are spaced by construction; verify via spectra
        corpus = synth_corpus(2, 1, duration=0.25, seed=5, noise_std=0.0)
        peaks = []
        for utt in corpus:
            spec = np.abs(np.fft.rfft(utt.waveform.samples))
            freqs = np.fft.rfftfreq(len(utt.waveform), 1.0 / utt.waveform.sample_rate)
            # fundamental = lowest strong harmonic peak
            strong = freqs[spec > 0.3 * spec.max()]
            peaks.append(strong.min())
        assert abs(peaks[0] - peaks[1]) > 10.0

    def test_same_seed_bit_identical(self):
        a = synth_corpus(2, 3, duration=0.05, seed=9)
        b = synth_corpus(2, 3, duration=0.05, seed=9)
        assert [u.id for u in a] == [u.id for u in b]
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.waveform.samples, ub.waveform.samples)

    def test_different_seeds_differ(self):
        a = synth_corpus(1, 1, duration=0.05, seed=1)
        b = synth_corpus(1, 1, duration=0.05, seed=2)
        assert not np.array_equal(a[0].waveform.samples, b[0].waveform.samples)

    def test_batch_invariant_holds(self):
        corpus = synth_corpus(2, 2, duration=0.05, seed=4)
        with pytest.raises(ValueError):
            Batch(corpus, 123)  # wrong length rejected

    def test_crop_or_pad_identity(self):
        wav = Waveform(np.ones(64), 8000)
        assert crop_or_pad(wav, 64) is wav
