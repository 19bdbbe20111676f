import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from speechssl.augment import MixedBatch, MixSpec, mix_batch, save_mixspecs, verify_spec
from speechssl.corpus import Batch, Utterance


def toy_batch(b=4, length=64, seed=0):
    rng = np.random.default_rng(seed)
    utts = [
        Utterance(f"u{i}", rng.uniform(-0.5, 0.5, length))
        for i in range(b)
    ]
    return Batch(utts, length)


class TestMixBatch:
    def test_p_zero_identity(self):
        batch = toy_batch()
        mixed = mix_batch(batch, 0.0, seed=3)
        assert mixed.specs == []
        for a, c in zip(mixed.batch.utterances, batch.utterances):
            assert np.array_equal(a.waveform, c.waveform)

    def test_single_utterance_p_one_self_mix(self):
        batch = toy_batch(b=1)
        mixed = mix_batch(batch, 1.0, seed=5)
        assert len(mixed.specs) == 1
        assert mixed.specs[0].source_index == 0
        assert mixed.specs[0].target_index == 0

    def test_run_twice_bit_identical(self):
        batch = toy_batch(b=4, length=16000)
        a = mix_batch(batch, 0.5, seed=7)
        b = mix_batch(batch, 0.5, seed=7)
        assert a.specs == b.specs
        for ua, ub in zip(a.batch.utterances, b.batch.utterances):
            assert np.array_equal(ua.waveform, ub.waveform)

    def test_untouched_outside_mixed_region(self):
        batch = toy_batch(b=3, length=128, seed=9)
        mixed = mix_batch(batch, 1.0, seed=2)
        clean = np.stack([u.waveform for u in batch.utterances])
        for spec in mixed.specs:
            out = mixed.batch.utterances[spec.target_index].waveform
            s0 = spec.target_start - 1
            outside = np.r_[0:s0, s0 + spec.mix_length : batch.length]
            assert np.array_equal(out[outside], clean[spec.target_index][outside])

    def test_mixed_region_is_clean_plus_gain_chunk(self):
        batch = toy_batch(b=3, length=128, seed=1)
        mixed = mix_batch(batch, 1.0, seed=4)
        clean = np.stack([u.waveform for u in batch.utterances])
        for spec in mixed.specs:
            s0, sb0, l = spec.target_start - 1, spec.source_start - 1, spec.mix_length
            expected = clean[spec.target_index, s0 : s0 + l] + spec.gain * clean[
                spec.source_index, sb0 : sb0 + l
            ]
            got = mixed.batch.utterances[spec.target_index].waveform[s0 : s0 + l]
            assert np.array_equal(got, expected)

    def test_sources_read_from_clean_batch(self):
        # two mixed utterances never see each other's mixed-in chunks; seed 4
        # is the first at which each takes the other as its source
        batch = toy_batch(b=2, length=64, seed=6)
        mixed = mix_batch(batch, 1.0, seed=4)
        assert [(spec.target_index, spec.source_index) for spec in mixed.specs] == [
            (0, 1), (1, 0)]
        assert verify_spec(mixed) == []  # reconstruction from clean must match

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            mix_batch(toy_batch(), 1.5)

    def test_silent_target_region_falls_back_to_unit_gain(self):
        utts = [Utterance("z", np.zeros(64)), Utterance("n", np.ones(64) * 0.25)]
        mixed = mix_batch(Batch(utts, 64), 1.0, seed=1)
        for spec in mixed.specs:
            if spec.target_index == 0:
                assert spec.gain == 1.0

    @given(seed=st.integers(min_value=0, max_value=10**6),
           length=st.integers(min_value=2, max_value=200),
           b=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_bounds_always_hold(self, seed, length, b):
        rng = np.random.default_rng(seed)
        utts = [Utterance(f"u{i}", rng.uniform(-1, 1, length))
                for i in range(b)]
        mixed = mix_batch(Batch(utts, length), 0.7, seed=seed)
        for spec in mixed.specs:
            assert 1 <= spec.mix_length <= length // 2
            assert 1 <= spec.target_start <= length - spec.mix_length
            assert 1 <= spec.source_start <= length - spec.mix_length
            assert spec.mix_length / length <= 0.5


class TestVerifySpec:
    def test_untampered_passes(self):
        mixed = mix_batch(toy_batch(b=4, length=100, seed=3), 0.8, seed=12)
        assert verify_spec(mixed) == []

    def test_overlong_spec_reported(self):
        mixed = mix_batch(toy_batch(b=2, length=64, seed=3), 1.0, seed=12)
        bad = MixSpec(0, 1, 64 // 2 + 1, 1, 1, 1.0)
        mixed.specs.append(bad)
        problems = verify_spec(mixed)
        assert any("mix_length" in p for p in problems)

    def test_tampered_sample_reported(self):
        mixed = mix_batch(toy_batch(b=2, length=64, seed=5), 1.0, seed=2)
        spec = mixed.specs[0]
        samples = mixed.batch.utterances[spec.target_index].waveform
        samples[spec.target_start - 1] += 1e-9
        problems = verify_spec(mixed)
        assert any(f"utterance {spec.target_index}" in p for p in problems)

    def test_tampered_untouched_utterance_named(self):
        mixed = mix_batch(toy_batch(b=6, length=64, seed=5), 0.5, seed=3)
        targets = {spec.target_index for spec in mixed.specs}
        untouched = min(set(range(6)) - targets)
        assert targets and untouched < max(targets)
        mixed.batch.utterances[untouched].waveform[-1] += 1e-9
        assert verify_spec(mixed) == [
            f"utterance {untouched}: untouched utterance differs from reconstruction (no spec)"]

    @staticmethod
    def hand_mixed(clean, specs):
        """The mixed batch `specs` make of `clean`, applied in list order,
        each chunk read from the clean audio."""
        rows = [u.waveform.copy() for u in clean.utterances]
        for spec in specs:
            s, s_b, l = spec.target_start - 1, spec.source_start - 1, spec.mix_length
            chunk = clean.utterances[spec.source_index].waveform[s_b : s_b + l]
            rows[spec.target_index][s : s + l] += spec.gain * chunk
        utts = [Utterance(u.id, r) for u, r in zip(clean.utterances, rows)]
        return MixedBatch(Batch(utts, clean.length), list(specs), clean)

    def test_tampered_mixed_region_names_first_spec_on_target(self):
        clean = toy_batch(b=3, length=64, seed=8)
        specs = [MixSpec(1, 2, 8, 3, 5, 0.7), MixSpec(0, 1, 16, 10, 1, 1.3),
                 MixSpec(0, 2, 20, 20, 30, -0.4)]
        mixed = self.hand_mixed(clean, specs)
        assert verify_spec(mixed) == []
        mixed.batch.utterances[0].waveform[25] += 1e-9
        assert verify_spec(mixed) == [
            "utterance 0: mixed region differs from reconstruction (spec 1)"]

    def test_two_specs_on_one_target_apply_in_list_order(self):
        # overlapping chunks on one target: the sums round differently when
        # the order is swapped, and only the list order verifies
        clean = toy_batch(b=3, length=64, seed=2)
        specs = [MixSpec(0, 1, 30, 1, 3, 0.3), MixSpec(0, 2, 30, 5, 20, 1.7)]
        assert verify_spec(self.hand_mixed(clean, specs)) == []
        swapped = self.hand_mixed(clean, specs[::-1])
        swapped.specs = specs
        assert verify_spec(swapped) == [
            "utterance 0: mixed region differs from reconstruction (spec 0)"]

    def test_source_that_is_itself_mixed_is_read_clean(self):
        # utterance 1 takes its chunk from utterance 0, itself a target
        clean = toy_batch(b=3, length=64, seed=4)
        specs = [MixSpec(0, 2, 16, 1, 1, 0.9), MixSpec(1, 0, 16, 1, 1, 1.1)]
        mixed = self.hand_mixed(clean, specs)
        assert verify_spec(mixed) == []
        from_mixed = mixed.batch.utterances[0].waveform[:16]
        mixed.batch.utterances[1].waveform[:16] = (
            clean.utterances[1].waveform[:16] + 1.1 * from_mixed)
        assert verify_spec(mixed) == [
            "utterance 1: mixed region differs from reconstruction (spec 1)"]

    def test_peak_memory_below_four_rows(self):
        # the reconstruction holds one utterance at a time, never the batch
        # (tracemalloc tracks NumPy's buffers)
        length = 8000
        mixed = mix_batch(toy_batch(b=128, length=length, seed=0), 0.5, seed=0)
        tracemalloc.start()
        try:
            assert verify_spec(mixed) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * length * 8


class TestStatistics:
    def test_selection_fraction_within_three_standard_errors(self):
        p, b, trials = 0.2, 8, 800
        selected = 0
        for i in range(trials):
            selected += len(mix_batch(toy_batch(b=b, length=32, seed=1), p, seed=i).specs)
        n = b * trials
        se = np.sqrt(p * (1 - p) / n)
        assert abs(selected / n - p) < 3 * se

    def test_mix_length_uniform_chi_square(self):
        length = 64
        counts = np.zeros(length // 2)
        batch = toy_batch(b=4, length=length, seed=2)
        for i in range(1500):
            for spec in mix_batch(batch, 1.0, seed=10_000 + i).specs:
                counts[spec.mix_length - 1] += 1
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.01


class TestMixSpecDump:
    def test_jsonl_format(self, tmp_path):
        mixed = mix_batch(toy_batch(b=3, length=64, seed=1), 1.0, seed=3)
        path = tmp_path / "specs.jsonl"
        save_mixspecs(path, 0, mixed.specs)
        import json

        obj = json.loads(path.read_text().splitlines()[0])
        assert obj["batch_index"] == 0
        assert {"target_index", "source_index", "l", "s", "s_b", "gain"} <= set(
            obj["specs"][0]
        )
