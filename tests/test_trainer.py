import dataclasses
import json
import os

import numpy as np
import pytest

from speechssl import trainer
from speechssl.ablate import desk_setup
from speechssl.corpus import make_batch
from speechssl.dsp import mfcc
from speechssl.encoder import BatchMask, forward
from speechssl.losses import LossWeights
from speechssl.numerics import derive_seed
from speechssl.pseudolabel import PseudoLabelSequence
from speechssl.trainer import (
    TrainConfig,
    TrainState,
    adam_update,
    draw_batch,
    grad_check,
    init_state,
    learning_rate_at,
    load_checkpoint,
    save_checkpoint,
    tiny_config,
    train,
    train_step,
)

from conftest import count_calls, fast_config


def first_batch(config, corpus, labels):
    batch = make_batch(corpus, config.batch_size, config.utterance_length,
                       seed=derive_seed(config.seeds.data, "batch", 1))
    return batch, [labels[u.id] for u in batch.utterances]


class TestTrainStep:
    @pytest.mark.parametrize("speaker_loss", [True, False])
    def test_draws_noise_and_negatives_only_for_the_speaker_loss(self, small_setup, monkeypatch,
                                                                 speaker_loss):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, speaker_loss=speaker_loss)
        calls = count_calls(monkeypatch, trainer, "gumbel_noise", "sample_negatives")
        batch, batch_labels = first_batch(config, corpus, labels)
        train_step(init_state(config), batch, batch_labels, config)
        assert calls == dict.fromkeys(calls, int(speaker_loss))

    def test_zero_learning_rate_keeps_params(self, small_setup):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, learning_rate=0.0)
        state = init_state(config)
        before = {k: v.copy() for k, v in state.params.items()}
        batch, batch_labels = first_batch(config, corpus, labels)
        state, _ = train_step(state, batch, batch_labels, config)
        for key in before:
            assert np.array_equal(before[key], state.params[key]), key

    def test_p_zero_trains_on_clean_audio(self, small_setup):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, mix_probability=0.0)
        state = init_state(config)
        batch, batch_labels = first_batch(config, corpus, labels)
        state, breakdown = train_step(state, batch, batch_labels, config)
        assert np.isfinite(breakdown.total)
        assert breakdown.masked_frames > 0

    def test_run_twice_identical_streams(self, small_setup):
        config, corpus, labels = small_setup
        streams = []
        for _ in range(2):
            state = init_state(config)
            records = []
            batch, batch_labels = first_batch(config, corpus, labels)
            for _ in range(3):
                state, breakdown = train_step(state, batch, batch_labels, config)
                records.append(breakdown.as_dict())
            streams.append(records)
        assert streams[0] == streams[1]

    def test_label_length_mismatch_rejected(self, small_setup):
        config, corpus, labels = small_setup
        batch, batch_labels = first_batch(config, corpus, labels)
        bad = [PseudoLabelSequence(seq.labels[:3], seq.k, seq.source) for seq in batch_labels]
        state = init_state(config)
        with pytest.raises(ValueError, match="labels"):
            train_step(state, batch, bad, config)


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class TestWarmStep:
    @pytest.fixture(scope="class")
    def default_setup(self):
        """The default TrainConfig (B=8, L=8000) on a corpus of 8 speakers."""
        setup = desk_setup(TrainConfig(), utts_per_speaker=2, restarts=1)
        return setup.config, setup.corpus, setup.labels

    @pytest.mark.skipif(not on_glibc(), reason="freed memory is kept through glibc's mallopt")
    @pytest.mark.parametrize("speaker_loss", [True, False])
    def test_warm_step_takes_no_page_faults(self, default_setup, speaker_loss):
        # a warm step reuses the memory the last one freed; without
        # numerics.retain_freed_memory it takes about 3,800 faults
        import resource

        config, corpus, labels = default_setup
        config = dataclasses.replace(config, speaker_loss=speaker_loss)
        state = init_state(config)
        faults = []
        for step in range(1, 11):
            batch = draw_batch(corpus, config, step)
            batch_labels = [labels[u.id] for u in batch.utterances]
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train_step(state, batch, batch_labels, config)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert np.median(faults[2:]) <= 64, faults     # warm steps 3-10


def loop_adam(params, adam_m, adam_v, grads, step, lr):
    """The per-array Adam update in sorted key order: the oracle for the
    flat one."""
    b1, b2, eps = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS
    for name in sorted(params):
        g, m, v = grads[name], adam_m[name], adam_v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1**step)
        vhat = v / (1 - b2**step)
        params[name] -= lr * mhat / (np.sqrt(vhat) + eps)


class TestAdam:
    def test_flat_update_bit_identical_to_per_array_loop(self):
        config = TrainConfig()
        state = init_state(config)
        rng = np.random.default_rng(0)
        for group in (state.params, state.adam_m, state.adam_v):
            group.flat[...] = rng.standard_normal(group.flat.size)
        state.adam_v.flat[...] = np.abs(state.adam_v.flat)
        oracle = {name: {k: v.copy() for k, v in group.items()}
                  for name, group in (("p", state.params), ("m", state.adam_m),
                                      ("v", state.adam_v))}
        for step in (1, 2, 7):
            grads = trainer.zero_grads(state.params)
            grads.flat[...] = rng.standard_normal(grads.flat.size)
            expected_grads = {k: v.copy() for k, v in grads.items()}
            state.step = step
            adam_update(state, grads, 3e-3)
            loop_adam(oracle["p"], oracle["m"], oracle["v"], expected_grads, step, 3e-3)
            for name, group in (("p", state.params), ("m", state.adam_m), ("v", state.adam_v)):
                for key in group:
                    assert np.array_equal(group[key], oracle[name][key]), (name, key)
            for key in grads:
                assert np.array_equal(grads[key], expected_grads[key]), key

    def test_params_and_moments_are_views_into_flat_vectors(self, small_setup, tmp_path):
        config, _, _ = small_setup
        state = init_state(config)
        save_checkpoint(tmp_path / "ck", state)
        for st in (state, load_checkpoint(tmp_path / "ck")):
            for group in (st.params, st.adam_m, st.adam_v):
                assert list(group) == sorted(group)
                for value in group.values():
                    assert value.base is group.flat


class TestNonFinite:
    def test_nan_in_one_utterance_names_step_and_utterance(self, small_setup, monkeypatch):
        config, corpus, labels = small_setup
        batch, batch_labels = first_batch(config, corpus, labels)
        real = trainer.mfcc_batch

        def poisoned(waveforms, cfg):
            feats = real(waveforms, cfg)
            feats[1, 2, 0] = np.nan
            return feats

        monkeypatch.setattr(trainer, "mfcc_batch", poisoned)
        state = init_state(config)
        with pytest.raises(FloatingPointError) as err:
            train_step(state, batch, batch_labels, config)
        message = str(err.value)
        assert "step 1" in message
        assert repr(batch.utterances[1].id) in message
        assert batch.utterances[0].id not in message
        assert "block 0" in message
        assert state.step == 0

    def test_nan_audio_names_step_block_and_utterance(self, small_setup):
        # audio is a bare float64 array that nothing scans for finiteness on
        # the way in; the step stops at the first encoder block
        config, corpus, labels = small_setup
        batch, batch_labels = first_batch(config, corpus, labels)
        poisoned = batch.utterances[1].waveform.copy()      # the corpus is shared
        poisoned[100] = np.nan
        batch.utterances[1].waveform = poisoned
        state = init_state(config)
        with pytest.raises(FloatingPointError) as err:
            train_step(state, batch, batch_labels, config)
        message = str(err.value)
        assert "step 1" in message and "block 0" in message
        assert repr(batch.utterances[1].id) in message
        assert state.step == 0

    def test_nan_loss_names_step_terms_and_utterances(self, small_setup):
        config, corpus, labels = small_setup
        batch, batch_labels = first_batch(config, corpus, labels)
        state = init_state(config)
        state.params["head/b"][0] = np.nan    # finite activations, NaN content logits
        with pytest.raises(FloatingPointError) as err:
            train_step(state, batch, batch_labels, config)
        message = str(err.value)
        assert "step 1" in message
        assert "'content'" in message and "'total'" in message
        assert "'contrastive'" not in message
        assert all(repr(u.id) in message for u in batch.utterances)
        assert state.step == 0


class TestTrain:
    def test_single_step_single_record(self, small_setup):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=1)
        state = init_state(config)
        assert train(state, corpus, labels) is state
        metrics = state.metrics
        assert len(metrics) == 1
        assert metrics[0]["step"] == 1

    def test_missing_labels_rejected(self, small_setup):
        config, corpus, labels = small_setup
        partial = dict(list(labels.items())[:-1])
        with pytest.raises(ValueError, match=f"no labels for utterance {corpus[-1].id!r}"):
            train(init_state(config), corpus, partial)

    def test_mixed_audio_label_provenance_enforced(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        tainted = {uid: PseudoLabelSequence(seq.labels, seq.k, source="mixed-audio")
                   for uid, seq in labels.items()}
        with pytest.raises(ValueError, match=f"utterance {corpus[0].id!r}: .*clean"):
            train(init_state(config), corpus, tainted, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, expected", [
        (lambda seq: PseudoLabelSequence(seq.labels[:-1], seq.k, seq.source),
         r"\d+ labels vs \d+ frames; labels must come from the clean audio"),
        (lambda seq: PseudoLabelSequence(seq.labels, 7, seq.source),
         "labels of k=7 exceed encoder.num_classes=6"),
    ], ids=["wrong-length", "k-above-num-classes"])
    def test_bad_labels_refused_before_writing(self, small_setup, tmp_path, edit, expected):
        config, corpus, labels = small_setup
        bad = corpus[-1].id
        labels = {**labels, bad: edit(labels[bad])}
        with pytest.raises(ValueError, match=f"utterance {bad!r}: {expected}"):
            train(init_state(config), corpus, labels, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_metrics_file_stream(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=3)
        metrics = train(init_state(config), corpus, labels, out_dir=tmp_path).metrics
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert [json.loads(l) for l in lines] == metrics
        assert (tmp_path / "checkpoint_final.json").exists()
        assert (tmp_path / "summary.json").exists()
        usage = json.loads((tmp_path / "usage.json").read_text())
        assert usage["num_codebooks"] == config.quantizer.num_codebooks
        for row in usage["mean_probs"]:
            assert abs(sum(row) - 1.0) < 1e-6
        assert all(1.0 <= px <= config.quantizer.num_entries + 1e-9
                   for px in usage["perplexity"])

    def test_two_runs_bit_identical_metrics(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=4)
        train(init_state(config), corpus, labels, out_dir=tmp_path / "a")
        train(init_state(config), corpus, labels, out_dir=tmp_path / "b")
        assert (tmp_path / "a/metrics.jsonl").read_bytes() == (
            tmp_path / "b/metrics.jsonl"
        ).read_bytes()

    def test_resume_equivalent_to_uninterrupted(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=6)
        full_ckpt = train(init_state(config), corpus, labels)
        half_ckpt = train(init_state(config), corpus, labels, until_step=3)
        assert half_ckpt.step == 3
        resumed_ckpt = train(half_ckpt, corpus, labels)
        assert len(resumed_ckpt.metrics) == 6
        assert resumed_ckpt.metrics == full_ckpt.metrics
        for key in full_ckpt.params:
            assert np.array_equal(full_ckpt.params[key], resumed_ckpt.params[key]), key
            assert np.array_equal(full_ckpt.adam_m[key], resumed_ckpt.adam_m[key]), key

    @pytest.mark.parametrize("resume_from", ["checkpoint_final", "checkpoint_000015"])
    def test_resume_past_metrics_tail_byte_identical(self, small_setup, tmp_path,
                                                     resume_from):
        # step 15 lies past the ten rows a checkpoint once kept; resuming from
        # the intermediate checkpoint of a finished run must not duplicate rows
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=30, checkpoint_every=15)
        train(init_state(config), corpus, labels, out_dir=tmp_path / "full")
        split = tmp_path / "split"
        first_leg = 15 if resume_from == "checkpoint_final" else None
        train(init_state(config), corpus, labels, out_dir=split, until_step=first_leg)
        resumed = load_checkpoint(split / resume_from)
        assert resumed.step == 15
        assert len(train(resumed, corpus, labels, out_dir=split).metrics) == 30
        for name in ("metrics.jsonl", "summary.json", "checkpoint_final.json",
                     "checkpoint_final.bin"):
            assert (tmp_path / "full" / name).read_bytes() == (split / name).read_bytes(), name

    @pytest.mark.parametrize("until_step", [0, -3])
    def test_until_step_below_one_rejected_before_writing(self, small_setup, tmp_path,
                                                          until_step):
        config, corpus, labels = small_setup
        with pytest.raises(ValueError, match=f"until_step must be >= 1, got {until_step}"):
            train(init_state(config), corpus, labels, out_dir=tmp_path / "run",
                  until_step=until_step)
        assert not (tmp_path / "run").exists()

    def test_resume_without_metrics_history_rejected(self, small_setup, tmp_path):
        # a state past step 0 comes from load_checkpoint, which checks the rows
        config, corpus, labels = small_setup
        state = init_state(config)
        save_checkpoint(tmp_path / "ck",
                        TrainState(config, state.params, state.adam_m, state.adam_v, 3, []))
        with pytest.raises(ValueError, match="'metrics' entry .* steps 1..3"):
            load_checkpoint(tmp_path / "ck")

    def test_loss_descends_on_longer_run(self, small_setup):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=40, learning_rate=5e-3)
        metrics = train(init_state(config), corpus, labels).metrics
        first = np.mean([m["total"] for m in metrics[:5]])
        last = np.mean([m["total"] for m in metrics[-5:]])
        assert last < first


class TestCheckpoint:
    def test_round_trip_probe_forward_bit_identical(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=2)
        ckpt = train(init_state(config), corpus, labels)
        save_checkpoint(tmp_path / "ck", ckpt)
        back = load_checkpoint(tmp_path / "ck")
        assert back.step == 2
        assert back.config == config
        assert back.metrics == ckpt.metrics
        for key in ckpt.params:
            assert np.array_equal(back.params[key], ckpt.params[key]), key
            assert np.array_equal(back.adam_v[key], ckpt.adam_v[key]), key
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin", "ck.json"]
        feats = mfcc(corpus[0].waveform, config.mfcc)
        mask = BatchMask.from_indices([[]], feats.num_frames)
        a = forward(feats.frames[None], mask, ckpt.params, config.encoder)
        b = forward(feats.frames[None], mask, back.params, back.config.encoder)
        assert np.array_equal(a.content_logits, b.content_logits)
        assert np.array_equal(a.final, b.final)

    @pytest.fixture
    def two_checkpoints(self, small_setup, tmp_path):
        """Two checkpoints of one config at different steps: same blob size,
        different bytes."""
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=2)
        ckpt = train(init_state(config), corpus, labels, until_step=1)
        save_checkpoint(tmp_path / "one", ckpt)
        train(ckpt, corpus, labels)
        save_checkpoint(tmp_path / "two", ckpt)
        return tmp_path / "one", tmp_path / "two"

    def test_truncated_blob_rejected(self, two_checkpoints):
        stem, _ = two_checkpoints
        blob = stem.with_suffix(".bin")
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ValueError, match="digest"):
            load_checkpoint(stem)

    def test_swapped_blob_rejected(self, two_checkpoints):
        one, two = two_checkpoints
        other = two.with_suffix(".bin").read_bytes()
        assert len(other) == len(one.with_suffix(".bin").read_bytes())
        one.with_suffix(".bin").write_bytes(other)
        with pytest.raises(ValueError, match="digest"):
            load_checkpoint(one)

    def test_blob_is_the_three_flat_vectors(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        state = train(init_state(dataclasses.replace(config, steps=2)), corpus, labels,
                      until_step=1)
        save_checkpoint(tmp_path / "ck", state)
        blob = np.concatenate([state.params.flat, state.adam_m.flat, state.adam_v.flat])
        assert (tmp_path / "ck.bin").read_bytes() == blob.astype("<f8").tobytes()

    def test_config_that_does_not_fit_the_blob_rejected(self, two_checkpoints):
        # the digest covers the blob only, so it stays valid
        stem, _ = two_checkpoints
        meta = json.loads(stem.with_suffix(".json").read_text())
        floats = meta["blob_bytes"] // 8
        meta["config"]["encoder"]["ffn_dim"] += 1
        stem.with_suffix(".json").write_text(json.dumps(meta))
        params = init_state(TrainConfig.from_dict(meta["config"])).params.flat.size
        assert 3 * params != floats
        with pytest.raises(ValueError, match=f"holds {floats} floats.* = {3 * params} "):
            load_checkpoint(stem)

    def test_v2_checkpoint_rejected(self, two_checkpoints):
        stem, _ = two_checkpoints
        meta = json.loads(stem.with_suffix(".json").read_text())
        meta["format"] = "speechssl-checkpoint-v2"
        stem.with_suffix(".json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="unrecognized checkpoint format"):
            load_checkpoint(stem)

    def test_v3_checkpoint_rejected(self, two_checkpoints):
        # v3 stored the encoder input and quantizer widths and quantizer_hard
        stem, _ = two_checkpoints
        meta = json.loads(stem.with_suffix(".json").read_text())
        meta["format"] = "speechssl-checkpoint-v3"
        meta["config"]["quantizer_hard"] = True
        meta["config"]["encoder"]["input_dim"] = 39
        meta["config"]["quantizer"].update(latent_dim=32, out_dim=32)
        stem.with_suffix(".json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format 'speechssl-checkpoint-v3'"):
            load_checkpoint(stem)

    def test_v4_checkpoint_rejected(self, two_checkpoints):
        # v4 stored the Adam, mixing-SNR, anneal and MFCC constants as keys
        stem, _ = two_checkpoints
        meta = json.loads(stem.with_suffix(".json").read_text())
        meta["format"] = "speechssl-checkpoint-v4"
        meta["config"].update(adam_beta1=0.9, adam_beta2=0.98, adam_eps=1e-6,
                              gain_snr_low=-5.0, gain_snr_high=5.0)
        meta["config"]["quantizer"].update(tau_start=2.0, tau_end=0.1)
        meta["config"]["mfcc"].update(preemphasis=0.97, floor=1e-10)
        stem.with_suffix(".json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format 'speechssl-checkpoint-v4'"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("document", ["[]", "3", "\"checkpoint\""])
    def test_non_object_json_rejected(self, two_checkpoints, document):
        stem, _ = two_checkpoints
        stem.with_suffix(".json").write_text(document)
        with pytest.raises(ValueError, match="not a JSON object"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("edit, expected", [
        (lambda meta: meta.pop("step"), "no 'step' entry"),
        (lambda meta: meta.pop("metrics"), "no 'metrics' entry"),
        (lambda meta: meta.pop("config"), "no 'config' entry"),
        (lambda meta: meta["config"].update(bogus_key=1), "bogus_key"),
        (lambda meta: meta["config"]["encoder"].update(bogus_key=1), "bogus_key"),
        (lambda meta: meta["config"].update(encoder=3),
         "config key 'encoder' takes an object of keys"),
        (lambda meta: meta["config"]["encoder"].update(num_heads=0), "num_heads must be >= 1"),
        (lambda meta: meta["config"].update(steps=3.5), "config key 'steps' takes an integer"),
        (lambda meta: meta["config"].update(speaker_loss="no"),
         "config key 'speaker_loss' takes true or false"),
        (lambda meta: meta["config"]["seeds"].update(data=0.5),
         "config key 'seeds.data' takes an integer"),
        (lambda meta: meta["config"].update(batch_size=3.0),
         "config key 'batch_size' takes an integer"),
        (lambda meta: meta["config"]["encoder"].update(tap_layer=1.0),
         "config key 'encoder.tap_layer' takes an integer"),
        (lambda meta: meta.update(step="1"), "no 'step' entry holding an integer"),
        (lambda meta: meta.update(step=1.0), "no 'step' entry holding an integer"),
        (lambda meta: meta.update(step=-1), "'step' entry .* must be >= 0"),
        (lambda meta: meta.update(metrics={}), "no 'metrics' entry holding a list"),
        (lambda meta: meta.update(metrics=[1]), "'metrics' entry .* steps 1..1"),
        (lambda meta: meta.update(step=2), "'metrics' entry .* steps 1..2"),
        (lambda meta: meta["metrics"][0].pop("total"), "metrics row of step 1 .*'total'"),
        (lambda meta: meta["metrics"][0].update(total="x"), "metrics row of step 1 .* number"),
        (lambda meta: meta.pop("usage"), "'usage' entry .* null or a 2 x 8 list"),
        (lambda meta: meta["usage"].pop(), "'usage' entry .* null or a 2 x 8 list"),
        (lambda meta: meta["usage"][1].append(0.5), "'usage' entry .* null or a 2 x 8 list"),
        (lambda meta: meta["usage"][0].__setitem__(3, float("nan")), "'usage' .* finite"),
        (lambda meta: meta["usage"][0].__setitem__(3, "0.5"), "'usage' .* finite numbers"),
        (lambda meta: meta.update(usage=0.5), "'usage' entry .* null or a 2 x 8 list"),
    ], ids=["no-step", "no-metrics", "no-config", "unknown-key", "unknown-nested-key",
            "scalar-section", "zero-heads", "float-steps", "string-speaker-loss",
            "float-seed", "float-batch-size", "float-tap-layer", "string-step", "float-step",
            "negative-step", "object-metrics", "metrics-not-rows", "step-past-rows",
            "row-without-total", "string-total", "no-usage", "usage-one-codebook",
            "usage-long-row", "usage-nan", "usage-string", "usage-scalar"])
    def test_bad_metadata_rejected(self, two_checkpoints, edit, expected):
        stem, _ = two_checkpoints               # at step 1 of 2
        meta = json.loads(stem.with_suffix(".json").read_text())
        edit(meta)
        stem.with_suffix(".json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=expected) as refused:
            load_checkpoint(stem)
        assert f"{stem}.json" in str(refused.value)

    def test_v5_checkpoint_rejected(self, two_checkpoints):
        # v5 stored Wq, Wk and Wv apart: the same float count, laid out otherwise
        stem, _ = two_checkpoints
        meta = json.loads(stem.with_suffix(".json").read_text())
        meta["format"] = "speechssl-checkpoint-v5"
        stem.with_suffix(".json").write_text(json.dumps(meta))
        assert meta["blob_bytes"] == 3 * 8 * init_state(
            TrainConfig.from_dict(meta["config"])).params.flat.size
        with pytest.raises(ValueError, match="format 'speechssl-checkpoint-v5' in .*; this "
                                             "version reads 'speechssl-checkpoint-v8'"):
            load_checkpoint(stem)

    def test_v6_checkpoint_rejected(self, two_checkpoints):
        # v6 did not save the last step's codebook usage
        stem, _ = two_checkpoints
        meta = json.loads(stem.with_suffix(".json").read_text())
        meta["format"] = "speechssl-checkpoint-v6"
        del meta["usage"]
        stem.with_suffix(".json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format 'speechssl-checkpoint-v6' in .*; this "
                                             "version reads 'speechssl-checkpoint-v8'"):
            load_checkpoint(stem)

    def test_v7_checkpoint_rejected(self, two_checkpoints):
        # v7 stored warmup_frac, mfcc.fft_size and mfcc.num_mel as config keys
        stem, _ = two_checkpoints
        meta = json.loads(stem.with_suffix(".json").read_text())
        meta["format"] = "speechssl-checkpoint-v7"
        meta["config"]["warmup_frac"] = 0.08
        meta["config"]["mfcc"].update(fft_size=512, num_mel=26)
        stem.with_suffix(".json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format 'speechssl-checkpoint-v7' in .*; this "
                                             "version reads 'speechssl-checkpoint-v8'"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("speaker_loss", [True, False])
    def test_last_usage_round_trips(self, small_setup, tmp_path, speaker_loss):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=1, speaker_loss=speaker_loss)
        state = train(init_state(config), corpus, labels)
        save_checkpoint(tmp_path / "ck", state)
        back = load_checkpoint(tmp_path / "ck").last_usage
        if speaker_loss:
            assert back.shape == (2, 8) and back.dtype == np.float64
            assert back.tobytes() == state.last_usage.tobytes()
        else:
            assert back is None and state.last_usage is None

    def test_config_round_trip(self):
        config = fast_config(steps=5)
        back = TrainConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert back == config

    def test_bad_format_rejected(self, tmp_path):
        (tmp_path / "x.json").write_text(json.dumps({"format": "other"}))
        (tmp_path / "x.bin").write_bytes(b"")
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(tmp_path / "x")


class TestConfigChecks:
    # test_cli's test_config_file_bad_key_rejected covers the refusal itself
    @pytest.mark.parametrize("overrides", [
        dict(speaker_loss=False), dict(weights=LossWeights(num_negatives=0))])
    def test_single_utterance_batch_without_negatives_accepted(self, overrides):
        assert fast_config(batch_size=1, **overrides).batch_size == 1


class TestLearningRateSchedule:
    def test_warmup_then_decay(self):
        config = fast_config(steps=100, learning_rate=1.0)
        warmup = 8
        values = [learning_rate_at(s, config) for s in range(1, 101)]
        assert values[warmup - 1] == 1.0
        assert all(a < b for a, b in zip(values[:warmup - 1], values[1:warmup]))
        assert all(a > b for a, b in zip(values[warmup - 1:], values[warmup:]))
        assert values[-1] == 0.0

    def test_non_negative(self):
        config = fast_config(steps=7)
        assert all(learning_rate_at(s, config) >= 0 for s in range(1, 8))


class TestGradCheck:
    def test_full_loss_under_tolerance(self):
        report = grad_check(seed=0, num_coords=210)
        assert report.num_coords >= 200
        assert report.max_rel_error < 1e-4
        assert report.ok()

    def test_soft_quantizer_groups_covered(self):
        report = grad_check(seed=1, num_coords=210)
        assert any(k.startswith("quant/") for k in report.per_group)
        assert any(k.startswith("block") for k in report.per_group)

    def test_content_head_only_linear_path(self):
        report = grad_check(seed=2)
        assert report.per_group["head/W"] < 1e-6
        assert report.per_group["head/b"] < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tap_at_projection_output(self, seed):
        # tap_layer 0: the tap gradient joins below the first block
        config = tiny_config(seed)
        config = dataclasses.replace(config, encoder=dataclasses.replace(config.encoder,
                                                                         tap_layer=0))
        assert config.speaker_loss
        report = grad_check(config=config, num_coords=210)
        assert report.num_coords >= 200
        assert report.max_rel_error < 1e-4

    def test_loss_only_objective_keeps_no_backward_state(self, monkeypatch):
        config, outputs = tiny_config(0), []
        real = trainer.forward

        def spy(*args, **kwargs):
            outputs.append(real(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(trainer, "forward", spy)
        rng = np.random.default_rng(0)
        features = rng.standard_normal((config.batch_size, 8, config.mfcc.dim))
        labels = [PseudoLabelSequence(rng.integers(0, 4, 8), 4)] * config.batch_size
        draws = trainer._draws(8, config.batch_size, config, 0)
        for grads in (False, True):
            trainer.objective(init_state(config).params, features, labels, *draws, 1.0,
                              config, grads=grads, hard=False)
        frozen, kept = (out.cache for out in outputs)
        assert frozen == {}
        assert len(kept["blocks"]) == config.encoder.num_layers

    def test_draws_noise_and_negatives_once(self, monkeypatch):
        calls = count_calls(monkeypatch, trainer, "gumbel_noise", "sample_negatives")
        report = grad_check(seed=0, num_coords=20)
        assert report.num_coords >= 20
        assert calls == {"gumbel_noise": 1, "sample_negatives": 1}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_seed_picks_tiny_config(self, seed):
        # with a config given, its seeds drive the check and `seed` is unused
        assert grad_check(seed=seed, num_coords=40) == grad_check(
            config=tiny_config(seed), seed=seed + 1, num_coords=40)

    def test_starts_from_a_train_steps_state_and_step_zero_draws(self, monkeypatch):
        config, seen = tiny_config(4), []
        real = trainer.objective

        def spy(params, features, labels, mask, noise, negatives, *args, grads, **kwargs):
            if grads:
                seen.append((params.flat.copy(), mask, noise, negatives))
            return real(params, features, labels, mask, noise, negatives, *args,
                        grads=grads, **kwargs)

        monkeypatch.setattr(trainer, "objective", spy)
        grad_check(config=config, num_coords=1)
        (flat, mask, noise, (picks, replaced)), = seen
        want_mask, want_noise, (want_picks, want_replaced) = trainer._draws(
            8, config.batch_size, config, 0)
        assert np.array_equal(flat, init_state(config).params.flat)
        assert np.array_equal(mask.rows, want_mask.rows)
        assert np.array_equal(mask.counts, want_mask.counts)
        assert np.array_equal(noise, want_noise)
        assert np.array_equal(picks, want_picks) and replaced == want_replaced

    @pytest.mark.parametrize("num_coords", [1, 20, 32, 33, 100, 240, 600])
    def test_coordinates_follow_group_sizes(self, monkeypatch, num_coords):
        # the loss is stubbed: only which flat coordinates are perturbed counts
        real, base, perturbed = trainer.objective, [], []

        def spy(params, *args, grads, **kwargs):
            if grads:
                base.append(params.flat.copy())
                return real(params, *args, grads=grads, **kwargs)
            perturbed.append(np.flatnonzero(params.flat != base[0]))
            return trainer.ObjectiveResult(trainer.LossBreakdown(*[0.0] * 5), None, None)

        monkeypatch.setattr(trainer, "objective", spy)
        report = grad_check(seed=0, num_coords=num_coords)
        coords = [int(idx) for (idx,) in perturbed[::2]]     # up, then down
        params = init_state(tiny_config(0)).params
        keys = list(params)
        ends = np.cumsum([params[k].size for k in keys])
        counts = dict.fromkeys(keys, 0)
        for c in coords:
            counts[keys[np.searchsorted(ends, c, side="right")]] += 1
        assert len(keys) == 32
        assert report.num_coords == len(coords) == len(set(coords)) == max(num_coords, 32)
        assert min(counts.values()) >= 1 and set(report.per_group) == set(keys)
        if num_coords <= len(keys):
            assert set(counts.values()) == {1}
        if num_coords >= 100:
            ln_biases = [k for k in keys if "ln" in k and k.endswith("/b")]
            assert len(ln_biases) == 5
            for key in ("block0/attn/Wqkv", "block1/attn/Wqkv"):
                assert counts[key] > max(counts[k] for k in ln_biases)

    def test_tiny_config_is_tiny(self):
        config = tiny_config()
        assert config.encoder.model_dim <= 16
        assert config.mfcc.dim == 6
