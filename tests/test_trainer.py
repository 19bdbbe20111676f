import dataclasses
import json

import numpy as np
import pytest

from speechssl import trainer
from speechssl.corpus import make_batch, synth_corpus
from speechssl.dsp import mfcc
from speechssl.encoder import BatchMask, forward
from speechssl.numerics import derive_seed
from speechssl.pseudolabel import PseudoLabelSequence, fit_labels
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

from conftest import fast_config


def first_batch(config, corpus, labels):
    batch = make_batch(corpus, config.batch_size, config.utterance_length,
                       seed=derive_seed(config.seeds.data, "batch", 1))
    return batch, [labels[u.id] for u in batch.utterances]


class TestTrainStep:
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
        assert breakdown.counts.masked_frames > 0

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

    def test_mixed_audio_label_provenance_enforced(self, small_setup):
        config, corpus, labels = small_setup
        batch, batch_labels = first_batch(config, corpus, labels)
        tainted = [
            PseudoLabelSequence(seq.labels, seq.k, source="mixed-audio")
            for seq in batch_labels
        ]
        state = init_state(config)
        with pytest.raises(ValueError, match="clean"):
            train_step(state, batch, tainted, config)


def run_steps(state, config, corpus, labels, steps):
    """metrics rows of `steps` train_steps from `state`, serialized."""
    rows = []
    for _ in range(steps):
        batch = draw_batch(corpus, config, state.step + 1)
        state, breakdown = train_step(state, batch, [labels[u.id] for u in batch.utterances],
                                      config)
        rows.append(json.dumps(breakdown.as_dict()))
    return rows


def flat_bytes(state):
    return [group.flat.tobytes() for group in (state.params, state.adam_m, state.adam_v)]


class TestScratchPool:
    @pytest.fixture(scope="class")
    def default_setup(self):
        """The default TrainConfig (B=8, L=8000) on a corpus of 8 speakers."""
        config = TrainConfig()
        corpus = synth_corpus(8, 2, duration=0.5, seed=0)
        frames = {u.id: mfcc(u.waveform, config.mfcc).frames for u in corpus}
        _, labels = fit_labels(frames, config.encoder.num_classes, seed=0, restarts=1)
        return config, corpus, labels

    @pytest.mark.parametrize("speaker_loss", [True, False])
    def test_pool_stops_growing_after_first_step(self, default_setup, speaker_loss):
        config, corpus, labels = default_setup
        config = dataclasses.replace(config, speaker_loss=speaker_loss)
        state = init_state(config)
        sizes = {}
        for step in range(1, 11):
            run_steps(state, config, corpus, labels, 1)
            sizes[step] = (len(state.pool), state.pool.nbytes)
        assert sizes[1] == sizes[2] == sizes[10]
        assert sizes[1][0] > 0

    def test_pooled_steps_byte_identical_to_unpooled(self, small_setup):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=20)
        pooled = init_state(config)
        plain = init_state(config)
        plain.pool = None
        assert pooled.pool is not None
        assert run_steps(pooled, config, corpus, labels, 20) == \
            run_steps(plain, config, corpus, labels, 20)
        assert flat_bytes(pooled) == flat_bytes(plain)

    def test_states_of_one_config_share_its_pool(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        first, second = init_state(config), init_state(config)
        assert first.pool is second.pool is config.scratch_pool
        save_checkpoint(tmp_path / "ck", first)
        loaded = load_checkpoint(tmp_path / "ck")
        assert loaded.pool is loaded.config.scratch_pool
        assert dataclasses.replace(config).scratch_pool is not config.scratch_pool
        run_steps(first, config, corpus, labels, 1)
        assert len(config.scratch_pool) > 0
        init_state(config)
        assert len(config.scratch_pool) == 0       # a new run starts from an empty pool
        # interleaved steps of two states on one pool match separate runs
        config = dataclasses.replace(config, steps=4)
        a, b, alone = init_state(config), init_state(config), init_state(config)
        alone.pool = None
        rows_a, rows_b = [], []
        for _ in range(4):
            rows_a += run_steps(a, config, corpus, labels, 1)
            rows_b += run_steps(b, config, corpus, labels, 1)
        assert rows_a == rows_b == run_steps(alone, config, corpus, labels, 4)


def loop_adam(params, adam_m, adam_v, grads, step, lr, cfg):
    """The per-array Adam update in sorted key order: the oracle for the
    flat one."""
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
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
        # more elements than one block, and a tail shorter than a block
        assert state.params.flat.size > 2 * trainer.ADAM_BLOCK
        assert state.params.flat.size % trainer.ADAM_BLOCK
        oracle = {name: {k: v.copy() for k, v in group.items()}
                  for name, group in (("p", state.params), ("m", state.adam_m),
                                      ("v", state.adam_v))}
        for step in (1, 2, 7):
            grads = trainer.zero_grads(state.params)
            grads.flat[...] = rng.standard_normal(grads.flat.size)
            expected_grads = {k: v.copy() for k, v in grads.items()}
            state.step = step
            adam_update(state, grads, 3e-3, config)
            loop_adam(oracle["p"], oracle["m"], oracle["v"], expected_grads, step, 3e-3, config)
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

        def poisoned(waveforms, cfg, alloc):
            feats = real(waveforms, cfg, alloc)
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


class TestTrain:
    def test_single_step_single_record(self, small_setup):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=1)
        _, metrics = train(config, corpus, labels)
        assert len(metrics) == 1
        assert metrics[0]["step"] == 1

    def test_missing_labels_rejected(self, small_setup):
        config, corpus, labels = small_setup
        partial = dict(list(labels.items())[:-1])
        with pytest.raises(ValueError, match="no labels"):
            train(config, corpus, partial)

    def test_metrics_file_stream(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=3)
        _, metrics = train(config, corpus, labels, out_dir=tmp_path)
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
        train(config, corpus, labels, out_dir=tmp_path / "a")
        train(config, corpus, labels, out_dir=tmp_path / "b")
        assert (tmp_path / "a/metrics.jsonl").read_bytes() == (
            tmp_path / "b/metrics.jsonl"
        ).read_bytes()

    def test_resume_equivalent_to_uninterrupted(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=6)
        full_ckpt, full_metrics = train(config, corpus, labels)
        half_ckpt, half_metrics = train(config, corpus, labels, until_step=3)
        resumed_ckpt, resumed_metrics = train(config, corpus, labels, resume=half_ckpt)
        assert len(resumed_metrics) == 6
        assert resumed_metrics == full_metrics
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
        train(config, corpus, labels, out_dir=tmp_path / "full")
        split = tmp_path / "split"
        first_leg = 15 if resume_from == "checkpoint_final" else None
        train(config, corpus, labels, out_dir=split, until_step=first_leg)
        resumed = load_checkpoint(split / resume_from)
        assert resumed.step == 15
        _, metrics = train(config, corpus, labels, out_dir=split, resume=resumed)
        assert len(metrics) == 30
        for name in ("metrics.jsonl", "summary.json", "checkpoint_final.json",
                     "checkpoint_final.bin"):
            assert (tmp_path / "full" / name).read_bytes() == (split / name).read_bytes(), name

    def test_resume_without_metrics_history_rejected(self, small_setup):
        config, corpus, labels = small_setup
        state = init_state(config)
        ckpt = TrainState(config, state.params, state.adam_m, state.adam_v, 3, [])
        with pytest.raises(ValueError, match="metrics"):
            train(config, corpus, labels, resume=ckpt)

    def test_resume_with_different_config_rejected(self, small_setup):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=4)
        half, _ = train(config, corpus, labels, until_step=2)
        changed = dataclasses.replace(config, learning_rate=config.learning_rate * 2)
        with pytest.raises(ValueError, match="'learning_rate'"):
            train(changed, corpus, labels, resume=half)
        assert half.step == 2

    def test_loss_descends_on_longer_run(self, small_setup):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=40, learning_rate=5e-3)
        _, metrics = train(config, corpus, labels)
        first = np.mean([m["total"] for m in metrics[:5]])
        last = np.mean([m["total"] for m in metrics[-5:]])
        assert last < first


class TestCheckpoint:
    def test_round_trip_probe_forward_bit_identical(self, small_setup, tmp_path):
        config, corpus, labels = small_setup
        config = dataclasses.replace(config, steps=2)
        ckpt, _ = train(config, corpus, labels)
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
        ckpt, _ = train(config, corpus, labels, until_step=1)
        save_checkpoint(tmp_path / "one", ckpt)
        train(config, corpus, labels, resume=ckpt)
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

    def test_manifest_entry_past_blob_rejected(self, two_checkpoints):
        stem, _ = two_checkpoints
        meta = json.loads(stem.with_suffix(".json").read_text())
        meta["manifest"][-1][1] += 1
        stem.with_suffix(".json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="past the end"):
            load_checkpoint(stem)

    @staticmethod
    def edit_proj_w(stem, edit):
        """Apply `edit` to the manifest and its param/proj/W entry; the blob
        and its digest stay valid."""
        meta = json.loads(stem.with_suffix(".json").read_text())
        manifest = meta["manifest"]
        edit(manifest, next(entry for entry in manifest if entry[0] == "param/proj/W"))
        stem.with_suffix(".json").write_text(json.dumps(meta))

    def test_unknown_group_rejected(self, two_checkpoints):
        stem, _ = two_checkpoints
        self.edit_proj_w(stem, lambda manifest, entry: entry.__setitem__(0, "bogus/proj/W"))
        with pytest.raises(ValueError, match="entry bogus/proj/W"):
            load_checkpoint(stem)

    def test_missing_entry_rejected(self, two_checkpoints):
        stem, _ = two_checkpoints
        self.edit_proj_w(stem, lambda manifest, entry: manifest.remove(entry))
        with pytest.raises(ValueError, match="entry param/proj/W is missing"):
            load_checkpoint(stem)

    def test_wrong_shape_rejected(self, two_checkpoints):
        stem, _ = two_checkpoints
        self.edit_proj_w(stem, lambda manifest, entry: entry.__setitem__(2, entry[2][::-1]))
        with pytest.raises(ValueError, match="entry param/proj/W with shape"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("edit", [
        lambda manifest, entry: entry.__setitem__(2, 3),
        lambda manifest, entry: entry.__setitem__(0, 7),
        lambda manifest, entry: entry.__setitem__(1, -1),
        lambda manifest, entry: entry.pop(),
    ], ids=["shape-not-list", "name-not-string", "negative-offset", "two-fields"])
    def test_malformed_entry_rejected(self, two_checkpoints, edit):
        stem, _ = two_checkpoints
        self.edit_proj_w(stem, edit)
        with pytest.raises(ValueError, match=r"is not \[name, offset, shape\]"):
            load_checkpoint(stem)

    def test_duplicate_entry_rejected(self, two_checkpoints):
        stem, _ = two_checkpoints
        self.edit_proj_w(stem, lambda manifest, entry: manifest.append(list(entry)))
        with pytest.raises(ValueError, match="entry param/proj/W with shape"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("document", ["[]", "3", "\"checkpoint\""])
    def test_non_object_json_rejected(self, two_checkpoints, document):
        stem, _ = two_checkpoints
        stem.with_suffix(".json").write_text(document)
        with pytest.raises(ValueError, match="not a JSON object"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("edit, expected", [
        (lambda meta: meta.pop("manifest"), "no 'manifest' entry"),
        (lambda meta: meta.pop("config"), "no 'config' entry"),
        (lambda meta: meta["config"].update(bogus_key=1), "bogus_key"),
        (lambda meta: meta["config"]["encoder"].update(bogus_key=1), "bogus_key"),
    ], ids=["no-manifest", "no-config", "unknown-key", "unknown-nested-key"])
    def test_bad_metadata_rejected(self, two_checkpoints, edit, expected):
        stem, _ = two_checkpoints
        meta = json.loads(stem.with_suffix(".json").read_text())
        edit(meta)
        stem.with_suffix(".json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=expected):
            load_checkpoint(stem)

    def test_config_round_trip(self):
        config = fast_config(steps=5)
        back = TrainConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert back == config

    def test_bad_format_rejected(self, tmp_path):
        (tmp_path / "x.json").write_text(json.dumps({"format": "other"}))
        (tmp_path / "x.bin").write_bytes(b"")
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(tmp_path / "x")


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
        report = grad_check(seed=2, num_coords=40, groups=["head/"])
        assert set(report.per_group) == {"head/W", "head/b"}
        assert report.max_rel_error < 1e-6

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="group"):
            grad_check(seed=0, num_coords=10, groups=["nope/"])

    def test_tiny_config_is_tiny(self):
        config = tiny_config()
        assert config.encoder.model_dim <= 16
        assert not config.quantizer_hard
