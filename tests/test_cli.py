import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speechssl
from speechssl import cli, corpus, trainer
from speechssl.cli import main
from speechssl.corpus import write_wav
from speechssl.dsp import FeatureSequence, load_features, save_features
from speechssl.trainer import load_checkpoint

TINY_MODEL_SETS = [
    "--set", "batch_size=3",
    "--set", "utterance_length=1600",
    "--set", "encoder.model_dim=32",
    "--set", "encoder.num_layers=2",
    "--set", "encoder.num_heads=4",
    "--set", "encoder.ffn_dim=48",
    "--set", "encoder.tap_layer=1",
    "--set", "quantizer.entry_dim=16",
    "--set", "quantizer.num_entries=8",
    "--set", "weights.num_negatives=8",
]


def test_no_args_usage_exit_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "1", "--coords", "60"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "checked 60 coordinates across 32 parameter groups" in out
    assert "max relative error" in out and "(tolerance 1e-04)" in out
    assert main(["gradcheck", "--coords", "5"]) == 0     # one per group
    assert "checked 32 coordinates across 32 parameter groups" in capsys.readouterr().out


def test_synth_outputs_and_manifest(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--num-speakers", "2",
                 "--utts-per-speaker", "2", "--duration", "0.05", "--seed", "3"]) == 0
    manifest = out / "manifest.jsonl"
    assert manifest.exists()
    assert len(manifest.read_text().splitlines()) == 4
    run = json.loads((out / "run_manifest.json").read_text())
    assert run["command"] == "synth"
    assert len(run["config_hash"]) == 64


def test_synth_manifest_is_relocatable(tmp_path):
    import os

    from speechssl.corpus import load_manifest

    out = tmp_path / "corpus"
    main(["synth", "--out", str(out), "--num-speakers", "2",
          "--utts-per-speaker", "2", "--duration", "0.05", "--seed", "1"])
    first = json.loads((out / "manifest.jsonl").read_text().splitlines()[0])
    assert not os.path.isabs(first["audio_path"])
    moved = tmp_path / "elsewhere"
    out.rename(moved)
    refs = load_manifest(moved / "manifest.jsonl")
    utt = refs[0].load()
    assert len(utt.waveform) == 800


def test_synth_deterministic_artifacts(tmp_path):
    for name in ("a", "b"):
        main(["synth", "--out", str(tmp_path / name), "--num-speakers", "2",
              "--utts-per-speaker", "2", "--duration", "0.05", "--seed", "7"])
    wavs_a = sorted((tmp_path / "a/wavs").glob("*.wav"))
    wavs_b = sorted((tmp_path / "b/wavs").glob("*.wav"))
    assert [p.name for p in wavs_a] == [p.name for p in wavs_b]
    for pa, pb in zip(wavs_a, wavs_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_mix_command_writes_specs(tmp_path):
    corpus_dir = tmp_path / "corpus"
    main(["synth", "--out", str(corpus_dir), "--num-speakers", "2",
          "--utts-per-speaker", "2", "--duration", "0.05"])
    out = tmp_path / "mixed"
    assert main(["mix", "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(out), "--p", "1.0", "--seed", "2"]) == 0
    specs = json.loads((out / "mixspecs.jsonl").read_text().splitlines()[0])
    assert specs["specs"]
    assert len(list((out / "mixed").glob("*.wav"))) == 4


def test_mix_peak_memory_is_corpus_plus_mixed_copy(tmp_path):
    # mix holds the loaded corpus and its mixed copy; verification rebuilds
    # one utterance at a time (tracemalloc tracks NumPy's buffers)
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus_dir), "--num-speakers", "8",
                 "--utts-per-speaker", "16", "--duration", "0.5", "--seed", "0"]) == 0
    corpus_bytes = 8 * 16 * 8000 * 8            # float64 samples at 16 kHz
    tracemalloc.start()
    try:
        assert main(["mix", "--manifest", str(corpus_dir / "manifest.jsonl"),
                     "--out", str(tmp_path / "mixed"), "--p", "0.5", "--seed", "0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * corpus_bytes


def test_set_unknown_key_rejected(tmp_path):
    corpus_dir = tmp_path / "corpus"
    main(["synth", "--out", str(corpus_dir), "--num-speakers", "2",
          "--utts-per-speaker", "2", "--duration", "0.05"])
    code = main(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--labels", "whatever.jsonl", "--out", str(tmp_path / "run"),
                 "--set", "nonsense.key=1"])
    assert code == 2


@pytest.mark.parametrize("body, message, code", [
    ({"num_layer": 2}, "unknown config key: 'num_layer'", 2),
    ({"encoder": {"num_layer": 2}}, "unknown config key: 'encoder.num_layer'", 2),
    ({"encoder": 3}, "config key 'encoder' takes an object of keys", 2),
    ({"encoder": {"num_layers": {"x": 1}}},
     "config key 'encoder.num_layers' takes a single value", 2),
    ([1], "is not a JSON object", 2),
    ({"steps": "abc"}, "config key 'steps' takes an integer, got 'abc'", 2),
    ({"learning_rate": None}, "config key 'learning_rate' takes a number, got None", 2),
    ({"batch_size": "abc"}, "config key 'batch_size' takes an integer, got 'abc'", 2),
    ({"steps": True}, "config key 'steps' takes an integer, got True", 2),
    ({"weights": {"kappa": False}}, "config key 'weights.kappa' takes a number", 2),
    ({"speaker_loss": 1}, "config key 'speaker_loss' takes true or false, got 1", 2),
    ({"learning_rate": 10**400}, "config key 'learning_rate' takes a number, got 1000", 2),
    ({"encoder": {"num_heads": 0}}, "num_heads must be >= 1, got 0", 1),
    ({"learning_rate": float("inf")}, "config key 'learning_rate' must be finite, got inf", 1),
    ({"weights": {"alpha": float("nan")}}, "config key 'weights.alpha' must be finite", 1),
    ({"mix_probability": 2}, "config key 'mix_probability' must lie in [0, 1], got 2.0", 1),
    ({"warmup_frac": -1}, "unknown config key: 'warmup_frac'", 2),
    ({"batch_size": 0}, "config key 'batch_size' must be >= 1, got 0", 1),
    ({"batch_size": -2}, "config key 'batch_size' must be >= 1, got -2", 1),
    ({"checkpoint_every": -1}, "config key 'checkpoint_every' must be >= 0, got -1", 1),
    ({"encoder": {"input_dim": 39}}, "unknown config key: 'encoder.input_dim'", 2),
    ({"quantizer": {"latent_dim": 64}}, "unknown config key: 'quantizer.latent_dim'", 2),
    ({"quantizer": {"out_dim": 64}}, "unknown config key: 'quantizer.out_dim'", 2),
    ({"quantizer_hard": False}, "unknown config key: 'quantizer_hard'", 2),
    ({"encoder": {"model_dim": 0}}, "model_dim must be >= 1, got 0", 1),
    ({"mfcc": {"num_ceps": 0}}, "num_ceps must be >= 1, got 0", 1),
    ({"adam_beta1": 1.5}, "unknown config key: 'adam_beta1'", 2),
    ({"adam_beta2": 1}, "unknown config key: 'adam_beta2'", 2),
    ({"adam_eps": 0}, "unknown config key: 'adam_eps'", 2),
    ({"gain_snr_low": 5}, "unknown config key: 'gain_snr_low'", 2),
    ({"gain_snr_high": 5}, "unknown config key: 'gain_snr_high'", 2),
    ({"quantizer": {"tau_start": 2.0}}, "unknown config key: 'quantizer.tau_start'", 2),
    ({"quantizer": {"tau_end": 1e-300}}, "unknown config key: 'quantizer.tau_end'", 2),
    ({"mfcc": {"preemphasis": 1e300}}, "unknown config key: 'mfcc.preemphasis'", 2),
    ({"mfcc": {"floor": -1}}, "unknown config key: 'mfcc.floor'", 2),
    ({"mfcc": {"num_mel": 40}}, "unknown config key: 'mfcc.num_mel'", 2),
    ({"encoder": {"ffn_dim": 0}}, "ffn_dim must be >= 1, got 0", 1),
    ({"encoder": {"num_classes": 0}}, "num_classes must be >= 1, got 0", 1),
    ({"mfcc": {"window": 0}}, "window must be >= 1, got 0", 1),
    ({"utterance_length": 100}, "config key 'utterance_length' must be >= 400, got 100", 1),
    # a section's range check names the dotted key and the value
    ({"quantizer": {"num_entries": 0}},
     "config key quantizer.num_entries must be >= 1, got 0", 1),
    ({"encoder": {"tap_layer": 9}}, "config key encoder.tap_layer must be in [0, 4], got 9", 1),
    ({"encoder": {"num_layers": -1}}, "config key encoder.num_layers must be >= 0, got -1", 1),
    ({"weights": {"kappa": -1.0}}, "config key weights.kappa must be > 0, got -1.0", 1),
    ({"weights": {"alpha": -1}}, "config key weights.alpha must be >= 0, got -1.0", 1),
    ({"encoder": {"num_heads": 3}}, "config key encoder.num_heads 3 must divide model_dim 64", 1),
    ({"encoder": {"mask_start_prob": 1.5}},
     "config key encoder.mask_start_prob must lie in [0, 1], got 1.5", 1),
    ({"mfcc": {"window": 600, "fft_size": 512}}, "unknown config key: 'mfcc.fft_size'", 2),
    ({"mfcc": {"num_ceps": 40}},
     "config key mfcc.num_ceps 40 must not exceed the 26 mel bands", 1),
    ({"mfcc": {"window": 0}}, "config key mfcc.window must be >= 1, got 0", 1),
    # runs that could not take step 1
    ({"batch_size": 1}, "config key 'batch_size' must be >= 2 while the speaker loss draws "
                        "negatives from other utterances, got 1", 1),
    ({"utterance_length": 1, "mfcc": {"window": 1}},
     "config key 'utterance_length' must be >= 2, got 1", 1),
], ids=["unknown-top-level", "unknown-nested", "scalar-section", "object-value", "not-object",
        "string-for-int", "null-for-float", "string-batch-size", "bool-for-int",
        "bool-for-float", "int-for-bool", "huge-int-for-float", "zero-heads",
        "infinite-learning-rate", "nan-nested", "mix-probability-above-1",
        "negative-warmup-frac", "zero-batch-size", "negative-batch-size",
        "negative-checkpoint-every", "removed-input-dim", "removed-latent-dim",
        "removed-out-dim", "removed-quantizer-hard", "zero-model-dim", "zero-num-ceps",
        "removed-adam-beta1", "removed-adam-beta2", "removed-adam-eps",
        "removed-gain-snr-low", "removed-gain-snr-high", "removed-tau-start",
        "removed-tau-end", "removed-preemphasis", "removed-floor", "removed-num-mel",
        "zero-ffn-dim",
        "zero-num-classes", "zero-window", "utterance-shorter-than-window",
        "zero-num-entries", "tap-layer-above-num-layers", "negative-num-layers",
        "negative-kappa", "negative-alpha",
        "heads-not-dividing-width", "mask-start-prob-above-1", "window-above-fft-size",
        "num-ceps-above-num-mel", "zero-window-dotted-key",
        "single-utterance-batch-with-negatives", "crop-too-short-to-mix"])
def test_config_file_bad_key_rejected(tmp_path, capsys, body, message, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    assert main(["pretrain", "--manifest", "whatever.jsonl", "--labels", "whatever.jsonl",
                 "--out", str(tmp_path / "run"), "--config", str(config)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["encoder.input_dim", "quantizer.latent_dim",
                                 "quantizer.out_dim", "quantizer_hard",
                                 # constants of trainer, augment, quantizer and dsp
                                 "adam_beta1", "adam_beta2", "adam_eps", "gain_snr_low",
                                 "gain_snr_high", "quantizer.tau_start", "quantizer.tau_end",
                                 "mfcc.preemphasis", "mfcc.floor",
                                 # constants of trainer and dsp, or derived from the window
                                 "warmup_frac", "mfcc.num_mel", "mfcc.fft_size"])
def test_set_removed_width_key_is_usage_error(tmp_path, capsys, key):
    # the encoder input width is mfcc.dim and both quantizer widths are
    # encoder.model_dim; soft quantization is the gradient check's mode
    assert main(["pretrain", "--manifest", "whatever.jsonl", "--labels", "whatever.jsonl",
                 "--out", str(tmp_path / "run"), "--set", f"{key}=1"]) == 2
    assert f"unknown config key: {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_shorthands_apply_in_command_line_order():
    from speechssl.cli import build_parser, build_train_config

    def config(*flags):
        args = build_parser().parse_args(["pretrain", "--manifest", "m", "--labels", "l",
                                          "--out", "o", *flags])
        return build_train_config(args)

    assert config("--set", "steps=3", "--steps", "2").steps == 2
    assert config("--steps", "2", "--set", "steps=3").steps == 3
    assert config("--seed-noise", "9", "--set", "seeds.noise=4").seeds.noise == 4
    assert config("--set", "seeds.noise=4", "--seed-noise", "9").seeds.noise == 9


def test_int_taken_for_float_key_as_float(tmp_path):
    from speechssl.cli import build_parser, build_train_config

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"learning_rate": 1}))
    args = build_parser().parse_args(["pretrain", "--manifest", "m", "--labels", "l",
                                      "--out", "o", "--config", str(config),
                                      "--set", "learning_rate=0.5"])
    assert build_train_config(args).learning_rate == 0.5
    args.set = None
    assert type(build_train_config(args).learning_rate) is float


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> mfcc -> cluster -> pretrain, shared across CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus_dir = root / "corpus"
    assert main(["synth", "--out", str(corpus_dir), "--num-speakers", "3",
                 "--utts-per-speaker", "3", "--duration", "0.1", "--seed", "0"]) == 0
    feats_dir = root / "features"
    assert main(["mfcc", "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(feats_dir)]) == 0
    cluster_dir = root / "cluster"
    assert main(["cluster", "--features", str(feats_dir), "--out", str(cluster_dir),
                 "--k", "16", "--seed", "0"]) == 0
    run_dir = root / "run"
    assert main(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--labels", str(cluster_dir / "labels.jsonl"),
                 "--out", str(run_dir), "--steps", "2", *TINY_MODEL_SETS]) == 0
    return root


def test_pipeline_pretrain_artifacts(pipeline):
    run_dir = pipeline / "run"
    assert (run_dir / "metrics.jsonl").exists()
    assert (run_dir / "checkpoint_final.json").exists()
    assert (run_dir / "checkpoint_final.bin").exists()
    metrics = [json.loads(l) for l in (run_dir / "metrics.jsonl").read_text().splitlines()]
    assert len(metrics) == 2
    assert all(np.isfinite(m["total"]) for m in metrics)
    # encoder.model_dim=32 is the only width TINY_MODEL_SETS gives
    params = load_checkpoint(run_dir / "checkpoint_final").params
    assert params["proj/W"].shape == (39, 32)
    assert params["quant/proj_in/W"].shape == (32, 16)
    assert params["quant/proj_out/W"].shape == (32, 32)


def test_pretrain_without_deltas_reads_13_features(pipeline, tmp_path):
    run = tmp_path / "run"
    assert main(["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                 "--labels", str(pipeline / "cluster/labels.jsonl"), "--out", str(run),
                 "--steps", "2", *TINY_MODEL_SETS, "--set", "mfcc.deltas=false"]) == 0
    assert load_checkpoint(run / "checkpoint_final").params["proj/W"].shape == (13, 32)


def test_pipeline_feature_sidecars(pipeline):
    sidecar = json.loads((pipeline / "features/spk00_utt000.json").read_text())
    assert sidecar["D"] == 39
    assert sidecar["frame_rate"] == 100.0


def test_pipeline_labels_format(pipeline):
    first = json.loads((pipeline / "cluster/labels.jsonl").read_text().splitlines()[0])
    assert first["k"] == 16
    assert first["source"] == "mfcc"
    assert all(0 <= l < 16 for l in first["labels"])


# count flags are refused while parsing (exit 2), and so are the removed
# flags: cluster's and recluster's restart count, cluster's iteration cap and
# mix's batch size and length are constants or read off the corpus. The ids
# are the cases' names from when the library's own checks refused them (exit 1)
@pytest.mark.parametrize("command, flags, named", [
    pytest.param("cluster", ["--k", "0"], "argument --k: must be >= 1, got 0",
                 id="cluster-flags0-k=0"),
    pytest.param("cluster", ["--restarts", "0"], "unrecognized arguments: --restarts 0",
                 id="cluster-flags1-restarts=0"),
    pytest.param("recluster", ["--k", "0"], "argument --k: must be >= 1, got 0",
                 id="recluster-flags2-k=0"),
    pytest.param("cluster", ["--max-iters", "-1"], "unrecognized arguments: --max-iters -1",
                 id="cluster-flags3-max_iters=-1"),
    pytest.param("recluster", ["--layer", "-1"], "argument --layer: must be >= 0, got -1",
                 id="recluster-layer=-1"),
    pytest.param("recluster", ["--restarts", "3"], "unrecognized arguments: --restarts 3",
                 id="recluster-restarts=3"),
    pytest.param("mix", ["--batch-size", "0"], "unrecognized arguments: --batch-size 0",
                 id="mix-batch-size=0"),
    pytest.param("mix", ["--length", "1"], "unrecognized arguments: --length 1",
                 id="mix-length=1"),
])
def test_k_or_restarts_zero_exits_1(pipeline, tmp_path, capsys, command, flags, named):
    inputs = {"cluster": ["--features", str(pipeline / "features")],
              "recluster": ["--checkpoint", str(pipeline / "run/checkpoint_final"),
                            "--manifest", str(pipeline / "corpus/manifest.jsonl")],
              "mix": ["--manifest", str(pipeline / "corpus/manifest.jsonl")]}
    assert main([command, *inputs[command], "--out", str(tmp_path / "out"), *flags]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _manifest_rows(pipeline):
    """The pipeline manifest's rows, with absolute audio paths."""
    rows = [json.loads(l) for l in (pipeline / "corpus/manifest.jsonl").read_text().splitlines()]
    for row in rows:
        row["audio_path"] = str(pipeline / "corpus" / row["audio_path"])
    return rows


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def at_8khz(wav: bytes) -> bytes:
    """The WAV with its header's sample rate field (bytes 24-27) set to 8 kHz."""
    return wav[:24] + (8000).to_bytes(4, "little") + wav[28:]


def _bad_wav(write, named="{path}"):
    """The fourth manifest row, spk01_utt000, points at a WAV that
    `write(path, good_bytes)` makes; the refusal says `named`, formatted
    with that WAV's path."""
    def corrupt(pipeline, tmp_path):
        bad = tmp_path / "bad.wav"
        write(bad, (pipeline / "corpus/wavs/spk01_utt000.wav").read_bytes())
        rows = _manifest_rows(pipeline)
        rows[3]["audio_path"] = str(bad)
        return {"manifest": _write_jsonl(tmp_path / "bad.jsonl", rows)}, named.format(path=bad)
    return corrupt


def _bad_manifest_row(edit, named="{path}:1"):
    """The first manifest row as `edit` leaves it; `named` is formatted
    with the manifest's path."""
    def corrupt(pipeline, tmp_path):
        rows = _manifest_rows(pipeline)
        edit(rows[0])
        path = _write_jsonl(tmp_path / "bad.jsonl", rows)
        return {"manifest": path}, named.format(path=path)
    return corrupt


def _bad_label_row(edit, named="expected an integer 'k', a string 'source'"):
    def corrupt(pipeline, tmp_path):
        rows = [json.loads(l) for l in (pipeline / "cluster/labels.jsonl").read_text().splitlines()]
        edit(rows[0])
        path = _write_jsonl(tmp_path / "bad_labels.jsonl", rows)
        return {"labels": path}, f"{path}:1: {named}"
    return corrupt


def _edited_jsonl(key, edit, named):
    """A copy of the pipeline's manifest or labels file (`key`) whose bytes
    `edit` rewrites; `named` is formatted with the copy's path."""
    def corrupt(pipeline, tmp_path):
        source = {"manifest": "corpus/manifest.jsonl", "labels": "cluster/labels.jsonl"}[key]
        path = tmp_path / "bad.jsonl"
        path.write_bytes(edit((pipeline / source).read_bytes()))
        return {key: path}, named.format(path=path)
    return corrupt


def _not_utf8(data):
    # a 0xff byte opens the first row's id: both files' rows start {"id": "
    return data.replace(b'{"id": "', b'{"id": "\xff', 1)


def _bad_features(edit, named):
    """A copy of the pipeline's features in which `edit(stem)` corrupts
    spk02_utt002; `named` is formatted with its sidecar's path."""
    def corrupt(pipeline, tmp_path):
        features = tmp_path / "features"
        shutil.copytree(pipeline / "features", features)
        edit(features / "spk02_utt002")
        return {"features": features}, named.format(sidecar=features / "spk02_utt002.json")
    return corrupt


def _narrow(stem):
    # extracted without deltas: 13 features beside the others' 39
    narrow = load_features(stem.parent, stem.name).frames[:, :13]
    save_features(stem.parent, stem.name, FeatureSequence(narrow, 100.0))


def _bad_checkpoint(edit, named):
    """A copy of the pipeline's checkpoint that `edit(stem)` corrupts; `named`
    is formatted with the stem and the float count of the blob."""
    def corrupt(pipeline, tmp_path):
        stem = tmp_path / "checkpoint"
        for suffix in (".json", ".bin"):
            shutil.copy(pipeline / f"run/checkpoint_final{suffix}", stem.with_suffix(suffix))
        edit(stem)
        floats = stem.with_suffix(".bin").stat().st_size // 8
        return {"checkpoint": stem}, named.format(stem=stem, floats=floats)
    return corrupt


def _edited_meta(edit, named):
    # the digest covers the blob only, so each edit leaves it valid
    return _bad_checkpoint(lambda stem: _edit_json(stem.with_suffix(".json"), edit), named)


def _flags(*flags, named):
    return lambda pipeline, tmp_path: ({"flags": list(flags)}, named)


def _config_cut(pipeline, tmp_path):
    (tmp_path / "config.json").write_text('{"steps": ')
    return ({"flags": ["--config", str(tmp_path / "config.json")]},
            f"--config {tmp_path / 'config.json'}: malformed JSON (Expecting value: line 1 "
            "column 11 (char 10))")


def _out_is_a_file(pipeline, tmp_path):
    (tmp_path / "out").write_text("not a directory\n")
    return {}, str(tmp_path / "out")


def _out_under_a_file(pipeline, tmp_path):
    (tmp_path / "file").write_text("not a directory\n")
    return {"out": tmp_path / "file/out"}, str(tmp_path / "file/out")


def _manifest_is_a_directory(pipeline, tmp_path):
    (tmp_path / "manifest.jsonl").mkdir()
    return {"manifest": tmp_path / "manifest.jsonl"}, str(tmp_path / "manifest.jsonl")


# `named` is a fragment of the one error line, or, starting "error: ", all of it
CORRUPTIONS = {
    "wav-empty": _bad_wav(lambda path, good: path.write_bytes(b"")),
    "wav-header-cut": _bad_wav(lambda path, good: path.write_bytes(good[:20])),
    "wav-random-bytes": _bad_wav(
        lambda path, good: path.write_bytes(np.random.default_rng(0).bytes(len(good)))),
    "wav-directory": _bad_wav(lambda path, good: path.mkdir()),
    "wav-data-cut": _bad_wav(lambda path, good: path.write_bytes(good[:-101])),
    # a well-formed header over an empty data chunk
    "wav-no-frames": _bad_wav(lambda path, good: path.write_bytes(
        good[:40] + (0).to_bytes(4, "little"))),
    "wav-missing": _bad_wav(lambda path, good: None),
    "wav-short": _bad_wav(
        lambda path, good: write_wav(path, np.zeros(200)),
        "error: utterance 'spk01_utt000' has 200 samples, shorter than one MFCC window (400)\n"),
    "wav-one-sample": _bad_wav(
        lambda path, good: write_wav(path, np.zeros(1)),
        "error: utterance 'spk01_utt000' is 1 sample long, too short to mix (need >= 2 samples)\n"),
    "wav-8khz": _bad_wav(lambda path, good: path.write_bytes(at_8khz(good)),
                         "error: {path}: expected 16000 Hz audio, got 8000 Hz\n"),
    "manifest-int-speaker": _bad_manifest_row(lambda row: row.update(speaker=5)),
    "manifest-int-id": _bad_manifest_row(lambda row: row.update(id=5)),
    "manifest-int-audio-path": _bad_manifest_row(lambda row: row.update(audio_path=5)),
    "manifest-untagged": _bad_manifest_row(
        lambda row: row.pop("speaker"),
        "error: utterance 'spk00_utt000' carries no speaker tag\n"),
    # an id names the files a command writes under --out
    "manifest-escaping-id": _bad_manifest_row(
        lambda row: row.update(id="../../escaped"),
        "error: {path}:1: id '../../escaped' is not a plain file name (one path component, "
        "not '.', '..' or 'run_manifest')\n"),
    "manifest-reserved-id": _bad_manifest_row(
        lambda row: row.update(id="run_manifest"),
        "error: {path}:1: id 'run_manifest' is not a plain file name (one path component, "
        "not '.', '..' or 'run_manifest')\n"),
    "manifest-nul-id": _bad_manifest_row(
        lambda row: row.update(id="a\0b"),
        "error: {path}:1: id 'a\\x00b' is not a plain file name (one path component, "
        "not '.', '..' or 'run_manifest')\n"),
    "manifest-directory": _manifest_is_a_directory,
    "manifest-empty": _edited_jsonl("manifest", lambda data: b"",
                                    "error: manifest {path} holds no rows\n"),
    "manifest-not-utf8": _edited_jsonl(
        "manifest", _not_utf8,
        "error: {path}:1: not UTF-8 text (byte 0xff at column 9: invalid start byte)\n"),
    "labels-empty": _edited_jsonl("labels", lambda data: b"",
                                  "error: labels file {path} holds no rows\n"),
    "labels-not-utf8": _edited_jsonl(
        "labels", _not_utf8,
        "error: {path}:1: not UTF-8 text (byte 0xff at column 9: invalid start byte)\n"),
    "labels-int-source": _bad_label_row(lambda row: row.update(source=5)),
    "labels-string-k": _bad_label_row(lambda row: row.update(k="16")),
    "labels-fraction": _bad_label_row(lambda row: row["labels"].__setitem__(0, 1.5)),
    "labels-no-k": _bad_label_row(lambda row: row.pop("k"), "expected an object with keys"),
    "features-no-T": _bad_features(
        lambda stem: _edit_json(stem.with_suffix(".json"), lambda doc: doc.pop("T")),
        "feature sidecar {sidecar}: 'T' must be a positive int, got None"),
    "features-string-T": _bad_features(
        lambda stem: _edit_json(stem.with_suffix(".json"), lambda doc: doc.update(T="8")),
        "feature sidecar {sidecar}: 'T' must be a positive int, got '8'"),
    "features-f32-cut": _bad_features(
        lambda stem: stem.with_suffix(".f32").write_bytes(
            stem.with_suffix(".f32").read_bytes()[:-10]),
        "feature sidecar {sidecar}: spk02_utt002.f32 holds 1238 bytes, not 4 x T x D = 1248"),
    "features-narrow": _bad_features(
        _narrow, "utterance 'spk02_utt002' has frames 13 wide, but 'spk00_utt000' has frames "
                 "39 wide"),
    "checkpoint-blob-cut": _bad_checkpoint(
        lambda stem: stem.with_suffix(".bin").write_bytes(
            stem.with_suffix(".bin").read_bytes()[:-8]),
        "{stem}.bin does not match the length and digest in {stem}.json"),
    "checkpoint-json-cut": _bad_checkpoint(
        lambda stem: stem.with_suffix(".json").write_bytes(
            stem.with_suffix(".json").read_bytes()[:300]),
        "checkpoint {stem}.json: malformed JSON ("),
    "checkpoint-not-object": _bad_checkpoint(
        lambda stem: stem.with_suffix(".json").write_text("[]"),
        "error: checkpoint {stem}.json is not a JSON object\n"),
    # a v5 blob holds the float count a v6 config needs, with Wq, Wk and Wv
    # apart, so the format alone refuses it
    "checkpoint-v5": _edited_meta(
        lambda meta: meta.update(format="speechssl-checkpoint-v5"),
        "unrecognized checkpoint format 'speechssl-checkpoint-v5' in {stem}.json; "
        "this version reads 'speechssl-checkpoint-v8'"),
    # v7 stored warmup_frac, mfcc.fft_size and mfcc.num_mel as config keys
    "checkpoint-v7": _edited_meta(
        lambda meta: (meta.update(format="speechssl-checkpoint-v7"),
                      meta["config"].update(warmup_frac=0.08),
                      meta["config"]["mfcc"].update(fft_size=512, num_mel=26)),
        "error: unrecognized checkpoint format 'speechssl-checkpoint-v7' in {stem}.json; "
        "this version reads 'speechssl-checkpoint-v8'\n"),
    "checkpoint-v2": _edited_meta(lambda meta: meta.update(format="speechssl-checkpoint-v2"),
                                  "unrecognized checkpoint format 'speechssl-checkpoint-v2'"),
    "checkpoint-v3": _edited_meta(lambda meta: meta.update(format="speechssl-checkpoint-v3"),
                                  "unrecognized checkpoint format 'speechssl-checkpoint-v3'"),
    "checkpoint-misfit": _edited_meta(
        lambda meta: meta["config"]["encoder"].update(
            ffn_dim=meta["config"]["encoder"]["ffn_dim"] + 1),
        "{stem}.bin holds {floats} floats, but the config in {stem}.json needs"),
    "checkpoint-scalar-encoder": _edited_meta(
        lambda meta: meta["config"].update(encoder=3),
        "the config in {stem}.json: config key 'encoder' takes an object of keys"),
    "config-cut": _config_cut,
    "set-string-steps": _flags("--set", "steps=abc",
                               named="config key 'steps' takes an integer, got 'abc'"),
    "batch-above-corpus": _flags(
        "--set", "batch_size=10",
        named="config key 'batch_size' is 10, but the corpus holds 9 utterances"),
    "layer-3": _flags("--layer", "3",
                      named="error: --layer 3 exceeds the checkpoint's 2 blocks\n"),
    "layer-9": _flags("--layer", "9",
                      named="error: --layer 9 exceeds the checkpoint's 2 blocks\n"),
    "coords-above-params": _flags(
        "--coords", "100000",
        named="error: --coords 100000 exceeds the checked config's 4492 parameters\n"),
    "duration-nan": _flags("--duration", "nan", named="duration must be positive and finite"),
    "duration-inf": _flags("--duration", "inf", named="duration must be positive and finite"),
    "duration-0": _flags("--duration", "0", named="duration must be positive and finite"),
    "duration-under-one-sample": _flags(
        "--duration", "0.00001",
        named="error: duration 1e-05 s is shorter than one sample at 16000 Hz\n"),
    "p-2": _flags("--p", "2", named="error: --p 2.0 must lie in [0, 1]\n"),
    "p-negative": _flags("--p", "-0.1", named="error: --p -0.1 must lie in [0, 1]\n"),
    "p-nan": _flags("--p", "nan", named="error: --p nan must lie in [0, 1]\n"),
    # the pipeline's checkpoint is at step 2
    "until-step-below-checkpoint": _flags(
        "--until-step", "1",
        named="error: until_step 1 is below the resumed run's step 2\n"),
    "out-is-a-file": _out_is_a_file,
    "out-under-a-file": _out_under_a_file,
}
# hand edits of a checkpoint's metadata, each refused by every command that loads it
CHECKPOINT_EDITS = {
    "float-steps": (lambda meta: meta["config"].update(steps=3.5),
                    "the config in {stem}.json: config key 'steps'"),
    "string-speaker-loss": (lambda meta: meta["config"].update(speaker_loss="no"),
                            "the config in {stem}.json: config key 'speaker_loss'"),
    "float-seed": (lambda meta: meta["config"]["seeds"].update(data=0.5),
                   "the config in {stem}.json: config key 'seeds.data'"),
    "float-batch-size": (lambda meta: meta["config"].update(batch_size=3.0),
                         "the config in {stem}.json: config key 'batch_size'"),
    "float-tap-layer": (lambda meta: meta["config"]["encoder"].update(tap_layer=1.0),
                        "the config in {stem}.json: config key 'encoder.tap_layer'"),
    "string-step": (lambda meta: meta.update(step="1"), "{stem}.json has no 'step' entry"),
    "float-step": (lambda meta: meta.update(step=1.0), "{stem}.json has no 'step' entry"),
    "object-metrics": (lambda meta: meta.update(metrics={}), "{stem}.json has no 'metrics' entry"),
    "metrics-not-rows": (lambda meta: meta.update(metrics=[1]),
                         "the 'metrics' entry of {stem}.json does not hold the rows"),
    "row-without-total": (lambda meta: [row.pop("total") for row in meta["metrics"]],
                          "the metrics row of step 1 in {stem}.json"),
}
CORRUPTIONS.update({f"checkpoint-{name}": _edited_meta(*spec)
                    for name, spec in CHECKPOINT_EDITS.items()})
# exit 2; every other row exits 1
USAGE_ERRORS = {"config-cut", "set-string-steps", "p-2", "p-negative", "p-nan"}


def _command(name, pipeline, inputs):
    """Command `name` on the pipeline's files, or on the corrupt ones in
    `inputs`, with the row's flags; the caller appends --out."""
    manifest = str(inputs.get("manifest", pipeline / "corpus/manifest.jsonl"))
    labels = str(inputs.get("labels", pipeline / "cluster/labels.jsonl"))
    checkpoint = str(inputs.get("checkpoint", pipeline / "run/checkpoint_final"))
    return {
        "mfcc": ["mfcc", "--manifest", manifest],
        "mix": ["mix", "--manifest", manifest],
        "probe": ["probe", "--checkpoint", checkpoint, "--manifest", manifest],
        "recluster": ["recluster", "--checkpoint", checkpoint, "--manifest", manifest],
        "pretrain": ["pretrain", "--manifest", manifest, "--labels", labels, "--steps", "2",
                     *TINY_MODEL_SETS],
        "resume": ["pretrain", "--manifest", manifest, "--labels", labels, "--resume", checkpoint],
        "cluster": ["cluster", "--features", str(inputs.get("features", pipeline / "features"))],
        "synth": ["synth", "--num-speakers", "2", "--utts-per-speaker", "2",
                  "--duration", "0.05"],
        "gradcheck": ["gradcheck"],
    }[name] + inputs.get("flags", [])


# every refusal that prints one `error:` line and no usage text is a row per
# (corruption, command): a later refusal adds a row here
@pytest.mark.parametrize("corruption, command", [
    ("wav-empty", "mfcc"), ("wav-header-cut", "mfcc"), ("wav-random-bytes", "mfcc"),
    ("wav-directory", "mfcc"), ("wav-data-cut", "mfcc"), ("wav-data-cut", "pretrain"),
    ("wav-no-frames", "mfcc"), ("wav-missing", "mfcc"),
    ("wav-random-bytes", "recluster"), ("wav-empty", "probe"),
    ("wav-short", "mfcc"), ("wav-short", "probe"), ("wav-short", "recluster"),
    ("wav-8khz", "mfcc"), ("wav-8khz", "pretrain"), ("wav-8khz", "probe"),
    ("wav-8khz", "recluster"), ("wav-one-sample", "mix"),
    ("manifest-int-speaker", "probe"), ("manifest-int-id", "mfcc"),
    ("manifest-int-audio-path", "mfcc"), ("manifest-untagged", "probe"),
    ("manifest-escaping-id", "mfcc"), ("manifest-reserved-id", "mix"), ("manifest-nul-id", "mfcc"),
    ("manifest-directory", "mfcc"), ("manifest-empty", "mfcc"), ("manifest-empty", "mix"),
    ("manifest-not-utf8", "mfcc"), ("labels-empty", "pretrain"), ("labels-not-utf8", "pretrain"),
    ("labels-int-source", "pretrain"), ("labels-string-k", "pretrain"),
    ("labels-fraction", "pretrain"), ("labels-no-k", "pretrain"),
    ("features-no-T", "cluster"), ("features-string-T", "cluster"),
    ("features-f32-cut", "cluster"), ("features-narrow", "cluster"),
    ("checkpoint-blob-cut", "resume"), ("checkpoint-json-cut", "probe"),
    ("checkpoint-not-object", "probe"), ("checkpoint-v5", "resume"), ("checkpoint-v5", "probe"),
    ("checkpoint-v7", "resume"), ("checkpoint-v7", "probe"),
    ("checkpoint-v2", "probe"), ("checkpoint-v3", "probe"), ("checkpoint-misfit", "probe"),
    ("checkpoint-scalar-encoder", "probe"),
    *[(f"checkpoint-{name}", command) for name in CHECKPOINT_EDITS
      for command in ("resume", "probe", "recluster")],
    ("config-cut", "pretrain"), ("set-string-steps", "pretrain"),
    ("batch-above-corpus", "pretrain"), ("layer-3", "recluster"), ("layer-9", "recluster"),
    ("coords-above-params", "gradcheck"),
    ("duration-nan", "synth"), ("duration-inf", "synth"), ("duration-0", "synth"),
    ("duration-under-one-sample", "synth"), ("p-2", "mix"), ("p-negative", "mix"),
    ("p-nan", "mix"), ("until-step-below-checkpoint", "resume"),
    ("out-is-a-file", "probe"), ("out-is-a-file", "cluster"), ("out-is-a-file", "synth"),
    ("out-under-a-file", "synth"),
], ids=lambda value: value)
def test_corrupt_input_is_one_error_line(pipeline, tmp_path, capsys, corruption, command):
    inputs, named = CORRUPTIONS[corruption](pipeline, tmp_path)
    out = inputs.get("out", tmp_path / "out")
    before = out.read_bytes() if out.is_file() else None
    out_flag = [] if command == "gradcheck" else ["--out", str(out)]   # gradcheck writes none
    code = main([*_command(command, pipeline, inputs), *out_flag])
    err = capsys.readouterr().err
    assert code == (2 if corruption in USAGE_ERRORS else 1) and "Traceback" not in err, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert err == named if named.startswith("error: ") else named in err, err
    assert out.read_bytes() == before if before is not None else not out.exists()


# each cut leaves no whole document: a WAV cut anywhere, a JSON Lines file cut
# inside its first line's object, a JSON document cut before its last brace
TRUNCATED = {
    "corpus/wavs/spk01_utt000.wav": ("mfcc", lambda data: (0, len(data) - 1)),
    "corpus/manifest.jsonl": ("mfcc", lambda data: (1, data.index(b"}\n"))),
    "cluster/labels.jsonl": ("pretrain", lambda data: (1, data.index(b"}\n"))),
    "run/checkpoint_final.json": ("probe", lambda data: (0, data.rindex(b"}"))),
    "features/spk02_utt002.json": ("cluster", lambda data: (0, data.rindex(b"}"))),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(TRUNCATED)), data=st.data())
def test_truncated_input_is_one_error_line(pipeline, name, data):
    command, cuts = TRUNCATED[name]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pipeline, root, dirs_exist_ok=True)
        good = (root / name).read_bytes()
        (root / name).write_bytes(good[:data.draw(st.integers(*cuts(good)), label="cut")])
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*_command(command, root, {}), "--out", str(root / "out")])
        assert not (root / "out").exists()
    err = err.getvalue()
    assert code in (1, 2) and "Traceback" not in err, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert str(root / name) in err, err


def _wav_reads(monkeypatch) -> list:
    """The file name of every WAV read from here on, in read order."""
    names, read_wav = [], corpus.read_wav

    def counted(path):
        names.append(Path(path).name)
        return read_wav(path)

    monkeypatch.setattr(corpus, "read_wav", counted)
    return names


def test_pretrain_reads_each_wav_once_then_a_batch_per_step(pipeline, tmp_path, monkeypatch):
    reads, at_step, train_step = _wav_reads(monkeypatch), [], trainer.train_step

    def counted_step(*args):
        at_step.append(len(reads))
        return train_step(*args)

    monkeypatch.setattr(trainer, "train_step", counted_step)
    assert main([*_command("pretrain", pipeline, {}), "--out", str(tmp_path / "run")]) == 0
    wavs = sorted(p.name for p in (pipeline / "corpus/wavs").glob("*.wav"))
    assert sorted(reads[:len(wavs)]) == wavs                # the check, before step 1
    assert at_step == [len(wavs) + 3, len(wavs) + 6]        # batch_size=3 per step
    assert len(reads) == len(wavs) + 6


@pytest.mark.parametrize("command, per_wav", [
    ("probe", 2), ("recluster", 2), ("mfcc", 1), ("mix", 1)])
def test_manifest_command_read_budget(pipeline, tmp_path, monkeypatch, command, per_wav):
    # probe and recluster read each WAV for the check and once to encode it
    reads = _wav_reads(monkeypatch)
    assert main([*_command(command, pipeline, {}), "--out", str(tmp_path / "out")]) == 0
    wavs = [p.name for p in (pipeline / "corpus/wavs").glob("*.wav")]
    assert Counter(reads) == dict.fromkeys(wavs, per_wav)


def test_pretrain_memory_does_not_grow_with_the_corpus(tmp_path):
    # pretrain holds manifest entries, not audio: 48 more utterances must add
    # under a quarter of their float64 samples (tracemalloc tracks NumPy's buffers)
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus_dir), "--num-speakers", "4",
                 "--utts-per-speaker", "16", "--duration", "0.1", "--seed", "0"]) == 0
    assert main(["mfcc", "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "features")]) == 0
    assert main(["cluster", "--features", str(tmp_path / "features"),
                 "--out", str(tmp_path / "cluster"), "--k", "16"]) == 0
    lines = (corpus_dir / "manifest.jsonl").read_text().splitlines(keepends=True)
    (corpus_dir / "small.jsonl").write_text("".join(lines[::4]))   # 4 speakers x 4

    def pretrain(manifest, out):
        return main(["pretrain", "--manifest", str(corpus_dir / manifest),
                     "--labels", str(tmp_path / "cluster/labels.jsonl"),
                     "--out", str(tmp_path / out), "--steps", "2", *TINY_MODEL_SETS])

    assert pretrain("small.jsonl", "warm") == 0     # lazy caches are built untraced
    peaks = []
    for manifest in ("small.jsonl", "manifest.jsonl"):
        tracemalloc.start()
        try:
            assert pretrain(manifest, manifest) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 48 * 1600 * 8 / 4


def _pretrain_rewritten_after_the_check(pipeline, tmp_path, capsys, monkeypatch, rewrite):
    """pretrain on a copy of the pipeline corpus whose WAVs all pass the
    check, then become `rewrite(their bytes)` before training reads its
    first batch. Asserts exit 1, no traceback and no checkpoint saved, and
    returns stderr and the copy's WAV directory as a regex."""
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus_dir)
    train = cli.train

    def rewrite_then_train(*args, **kwargs):
        for wav in (corpus_dir / "wavs").glob("*.wav"):
            wav.write_bytes(rewrite(wav.read_bytes()))
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", rewrite_then_train)
    out = tmp_path / "out"
    inputs = {"manifest": corpus_dir / "manifest.jsonl"}
    code = main([*_command("pretrain", pipeline, inputs), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err, err
    assert not list(out.glob("checkpoint_final.*"))
    return err, re.escape(str(corpus_dir / "wavs"))


def test_wav_unreadable_after_the_check_is_one_error_line(pipeline, tmp_path, capsys,
                                                          monkeypatch):
    # the batch read refuses a WAV that turned to random bytes
    err, wavs = _pretrain_rewritten_after_the_check(pipeline, tmp_path, capsys, monkeypatch,
                                                    lambda wav: bytes(range(256)) * 4)
    assert re.fullmatch(rf"error: {wavs}/spk\d\d_utt\d{{3}}\.wav: cannot read it as a WAV "
                        r"file: .*\n", err), err


def test_wav_at_8khz_after_the_check_is_one_error_line(pipeline, tmp_path, capsys,
                                                       monkeypatch):
    # every read is format-checked, not only the first: the batch read
    # refuses a WAV whose header now says 8 kHz
    err, wavs = _pretrain_rewritten_after_the_check(pipeline, tmp_path, capsys, monkeypatch,
                                                    at_8khz)
    assert re.fullmatch(rf"error: {wavs}/spk\d\d_utt\d{{3}}\.wav: expected 16000 Hz audio, "
                        r"got 8000 Hz\n", err), err


def test_mfcc_reads_the_config_document(pipeline, tmp_path, capsys):
    manifest = str(pipeline / "corpus/manifest.jsonl")
    assert main(["mfcc", "--manifest", manifest, "--out", str(tmp_path), "--hop", "200"]) == 2
    hop = ["--set", "mfcc.hop=200"]
    assert main(["mfcc", "--manifest", manifest, "--out", str(tmp_path / "features"),
                 *hop]) == 0
    sidecar = json.loads((tmp_path / "features/spk00_utt000.json").read_text())
    assert sidecar["frame_rate"] == 80.0
    assert main(["cluster", "--features", str(tmp_path / "features"),
                 "--out", str(tmp_path / "cluster"), "--k", "16"]) == 0
    pretrain = ["pretrain", "--manifest", manifest, "--labels",
                str(tmp_path / "cluster/labels.jsonl"), "--out", str(tmp_path / "run"),
                "--steps", "1", *TINY_MODEL_SETS]
    assert main([*pretrain, *hop]) == 0
    capsys.readouterr()
    assert main([*pretrain, "--out", str(tmp_path / "run2")]) == 1  # features at hop 160
    assert "labels must come from the clean audio" in capsys.readouterr().err
    assert not (tmp_path / "run2").exists()
    assert main(["mfcc", "--manifest", manifest, "--out", str(tmp_path / "window0"),
                 "--set", "mfcc.window=0"]) == 1
    err = capsys.readouterr().err
    assert "window must be >= 1, got 0" in err and "Traceback" not in err
    assert not (tmp_path / "window0").exists()


def test_pipeline_recluster(pipeline, tmp_path):
    out = tmp_path / "recluster"
    assert main(["recluster", "--checkpoint", str(pipeline / "run/checkpoint_final"),
                 "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                 "--out", str(out), "--k", "4", "--seed", "1"]) == 0
    labels = [json.loads(l) for l in (out / "labels.jsonl").read_text().splitlines()]
    assert all(l["source"] == "embedding:layer1" for l in labels)
    assert all(max(l["labels"]) < 4 for l in labels)
    # iteration 2: the embedding labels train the next run
    run = tmp_path / "run2"
    assert main(["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                 "--labels", str(out / "labels.jsonl"), "--out", str(run), "--steps", "2",
                 *TINY_MODEL_SETS]) == 0
    assert len((run / "metrics.jsonl").read_text().splitlines()) == 2


def test_pipeline_probe(pipeline, tmp_path, capsys):
    out = tmp_path / "probe"
    assert main(["probe", "--checkpoint", str(pipeline / "run/checkpoint_final"),
                 "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                 "--out", str(out), "--probe-steps", "20"]) == 0
    report = json.loads((out / "probe.json").read_text())
    assert set(report) == {"layer_weights", "task_accuracy", "separability"}
    assert len(report["layer_weights"]) == 3  # input projection + 2 blocks
    printed = capsys.readouterr().out
    assert "layer" in printed and "#" in printed


def test_pipeline_pretrain_deterministic(pipeline, tmp_path):
    for name in ("x", "y"):
        assert main(["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                     "--labels", str(pipeline / "cluster/labels.jsonl"),
                     "--out", str(tmp_path / name), "--steps", "2",
                     *TINY_MODEL_SETS]) == 0
    assert (tmp_path / "x/metrics.jsonl").read_bytes() == (
        tmp_path / "y/metrics.jsonl").read_bytes()
    assert (tmp_path / "x/checkpoint_final.bin").read_bytes() == (
        tmp_path / "y/checkpoint_final.bin").read_bytes()


def test_pipeline_resume_matches(pipeline, tmp_path):
    inputs = ["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
              "--labels", str(pipeline / "cluster/labels.jsonl")]
    args_common = [*inputs, "--steps", "4", *TINY_MODEL_SETS]
    straight = tmp_path / "straight"
    assert main([*args_common, "--out", str(straight)]) == 0
    split = tmp_path / "split"
    assert main([*args_common, "--out", str(split), "--until-step", "2"]) == 0
    assert main([*inputs, "--out", str(split),
                 "--resume", str(split / "checkpoint_final")]) == 0
    assert (straight / "metrics.jsonl").read_bytes() == (
        split / "metrics.jsonl").read_bytes()
    assert (straight / "checkpoint_final.bin").read_bytes() == (
        split / "checkpoint_final.bin").read_bytes()


def test_resuming_a_finished_run_rewrites_its_directory(pipeline, tmp_path):
    inputs = ["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
              "--labels", str(pipeline / "cluster/labels.jsonl")]
    done, again = tmp_path / "done", tmp_path / "again"
    assert main([*inputs, "--steps", "2", *TINY_MODEL_SETS, "--out", str(done)]) == 0
    assert main([*inputs, "--out", str(again), "--resume", str(done / "checkpoint_final")]) == 0
    names = sorted(path.name for path in done.iterdir())
    assert "usage.json" in names and names == sorted(path.name for path in again.iterdir())
    for name in names:
        if name != "run_manifest.json":     # its wall time and inputs differ
            assert (again / name).read_bytes() == (done / name).read_bytes(), name


@pytest.mark.parametrize("flags", [["--set", "steps=2"], ["--steps", "2"],
                                   ["--seed-data", "3"], ["--config", "config.json"]],
                         ids=["set", "steps", "seed", "config"])
def test_resume_with_config_flags_is_usage_error(pipeline, tmp_path, capsys, flags):
    run = tmp_path / "run"
    pretrain = ["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                "--labels", str(pipeline / "cluster/labels.jsonl"), "--out", str(run)]
    assert main([*pretrain, "--steps", "2", *TINY_MODEL_SETS, "--until-step", "1"]) == 0
    before = (run / "metrics.jsonl").read_bytes()
    assert main([*pretrain, "--resume", str(run / "checkpoint_final"), *flags]) == 2
    assert "--resume continues with the checkpoint's config" in capsys.readouterr().err
    assert (run / "metrics.jsonl").read_bytes() == before


def test_run_manifest_lists_input_paths(pipeline, tmp_path):
    manifest = str(pipeline / "corpus/manifest.jsonl")
    labels = str(pipeline / "cluster/labels.jsonl")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 2}))
    run = tmp_path / "run"
    pretrain = ["pretrain", "--manifest", manifest, "--labels", labels, "--out", str(run)]
    assert main([*pretrain, "--config", str(config), *TINY_MODEL_SETS, "--until-step", "1"]) == 0
    recorded = json.loads((run / "run_manifest.json").read_text())
    assert recorded["inputs"] == [manifest, labels, str(config)]
    stem = str(run / "checkpoint_final")
    assert main([*pretrain, "--resume", stem]) == 0
    recorded = json.loads((run / "run_manifest.json").read_text())
    assert recorded["command"] == "pretrain" and recorded["inputs"] == [manifest, labels, stem]
    assert recorded["seeds"] == json.loads(Path(stem + ".json").read_text())["config"]["seeds"]


def test_mix_verify_failure_exits_1(pipeline, tmp_path, capsys, monkeypatch):
    from speechssl import cli

    monkeypatch.setattr(cli, "verify_spec", lambda mixed: ["chunk 1 is out of range"])
    assert main(["mix", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                 "--out", str(tmp_path / "mixed"), "--p", "1.0"]) == 1
    assert "mix verification failed: chunk 1 is out of range" in capsys.readouterr().err
    assert not (tmp_path / "mixed").exists()


def test_gradcheck_fail_exits_1(capsys, monkeypatch):
    from speechssl import cli
    from speechssl.trainer import GradCheckReport

    monkeypatch.setattr(cli, "grad_check", lambda **kwargs: GradCheckReport(
        0.5, {"encoder/w": 0.5}, 1))
    assert main(["gradcheck"]) == 1
    captured = capsys.readouterr()
    assert "FAIL: gradient check exceeded tolerance" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("command, flag, value", [
    ("gradcheck", "--coords", "0"),
    ("gradcheck", "--coords", "-3"),
    ("probe", "--probe-steps", "-1"),
    ("synth", "--num-speakers", "0"),
])
def test_count_flag_below_minimum_is_usage_error(pipeline, tmp_path, capsys,
                                                 command, flag, value):
    inputs = {"probe": ["--manifest", str(pipeline / "corpus/manifest.jsonl"),
                        "--checkpoint", str(pipeline / "run/checkpoint_final"),
                        "--out", str(tmp_path / "out")],
              "gradcheck": [],
              "synth": ["--out", str(tmp_path / "out")]}
    assert main([command, *inputs[command], flag, value]) == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be >= " in captured.err and "PASS" not in captured.out
    assert not (tmp_path / "out").exists()


def test_sweep_mix_rows(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep-mix", "--out", str(out), "--num-speakers", "2",
                 "--utts-per-speaker", "3", "--num-seeds", "1", "--steps", "2",
                 "--corpus-seed", "1", *TINY_MODEL_SETS]) == 0
    sweep = json.loads((out / "sweep.json").read_text())
    assert [row["p"] for row in sweep["summary"]] == [0.0, 0.2, 0.5]
    assert len(sweep["runs"]) == 3
    printed = capsys.readouterr().out
    assert "sep(overlap)" in printed


@pytest.mark.parametrize("flags, message", [
    (["--num-seeds", "0"], "--num-seeds"),
    (["--p-grid", "0.2,x"], "list of numbers"),
    (["--p-grid", "1.5"], "distinct values in [0, 1]"),
    (["--p-grid", "0.2,0.2"], "distinct values in [0, 1]"),
    pytest.param(["--num-speakers", "1"], "argument --num-speakers: must be >= 2, got 1",
                 id="flags4---num-speakers >= 2"),
    pytest.param(["--utts-per-speaker", "1"], "argument --utts-per-speaker: must be >= 2, got 1",
                 id="flags5---utts-per-speaker >= 2"),
])
def test_sweep_mix_bad_input_is_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "sweep"
    assert main(["sweep-mix", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()          # refused before anything is built or written


NO_SCIPY_CHILD = """
import json
import sys

refused = []


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            refused.append(name)
            raise ImportError(f"this process refuses to import {name}")
        return None


sys.meta_path.insert(0, RefuseScipy())
sys.path.insert(0, sys.argv[1])
from speechssl import cli

out, tiny = sys.argv[2], json.loads(sys.argv[3])
manifest, checkpoint = out + "/corpus/manifest.jsonl", out + "/run/checkpoint_final"
for argv in (["synth", "--out", out + "/corpus", "--num-speakers", "3",
              "--utts-per-speaker", "3", "--duration", "0.1", "--seed", "0"],
             ["mfcc", "--manifest", manifest, "--out", out + "/features"],
             ["cluster", "--features", out + "/features", "--out", out + "/cluster", "--k", "4"],
             ["mix", "--manifest", manifest, "--out", out + "/mixed"],
             ["pretrain", "--manifest", manifest, "--labels", out + "/cluster/labels.jsonl",
              "--out", out + "/run", "--steps", "2", *tiny],
             ["probe", "--checkpoint", checkpoint, "--manifest", manifest,
              "--out", out + "/probe", "--probe-steps", "5"],
             ["recluster", "--checkpoint", checkpoint, "--manifest", manifest,
              "--out", out + "/recluster", "--k", "4"],
             ["gradcheck", "--coords", "5"]):
    assert cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded and not refused, (loaded, refused)
"""


def test_no_command_loads_scipy(tmp_path):
    # a fresh interpreter that cannot import scipy: this one has loaded it
    # through the tests that use it as an oracle
    src = str(Path(speechssl.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, src, str(tmp_path),
                           json.dumps(TINY_MODEL_SETS)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
