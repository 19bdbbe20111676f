import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import speechssl
from speechssl.cli import main
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
    ([1], "must hold a JSON object", 2),
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
    ({"warmup_frac": -1}, "config key 'warmup_frac' must lie in [0, 1], got -1.0", 1),
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
    ({"mfcc": {"window": 600}}, "config key mfcc.window 600 must not exceed fft_size 512", 1),
    ({"mfcc": {"num_ceps": 40}}, "config key mfcc.num_ceps 40 must not exceed num_mel 26", 1),
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
        "removed-tau-end", "removed-preemphasis", "removed-floor", "zero-ffn-dim",
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
                                 "mfcc.preemphasis", "mfcc.floor"])
def test_set_removed_width_key_is_usage_error(tmp_path, capsys, key):
    # the encoder input width is mfcc.dim and both quantizer widths are
    # encoder.model_dim; soft quantization is the gradient check's mode
    assert main(["pretrain", "--manifest", "whatever.jsonl", "--labels", "whatever.jsonl",
                 "--out", str(tmp_path / "run"), "--set", f"{key}=1"]) == 2
    assert f"unknown config key: {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("duration", ["nan", "inf", "0"])
def test_synth_bad_duration_exits_1(tmp_path, capsys, duration):
    assert main(["synth", "--out", str(tmp_path / "corpus"), "--duration", duration]) == 1
    assert "duration" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


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


# count flags are refused while parsing (exit 2); the ids are the cases'
# names from when the library's own checks refused them (exit 1)
@pytest.mark.parametrize("command, flags, named", [
    pytest.param("cluster", ["--k", "0"], "argument --k: must be >= 1, got 0",
                 id="cluster-flags0-k=0"),
    pytest.param("cluster", ["--restarts", "0"], "argument --restarts: must be >= 1, got 0",
                 id="cluster-flags1-restarts=0"),
    pytest.param("recluster", ["--k", "0"], "argument --k: must be >= 1, got 0",
                 id="recluster-flags2-k=0"),
    pytest.param("cluster", ["--max-iters", "-1"], "argument --max-iters: must be >= 0, got -1",
                 id="cluster-flags3-max_iters=-1"),
    pytest.param("recluster", ["--layer", "-1"], "argument --layer: must be >= 0, got -1",
                 id="recluster-layer=-1"),
])
def test_k_or_restarts_zero_exits_1(pipeline, tmp_path, capsys, command, flags, named):
    inputs = {"cluster": ["--features", str(pipeline / "features")],
              "recluster": ["--checkpoint", str(pipeline / "run/checkpoint_final"),
                            "--manifest", str(pipeline / "corpus/manifest.jsonl")]}
    assert main([command, *inputs[command], "--out", str(tmp_path / "out"), *flags]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_recluster_layer_above_the_blocks_exits_1(pipeline, tmp_path, capsys):
    for layer in ("3", "9"):
        assert main(["recluster", "--checkpoint", str(pipeline / "run/checkpoint_final"),
                     "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                     "--out", str(tmp_path / "out"), "--layer", layer]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --layer {layer} exceeds the checkpoint's 2 blocks\n"
        assert not (tmp_path / "out").exists()


def test_audio_shorter_than_a_window_or_missing_exits_1(pipeline, tmp_path, capsys):
    from speechssl.corpus import Waveform, write_wav

    rows = [json.loads(l) for l in (pipeline / "corpus/manifest.jsonl").read_text().splitlines()]
    for row in rows:
        row["audio_path"] = str(pipeline / "corpus" / row["audio_path"])
    rows[3]["audio_path"] = str(tmp_path / "short.wav")
    write_wav(tmp_path / "short.wav", Waveform(np.zeros(200), 16000))
    short = tmp_path / "short.jsonl"
    short.write_text("".join(json.dumps(row) + "\n" for row in rows))
    rows[3]["audio_path"] = str(tmp_path / "missing.wav")
    missing = tmp_path / "missing.jsonl"
    missing.write_text("".join(json.dumps(row) + "\n" for row in rows))
    checkpoint = ["--checkpoint", str(pipeline / "run/checkpoint_final")]
    utt = rows[3]["id"]
    for command in (["mfcc"], ["probe", *checkpoint], ["recluster", *checkpoint]):
        assert main([*command, "--manifest", str(short), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: utterance {utt!r} has 200 samples, shorter than one MFCC "
                       "window (400)\n")
        assert not (tmp_path / "out").exists()
    assert main(["mfcc", "--manifest", str(missing), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "missing.wav" in err and "Traceback" not in err
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


def _bad_wav(write):
    """The fourth manifest row points at a WAV that `write(path, good_bytes)` makes."""
    def corrupt(pipeline, tmp_path):
        bad = tmp_path / "bad.wav"
        write(bad, (pipeline / "corpus/wavs/spk01_utt000.wav").read_bytes())
        rows = _manifest_rows(pipeline)
        rows[3]["audio_path"] = str(bad)
        return {"manifest": _write_jsonl(tmp_path / "bad.jsonl", rows)}, str(bad)
    return corrupt


def _bad_manifest_row(key, value):
    def corrupt(pipeline, tmp_path):
        rows = _manifest_rows(pipeline)
        rows[0][key] = value
        path = _write_jsonl(tmp_path / "bad.jsonl", rows)
        return {"manifest": path}, f"{path}:1"
    return corrupt


def _bad_label_row(edit):
    def corrupt(pipeline, tmp_path):
        rows = [json.loads(l) for l in (pipeline / "cluster/labels.jsonl").read_text().splitlines()]
        edit(rows[0])
        path = _write_jsonl(tmp_path / "bad_labels.jsonl", rows)
        return {"labels": path}, f"{path}:1: expected an integer 'k', a string 'source'"
    return corrupt


def _out_is_a_file(pipeline, tmp_path):
    (tmp_path / "out").write_text("not a directory\n")
    return {}, str(tmp_path / "out")


def _out_under_a_file(pipeline, tmp_path):
    (tmp_path / "file").write_text("not a directory\n")
    return {"out": tmp_path / "file/out"}, str(tmp_path / "file/out")


def _manifest_is_a_directory(pipeline, tmp_path):
    (tmp_path / "manifest.jsonl").mkdir()
    return {"manifest": tmp_path / "manifest.jsonl"}, str(tmp_path / "manifest.jsonl")


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
    "manifest-int-speaker": _bad_manifest_row("speaker", 5),
    "manifest-int-id": _bad_manifest_row("id", 5),
    "manifest-int-audio-path": _bad_manifest_row("audio_path", 5),
    "labels-int-source": _bad_label_row(lambda row: row.update(source=5)),
    "labels-string-k": _bad_label_row(lambda row: row.update(k="16")),
    "labels-fraction": _bad_label_row(lambda row: row["labels"].__setitem__(0, 1.5)),
    "out-is-a-file": _out_is_a_file,
    "out-under-a-file": _out_under_a_file,
    "manifest-directory": _manifest_is_a_directory,
}


def _command(name, pipeline, manifest, labels):
    checkpoint = ["--checkpoint", str(pipeline / "run/checkpoint_final")]
    return {
        "mfcc": ["mfcc", "--manifest", manifest],
        "probe": ["probe", *checkpoint, "--manifest", manifest],
        "recluster": ["recluster", *checkpoint, "--manifest", manifest],
        "pretrain": ["pretrain", "--manifest", manifest, "--labels", labels, "--steps", "2",
                     *TINY_MODEL_SETS],
        "cluster": ["cluster", "--features", str(pipeline / "features")],
        "synth": ["synth", "--num-speakers", "2", "--utts-per-speaker", "2",
                  "--duration", "0.05"],
    }[name]


# one row per (corruption, command): a later refusal adds a row here
@pytest.mark.parametrize("corruption, command", [
    ("wav-empty", "mfcc"), ("wav-header-cut", "mfcc"), ("wav-random-bytes", "mfcc"),
    ("wav-directory", "mfcc"), ("wav-data-cut", "mfcc"), ("wav-data-cut", "pretrain"),
    ("wav-no-frames", "mfcc"),
    ("wav-random-bytes", "recluster"), ("wav-empty", "probe"),
    ("manifest-int-speaker", "probe"), ("manifest-int-id", "mfcc"),
    ("manifest-int-audio-path", "mfcc"), ("labels-int-source", "pretrain"),
    ("labels-string-k", "pretrain"), ("labels-fraction", "pretrain"),
    ("out-is-a-file", "probe"), ("out-is-a-file", "cluster"), ("out-is-a-file", "synth"),
    ("out-under-a-file", "synth"), ("manifest-directory", "mfcc"),
], ids=lambda value: value)
def test_corrupt_input_is_one_error_line(pipeline, tmp_path, capsys, corruption, command):
    inputs, named = CORRUPTIONS[corruption](pipeline, tmp_path)
    manifest = str(inputs.get("manifest", pipeline / "corpus/manifest.jsonl"))
    labels = str(inputs.get("labels", pipeline / "cluster/labels.jsonl"))
    out = inputs.get("out", tmp_path / "out")
    before = out.read_bytes() if out.is_file() else None
    code = main([*_command(command, pipeline, manifest, labels), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (1, 2) and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err, err
    assert out.read_bytes() == before if before is not None else not out.exists()


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


def test_probe_refuses_untagged_utterance(pipeline, tmp_path, capsys):
    rows = [json.loads(l) for l in (pipeline / "corpus/manifest.jsonl").read_text().splitlines()]
    del rows[0]["speaker"]
    for row in rows:
        row["audio_path"] = str(pipeline / "corpus" / row["audio_path"])
    manifest = tmp_path / "untagged.jsonl"
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert main(["probe", "--checkpoint", str(pipeline / "run/checkpoint_final"),
                 "--manifest", str(manifest), "--out", str(tmp_path / "probe")]) == 1
    err = capsys.readouterr().err
    assert err == "error: utterance 'spk00_utt000' carries no speaker tag\n"
    assert not (tmp_path / "probe").exists()


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


def test_batch_larger_than_corpus_exits_1_before_writing(pipeline, tmp_path, capsys):
    assert main(["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                 "--labels", str(pipeline / "cluster/labels.jsonl"),
                 "--out", str(tmp_path / "run"), "--steps", "2", *TINY_MODEL_SETS,
                 "--set", "batch_size=10"]) == 1
    err = capsys.readouterr().err
    assert "config key 'batch_size' is 10, but the corpus holds 9 utterances" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


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


def test_pipeline_resume_refuses_bad_checkpoint(pipeline, tmp_path, capsys):
    inputs = ["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
              "--labels", str(pipeline / "cluster/labels.jsonl"), "--out", str(tmp_path)]
    stem = tmp_path / "checkpoint_final"
    assert main([*inputs, "--steps", "4", *TINY_MODEL_SETS, "--until-step", "2"]) == 0
    blob = stem.with_suffix(".bin")
    blob.write_bytes(blob.read_bytes()[:-8])
    assert main([*inputs, "--resume", str(stem)]) == 1
    assert "digest" in capsys.readouterr().err


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


def test_unreadable_labels_or_features_exit_1(pipeline, tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    rows = (pipeline / "cluster/labels.jsonl").read_text().splitlines()
    row = json.loads(rows[1])
    del row["k"]
    labels.write_text("\n".join([rows[0], json.dumps(row), *rows[2:]]) + "\n")
    assert main(["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                 "--labels", str(labels), "--out", str(tmp_path / "run"), "--steps", "1",
                 *TINY_MODEL_SETS]) == 1
    err = capsys.readouterr().err
    assert f"{labels}:2: expected an object with keys" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()

    features = tmp_path / "features"
    features.mkdir()
    for blob in (pipeline / "features").glob("spk00_utt00*"):
        (features / blob.name).write_bytes(blob.read_bytes())
    sidecar = features / "spk00_utt001.json"
    doc = json.loads(sidecar.read_text())
    del doc["T"]
    sidecar.write_text(json.dumps(doc))
    assert main(["cluster", "--features", str(features), "--out", str(tmp_path / "cluster"),
                 "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert f"cannot read feature sidecar {sidecar}: KeyError('T')" in err
    assert not (tmp_path / "cluster").exists()


def test_cluster_refuses_features_of_mixed_widths(pipeline, tmp_path, capsys):
    # one utterance extracted without deltas: 13 features beside the others' 39
    assert main(["mfcc", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                 "--out", str(tmp_path / "narrow"), "--set", "mfcc.deltas=false"]) == 0
    features = tmp_path / "features"
    features.mkdir()
    for blob in (pipeline / "features").glob("spk*"):
        (features / blob.name).write_bytes(blob.read_bytes())
    for blob in (tmp_path / "narrow").glob("spk02_utt002.*"):
        (features / blob.name).write_bytes(blob.read_bytes())
    capsys.readouterr()
    assert main(["cluster", "--features", str(features), "--out", str(tmp_path / "cluster"),
                 "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert "utterance 'spk02_utt002' has frames 13 wide, but 'spk00_utt000' has frames 39 wide" \
        in err and "Traceback" not in err
    assert not (tmp_path / "cluster").exists()


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


def test_probe_refuses_v2_or_misfit_checkpoint(pipeline, tmp_path, capsys):
    # the digest covers the blob only, so these edits leave it valid
    source = pipeline / "run/checkpoint_final"
    stem = tmp_path / "checkpoint"
    probe = ["probe", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
             "--out", str(tmp_path / "probe"), "--checkpoint", str(stem)]
    stem.with_suffix(".bin").write_bytes(source.with_suffix(".bin").read_bytes())
    floats = json.loads(source.with_suffix(".json").read_text())["blob_bytes"] // 8
    edits = {
        "unrecognized checkpoint format 'speechssl-checkpoint-v2'": lambda meta: meta.update(
            format="speechssl-checkpoint-v2"),
        "unrecognized checkpoint format 'speechssl-checkpoint-v3'": lambda meta: meta.update(
            format="speechssl-checkpoint-v3"),
        f"holds {floats} floats": lambda meta: meta["config"]["encoder"].update(
            ffn_dim=meta["config"]["encoder"]["ffn_dim"] + 1),
        "config key 'encoder' takes an object of keys": lambda meta: meta["config"].update(
            encoder=3),
    }
    for expected, edit in edits.items():
        meta = json.loads(source.with_suffix(".json").read_text())
        edit(meta)
        stem.with_suffix(".json").write_text(json.dumps(meta))
        assert main(probe) == 1
        assert expected in capsys.readouterr().err
    stem.with_suffix(".json").write_text("[]")
    assert main(probe) == 1
    assert "not a JSON object" in capsys.readouterr().err


def test_v5_checkpoint_exits_1(pipeline, tmp_path, capsys):
    # a v5 blob holds the float count a v6 config needs, with Wq, Wk and Wv
    # apart, so the format alone refuses it
    source = pipeline / "run/checkpoint_final"
    stem = tmp_path / "checkpoint"
    stem.with_suffix(".bin").write_bytes(source.with_suffix(".bin").read_bytes())
    meta = json.loads(source.with_suffix(".json").read_text())
    meta["format"] = "speechssl-checkpoint-v5"
    stem.with_suffix(".json").write_text(json.dumps(meta))
    manifest = ["--manifest", str(pipeline / "corpus/manifest.jsonl")]
    for command in (["pretrain", "--labels", str(pipeline / "cluster/labels.jsonl"),
                     "--resume", str(stem)],
                    ["probe", "--checkpoint", str(stem)]):
        assert main([*command, *manifest, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert (f"unrecognized checkpoint format 'speechssl-checkpoint-v5' in {stem}.json; "
                "this version reads 'speechssl-checkpoint-v7'") in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, named", [
    (lambda meta: meta["config"].update(steps=3.5), "config key 'steps'"),
    (lambda meta: meta["config"].update(speaker_loss="no"), "config key 'speaker_loss'"),
    (lambda meta: meta["config"]["seeds"].update(data=0.5), "config key 'seeds.data'"),
    (lambda meta: meta["config"].update(batch_size=3.0), "config key 'batch_size'"),
    (lambda meta: meta["config"]["encoder"].update(tap_layer=1.0),
     "config key 'encoder.tap_layer'"),
    (lambda meta: meta.update(step="1"), "'step' entry"),
    (lambda meta: meta.update(step=1.0), "'step' entry"),
    (lambda meta: meta.update(metrics={}), "'metrics' entry"),
    (lambda meta: meta.update(metrics=[1]), "'metrics' entry"),
    (lambda meta: [row.pop("total") for row in meta["metrics"]], "metrics row of step 1"),
], ids=["float-steps", "string-speaker-loss", "float-seed", "float-batch-size",
        "float-tap-layer", "string-step", "float-step", "object-metrics", "metrics-not-rows",
        "row-without-total"])
def test_hand_edited_checkpoint_exits_1(pipeline, tmp_path, capsys, edit, named):
    # the digest covers the blob only, so each edit leaves it valid
    source = pipeline / "run/checkpoint_final"
    stem = tmp_path / "checkpoint"
    stem.with_suffix(".bin").write_bytes(source.with_suffix(".bin").read_bytes())
    meta = json.loads(source.with_suffix(".json").read_text())
    edit(meta)
    stem.with_suffix(".json").write_text(json.dumps(meta))
    manifest = ["--manifest", str(pipeline / "corpus/manifest.jsonl")]
    for command in (["pretrain", "--labels", str(pipeline / "cluster/labels.jsonl"),
                     "--resume", str(stem)],
                    ["probe", "--checkpoint", str(stem)],
                    ["recluster", "--checkpoint", str(stem)]):
        assert main([*command, *manifest, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"{stem}.json" in err and named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("mix", "--batch-size", "0"),
    ("mix", "--batch-size", "-1"),
    ("mix", "--length", "0"),
    ("mix", "--length", "-1"),
    ("mix", "--length", "1"),
    ("gradcheck", "--coords", "0"),
    ("gradcheck", "--coords", "-3"),
    ("probe", "--probe-steps", "-1"),
])
def test_count_flag_below_minimum_is_usage_error(pipeline, tmp_path, capsys,
                                                 command, flag, value):
    inputs = {"mix": ["--manifest", str(pipeline / "corpus/manifest.jsonl"),
                      "--out", str(tmp_path / "out")],
              "probe": ["--manifest", str(pipeline / "corpus/manifest.jsonl"),
                        "--checkpoint", str(pipeline / "run/checkpoint_final"),
                        "--out", str(tmp_path / "out")],
              "gradcheck": []}
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


STARTUP_CHILD = """
import sys

sys.path.insert(0, sys.argv[1])
import numpy as np
from speechssl import cli, numerics

out = sys.argv[2]
for argv in (["synth", "--out", out + "/corpus", "--num-speakers", "2",
              "--utts-per-speaker", "3", "--duration", "0.1", "--seed", "0"],
             ["mfcc", "--manifest", out + "/corpus/manifest.jsonl", "--out", out + "/features"],
             ["cluster", "--features", out + "/features", "--out", out + "/cluster", "--k", "4"],
             ["mix", "--manifest", out + "/corpus/manifest.jsonl", "--out", out + "/mixed"]):
    assert cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded

x = np.linspace(-6.0, 6.0, 97)
gelu, _ = numerics.gelu_forward(x)
sigmoid = numerics.sigmoid(x)
assert "scipy.special" in sys.modules
import scipy.special
assert np.array_equal(gelu, x * (0.5 * (1.0 + scipy.special.erf(x / np.sqrt(2.0)))))
assert np.array_equal(sigmoid, scipy.special.expit(x))
"""


def test_commands_without_encoder_never_load_scipy(tmp_path):
    # a fresh interpreter: this one has loaded scipy through other tests
    src = str(Path(speechssl.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD, src, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
