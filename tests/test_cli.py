import json

import numpy as np
import pytest

from speechssl.cli import main

TINY_MODEL_SETS = [
    "--set", "batch_size=3",
    "--set", "utterance_length=1600",
    "--set", "encoder.model_dim=32",
    "--set", "encoder.num_layers=2",
    "--set", "encoder.num_heads=4",
    "--set", "encoder.ffn_dim=48",
    "--set", "encoder.tap_layer=1",
    "--set", "quantizer.latent_dim=32",
    "--set", "quantizer.out_dim=32",
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
    assert "max relative error" in out


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


def test_set_unknown_key_rejected(tmp_path):
    corpus_dir = tmp_path / "corpus"
    main(["synth", "--out", str(corpus_dir), "--num-speakers", "2",
          "--utts-per-speaker", "2", "--duration", "0.05"])
    code = main(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--labels", "whatever.jsonl", "--out", str(tmp_path / "run"),
                 "--set", "nonsense.key=1"])
    assert code == 2


@pytest.mark.parametrize("body, message", [
    ({"num_layer": 2}, "unknown config key: 'num_layer'"),
    ({"encoder": {"num_layer": 2}}, "unknown config key: 'encoder.num_layer'"),
    ({"encoder": 3}, "config key 'encoder' takes an object of keys"),
    ({"encoder": {"num_layers": {"x": 1}}},
     "config key 'encoder.num_layers' takes a single value"),
    ([1], "must hold a JSON object"),
], ids=["unknown-top-level", "unknown-nested", "scalar-section", "object-value", "not-object"])
def test_config_file_bad_key_rejected(tmp_path, capsys, body, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    code = main(["pretrain", "--manifest", "whatever.jsonl", "--labels", "whatever.jsonl",
                 "--out", str(tmp_path / "run"), "--config", str(config)])
    assert code == 2
    assert message in capsys.readouterr().err


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


def test_pipeline_feature_sidecars(pipeline):
    sidecar = json.loads((pipeline / "features/spk00_utt000.json").read_text())
    assert sidecar["D"] == 39
    assert sidecar["frame_rate"] == 100.0


def test_pipeline_labels_format(pipeline):
    first = json.loads((pipeline / "cluster/labels.jsonl").read_text().splitlines()[0])
    assert first["k"] == 16
    assert first["source"] == "mfcc"
    assert all(0 <= l < 16 for l in first["labels"])


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
    args_common = ["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                   "--labels", str(pipeline / "cluster/labels.jsonl"),
                   "--steps", "4", *TINY_MODEL_SETS]
    straight = tmp_path / "straight"
    assert main([*args_common, "--out", str(straight)]) == 0
    split = tmp_path / "split"
    assert main([*args_common, "--out", str(split), "--until-step", "2"]) == 0
    assert main([*args_common, "--out", str(split),
                 "--resume", str(split / "checkpoint_final")]) == 0
    assert (straight / "metrics.jsonl").read_bytes() == (
        split / "metrics.jsonl").read_bytes()
    assert (straight / "checkpoint_final.bin").read_bytes() == (
        split / "checkpoint_final.bin").read_bytes()


def test_pipeline_resume_refuses_bad_checkpoint(pipeline, tmp_path, capsys):
    args_common = ["pretrain", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
                   "--labels", str(pipeline / "cluster/labels.jsonl"),
                   "--steps", "4", *TINY_MODEL_SETS, "--out", str(tmp_path)]
    stem = tmp_path / "checkpoint_final"
    assert main([*args_common, "--until-step", "2"]) == 0
    assert main([*args_common, "--set", "learning_rate=0.001",
                 "--resume", str(stem)]) == 1
    assert "'learning_rate'" in capsys.readouterr().err
    blob = stem.with_suffix(".bin")
    blob.write_bytes(blob.read_bytes()[:-8])
    assert main([*args_common, "--resume", str(stem)]) == 1
    assert "digest" in capsys.readouterr().err


def test_probe_refuses_checkpoint_with_bad_manifest(pipeline, tmp_path, capsys):
    # the digest covers the blob only, so these edits leave it valid
    source = pipeline / "run/checkpoint_final"
    probe = ["probe", "--manifest", str(pipeline / "corpus/manifest.jsonl"),
             "--out", str(tmp_path / "probe")]
    def proj_w(manifest):
        return next(entry for entry in manifest if entry[0] == "param/proj/W")

    edits = {
        "entry bogus/proj/W": lambda m: proj_w(m).__setitem__(0, "bogus/proj/W"),
        "entry param/proj/W is missing": lambda m: m.remove(proj_w(m)),
    }
    for expected, edit in edits.items():
        stem = tmp_path / "checkpoint"
        stem.with_suffix(".bin").write_bytes(source.with_suffix(".bin").read_bytes())
        meta = json.loads(source.with_suffix(".json").read_text())
        edit(meta["manifest"])
        stem.with_suffix(".json").write_text(json.dumps(meta))
        assert main([*probe, "--checkpoint", str(stem)]) == 1
        assert expected in capsys.readouterr().err
    stem.with_suffix(".json").write_text("[]")
    assert main([*probe, "--checkpoint", str(stem)]) == 1
    assert "not a JSON object" in capsys.readouterr().err


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
