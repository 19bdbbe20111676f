"""Command line entry point.

One binary, subcommand style: synth, mfcc, cluster, mix, pretrain,
recluster, probe, gradcheck, sweep-mix. All randomness is surfaced as named
seed flags; there is no hidden global RNG. Each command returns its config
document, seeds and outputs, and `main` writes them with the wall time and
the input paths to a run_manifest.json with a platform-stable config hash.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .ablate import desk_setup, run_grid
from .augment import mix_batch, save_mixspecs, verify_spec
from .corpus import (
    SAMPLE_RATE,
    UtteranceRef,
    load_manifest,
    make_batch,
    read_json,
    synth_corpus,
    write_manifest,
    write_wav,
)
from .dsp import MfccConfig, load_features, mfcc, save_features
from .pseudolabel import (
    fit_labels,
    load_labels,
    recluster_from_embeddings,
    save_kmeans,
    save_labels,
)
from .probe import ascii_bar_chart, layer_profile, utterance_means
from .trainer import (
    GRADCHECK_TOL,
    Seeds,
    TrainConfig,
    grad_check,
    init_state,
    load_checkpoint,
    mean_total_last_tenth,
    tiny_config,
    train,
)

USAGE_EXIT = 2


class UsageError(Exception):
    """Bad command-line input (unknown config key, malformed override)."""


# the flags that name a file or directory a command reads
INPUT_FLAGS = ("manifest", "labels", "features", "checkpoint", "resume", "config")


def write_run_manifest(args, config_dict: dict, seeds: dict, outputs: list,
                       started: float) -> None:
    """run_manifest.json in the command's --out directory: the command, its
    config hash, seeds, the input paths it was given, outputs and wall time."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": args.command,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seeds": seeds,
        "inputs": [str(getattr(args, name)) for name in INPUT_FLAGS
                   if getattr(args, name, None)],
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _merge(base: dict, extra: dict) -> dict:
    """Merge `extra` into `base`, section by section; a value replaces what
    `base` holds at its key. TrainConfig.from_dict checks the result."""
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def build_train_config(args) -> TrainConfig:
    data = read_json(args.config, "--config", UsageError) if args.config else {}
    for item in args.set or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects key=value, got {item!r}")
        try:
            override = json.loads(raw)
        except json.JSONDecodeError:
            override = raw
        for part in reversed(key.split(".")):
            override = {part: override}
        _merge(data, override)
    try:
        return TrainConfig.from_dict(data)
    except TypeError as exc:
        raise UsageError(str(exc)) from None


def load_corpus(manifest_path, mfcc_cfg: MfccConfig | None = None):
    """Yield the manifest's utterances as they load, refusing by name one not
    at SAMPLE_RATE or, given the MFCC config they meet, shorter than its window."""
    for ref in load_manifest(manifest_path):
        utt = ref.load()
        if utt.waveform.sample_rate != SAMPLE_RATE:
            raise ValueError(f"utterance {utt.id!r} is sampled at {utt.waveform.sample_rate} "
                             f"Hz, but the MFCC sample counts assume {SAMPLE_RATE} Hz")
        if mfcc_cfg is not None and len(utt.waveform) < mfcc_cfg.window:
            raise ValueError(f"utterance {utt.id!r} has {len(utt.waveform)} samples, "
                             f"shorter than one MFCC window ({mfcc_cfg.window})")
        yield utt


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args):
    corpus = synth_corpus(args.num_speakers, args.utts_per_speaker,
                          duration=args.duration, seed=args.seed)
    out = Path(args.out)
    wav_dir = out / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    refs = []
    for utt in corpus:
        write_wav(wav_dir / f"{utt.id}.wav", utt.waveform)
        # audio paths are stored relative to the manifest, keeping the corpus
        # directory relocatable; load_manifest resolves them on read
        refs.append(UtteranceRef(utt.id, Path("wavs") / f"{utt.id}.wav", utt.speaker))
    manifest_path = out / "manifest.jsonl"
    write_manifest(manifest_path, refs)
    cfg = {"num_speakers": args.num_speakers, "utts_per_speaker": args.utts_per_speaker,
           "duration": args.duration, "sample_rate": SAMPLE_RATE}
    print(f"wrote {len(refs)} utterances to {wav_dir} (manifest: {manifest_path})")
    return cfg, {"seed": args.seed}, [manifest_path]


def cmd_mfcc(args):
    cfg = build_train_config(args).mfcc
    features = {utt.id: mfcc(utt.waveform, cfg, meta=utt.id)   # before --out is made
                for utt in load_corpus(args.manifest, cfg)}
    out = Path(args.out)
    for uid, feats in features.items():
        save_features(out, uid, feats)
    print(f"extracted features for {len(features)} utterances into {out}")
    return asdict(cfg), {}, [out / f"{uid}.f32" for uid in features]


def cmd_cluster(args):
    feature_dir = Path(args.features)
    ids = sorted(p.stem for p in feature_dir.glob("*.json") if p.stem != "run_manifest")
    if not ids:
        raise UsageError(f"no feature sidecars found in {feature_dir}")
    frames = {uid: load_features(feature_dir, uid).frames for uid in ids}
    model, labels = fit_labels(frames, args.k, seed=args.seed, restarts=args.restarts,
                               max_iters=args.max_iters)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    labels_path = out / "labels.jsonl"
    save_labels(labels_path, labels)
    save_kmeans(out / "kmeans", model)
    print(f"k-means: k={args.k} inertia={model.inertia:.2f} "
          f"iters={model.iterations_run}; labels: {labels_path}")
    cfg = {"k": args.k, "max_iters": args.max_iters, "restarts": args.restarts}
    return cfg, {"seed": args.seed}, [labels_path]


def cmd_mix(args):
    corpus = list(load_corpus(args.manifest))
    batch_size = args.batch_size or len(corpus)
    length = args.length or min(len(u.waveform) for u in corpus)
    batch = make_batch(corpus, batch_size, length, seed=args.seed)
    mixed = mix_batch(batch, args.p, seed=args.seed)
    problems = verify_spec(mixed)
    if problems:
        raise ValueError("mix verification failed: " + "; ".join(problems))
    out = Path(args.out)
    mixed_dir = out / "mixed"
    mixed_dir.mkdir(parents=True, exist_ok=True)
    for utt in mixed.batch.utterances:
        write_wav(mixed_dir / f"{utt.id}.wav", utt.waveform)
    specs_path = out / "mixspecs.jsonl"
    save_mixspecs(specs_path, 0, mixed.specs)
    print(f"mixed {len(mixed.specs)} of {batch_size} utterances; "
          f"specs: {specs_path}; verification passed")
    cfg = {"p": args.p, "batch_size": batch_size, "length": length}
    return cfg, {"seed": args.seed}, [specs_path]


def cmd_pretrain(args):
    if args.resume and (args.config or args.set):
        raise UsageError("--resume continues with the checkpoint's config; give no "
                         "--config, --set, --steps or --seed-* flags with it")
    state = load_checkpoint(args.resume) if args.resume else init_state(build_train_config(args))
    out = Path(args.out)
    state = train(state, list(load_corpus(args.manifest)), load_labels(args.labels),
                  out_dir=out, until_step=args.until_step)
    tail = state.metrics[-1]
    print(f"trained to step {state.step}: total={tail['total']:.4f} "
          f"content={tail['content']:.4f} contrastive={tail['contrastive']:.4f}")
    return (state.config.to_dict(), asdict(state.config.seeds),
            [out / "metrics.jsonl", out / "checkpoint_final.json"])


def cmd_recluster(args):
    ckpt = load_checkpoint(args.checkpoint)
    enc = ckpt.config.encoder
    layer = args.layer if args.layer is not None else enc.tap_layer
    if layer > enc.num_layers:
        raise ValueError(f"--layer {layer} exceeds the checkpoint's {enc.num_layers} blocks")
    corpus = list(load_corpus(args.manifest, ckpt.config.mfcc))
    k = args.k if args.k is not None else enc.num_classes
    model, labels = recluster_from_embeddings(ckpt, corpus, layer, k, seed=args.seed,
                                              restarts=args.restarts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    labels_path = out / "labels.jsonl"
    save_labels(labels_path, labels)
    save_kmeans(out / "kmeans", model)
    print(f"re-clustered layer {layer} embeddings: k={k} "
          f"inertia={model.inertia:.2f}; labels: {labels_path}")
    cfg = {"layer": layer, "k": k, "restarts": args.restarts}
    return cfg, {"seed": args.seed}, [labels_path]


def cmd_probe(args):
    ckpt = load_checkpoint(args.checkpoint)
    corpus = list(load_corpus(args.manifest, ckpt.config.mfcc))
    weights, accuracy, separability = layer_profile(*utterance_means(ckpt, corpus),
                                                    steps=args.probe_steps, seed=args.seed)
    profile = {str(layer): float(w) for layer, w in enumerate(weights)}
    report = {
        "layer_weights": profile,
        "task_accuracy": accuracy,
        "separability": {str(k): v for k, v in separability.items()},
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "probe.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print("layer-contribution profile (speaker task):")
    print(ascii_bar_chart({f"layer {k}": v for k, v in profile.items()}))
    print("\nper-layer speaker separability:")
    print(ascii_bar_chart({f"layer {k}": v for k, v in separability.items()}))
    return {"probe_steps": args.probe_steps}, {"seed": args.seed}, [report_path]


def cmd_gradcheck(args):
    size = init_state(tiny_config(args.seed)).params.flat.size
    if args.coords > size:
        raise ValueError(f"--coords {args.coords} exceeds the checked config's {size} parameters")
    report = grad_check(seed=args.seed, num_coords=args.coords)
    print(f"checked {report.num_coords} coordinates across "
          f"{len(report.per_group)} parameter groups")
    worst = sorted(report.per_group.items(), key=lambda kv: -kv[1])[:8]
    for name, err in worst:
        print(f"  {name:<24s} max rel err {err:.3e}")
    print(f"max relative error: {report.max_rel_error:.3e} (tolerance {GRADCHECK_TOL:.0e})")
    if not report.ok():
        raise ValueError("FAIL: gradient check exceeded tolerance")
    print("PASS")
    return None                         # no --out, so no run manifest


def cmd_sweep_mix(args):
    try:
        grid = [float(item) for item in args.p_grid.split(",")]
    except ValueError:
        raise UsageError(f"--p-grid {args.p_grid!r} is not a list of numbers") from None
    if not all(0.0 <= p <= 1.0 for p in grid) or len(set(grid)) < len(grid):
        raise UsageError(f"--p-grid {args.p_grid!r} must hold distinct values in [0, 1]")
    base = build_train_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    setup = desk_setup(base, args.num_speakers, args.utts_per_speaker, seed=args.corpus_seed)
    seeds = list(range(args.num_seeds))
    runs = run_grid(setup, [(p, base.speaker_loss) for p in grid], seeds)
    rows = []
    for (p, _, seed), run in runs.items():
        rows.append({
            "p": p,
            "seed": seed,
            "final_total": run.metrics[-1]["total"],
            "mean_total_last_tenth": mean_total_last_tenth(run.metrics),
            "separability_clean": run.separability_clean,
            "separability_overlap": run.separability_overlap,
        })
        print(f"p={p} seed={seed}: total={rows[-1]['final_total']:.4f} "
              f"sep_clean={rows[-1]['separability_clean']:.3f} "
              f"sep_overlap={rows[-1]['separability_overlap']:.3f}")
    summary = [{"p": p, **{f"mean_{key}": float(np.mean([r[key] for r in rows if r["p"] == p]))
                           for key in ("final_total", "separability_clean",
                                       "separability_overlap")}}
               for p in grid]
    (out / "sweep.json").write_text(json.dumps({"runs": rows, "summary": summary},
                                               indent=2) + "\n")
    print(f"\n{'p':>5s} {'total':>9s} {'sep(clean)':>11s} {'sep(overlap)':>13s}")
    for row in summary:
        print(f"{row['p']:>5.2f} {row['mean_final_total']:>9.4f} "
              f"{row['mean_separability_clean']:>11.3f} "
              f"{row['mean_separability_overlap']:>13.3f}")
    return (base.to_dict(), {"corpus_seed": args.corpus_seed, "run_seeds": seeds},
            [out / "sweep.json"])


# ---------------------------------------------------------------------------
# Argument parsing


def _int_at_least(low: int):
    """An argparse type: an integer of at least `low`, else a usage error
    naming the flag, raised while parsing, before the command runs."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON config file (full or partial)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key, e.g. --set encoder.num_layers=2")


class _SetShorthand(argparse.Action):
    """`--steps N` is `--set steps=N` and `--seed-<name> N` is `--set
    seeds.<name>=N`: one list of overrides, applied in command-line order."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.set = (namespace.set or []) + [f"{self.const}={value}"]


def _add_train_config_flags(parser):
    _add_config_flags(parser)
    parser.add_argument("--steps", type=int, action=_SetShorthand, dest="set",
                        const="steps", metavar="N", help="override training steps")
    for seed in fields(Seeds):
        parser.add_argument(f"--seed-{seed.name}", type=int, action=_SetShorthand, dest="set",
                            const=f"seeds.{seed.name}", metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechssl",
        description="Desk-scale self-supervised speech pre-training with "
                    "speaker-aware losses and overlap augmentation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-speaker corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--num-speakers", type=_int_at_least(1), default=8)
    p.add_argument("--utts-per-speaker", type=_int_at_least(1), default=16)
    p.add_argument("--duration", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mfcc", help="extract MFCC features for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)                # reads the mfcc section
    p.set_defaults(func=cmd_mfcc)

    p = sub.add_parser("cluster", help="fit k-means pseudo-labels on features")
    p.add_argument("--features", required=True, help="directory written by `mfcc`")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_int_at_least(1), default=16)
    p.add_argument("--max-iters", type=_int_at_least(0), default=100)
    p.add_argument("--restarts", type=_int_at_least(1), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("mix", help="mix a batch and dump WAVs + specs for inspection")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--batch-size", type=_int_at_least(1))
    p.add_argument("--length", type=_int_at_least(2))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("pretrain", help="run masked pseudo-label pre-training")
    p.add_argument("--manifest", required=True)
    p.add_argument("--labels", required=True, help="labels.jsonl from `cluster`")
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="checkpoint stem to resume from")
    p.add_argument("--until-step", type=_int_at_least(1), help="stop early at this step")
    _add_train_config_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("recluster", help="re-cluster encoder-layer embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layer", type=_int_at_least(0))
    p.add_argument("--k", type=_int_at_least(1))
    p.add_argument("--restarts", type=_int_at_least(1), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_recluster)

    p = sub.add_parser("probe", help="layer-weight profile and separability report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--probe-steps", type=_int_at_least(0), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords", type=_int_at_least(1), default=240,
                   help="coordinates to check; below the parameter group count, one per group")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep-mix", help="train at p in a mixing-ratio grid and compare")
    p.add_argument("--out", required=True)
    p.add_argument("--p-grid", default="0.0,0.2,0.5")
    p.add_argument("--num-seeds", type=_int_at_least(1), default=3)
    # speaker separability needs two speakers and two utterances of each
    p.add_argument("--num-speakers", type=_int_at_least(2), default=8)
    p.add_argument("--utts-per-speaker", type=_int_at_least(2), default=16)
    p.add_argument("--corpus-seed", type=int, default=0)
    _add_train_config_flags(p)
    p.set_defaults(func=cmd_sweep_mix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    started = time.monotonic()
    try:
        out = Path(getattr(args, "out", None) or ".")     # gradcheck takes no --out
        if out.exists() and not out.is_dir():
            raise ValueError(f"--out {out} exists and is not a directory")
        record = args.func(args)        # (config dict, seeds, outputs), or None
        if record is not None:
            write_run_manifest(args, *record, started)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
