"""The three benchmark workloads.

`pretrain-desk` and `pretrain-content` step the default 300-step schedule
of the acceptance suite's desk fixture, with and without the speaker
(contrastive + diversity) loss. `pipeline` drives the README CLI
walkthrough through `speechssl.cli.main`. Each workload returns a `Run`:
its metrics, its output checks and a record of the shapes it ran at.

All library calls go through module attributes (`trainer.train_step`, not a
bound name), so the tracer's wrappers see the harness's own calls too.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from speechssl import cli, corpus, dsp, pseudolabel, trainer
from spans import SpanStats, Tracer, layer_metrics

clock = time.perf_counter

SETUP_REPS = 3          # set-up is repeated and its median reported
PREFIX_STEPS = 3        # determinism check: steps run twice from init
SEGMENT_STEPS = 10      # pretrain "command" length for pipeline_s
PIPELINE_STEPS = 35     # --until-step of the pipeline's pretrain command
MIN_PASSES = 3          # pipeline passes per timed run: >= 105 timed steps
SAMPLE_RATE = 16000
LOSS_FIELDS = ("contrastive", "diversity", "speaker", "content", "total")


@dataclass
class Run:
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)   # (name, ok, detail)
    operations: int = 0                          # steps or CLI commands attempted
    errors: list = field(default_factory=list)   # one message per failed operation
    record: dict = field(default_factory=dict)
    tracers: dict = field(default_factory=dict)  # name -> Tracer, written out at the end

    def check(self, name: str, ok: bool, detail="") -> None:
        self.checks.append((name, bool(ok), detail))

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}


def run_seeds(seed: int) -> trainer.Seeds:
    """The six run seeds of a workload seed (the acceptance suite's rule)."""
    return trainer.Seeds(*(1000 * seed + i for i in range(6)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = clock()
    subprocess.run([sys.executable, "-c", "import speechssl.cli"], env=env, cwd=root,
                   check=True, timeout=120)
    return clock() - start


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def params_digest(state) -> str:
    h = hashlib.sha256()
    for group in (state.params, state.adam_m, state.adam_v):
        for key in sorted(group):
            h.update(key.encode())
            h.update(np.ascontiguousarray(group[key]).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Pre-training workloads


@dataclass
class Prepared:
    config: trainer.TrainConfig
    utterances: list
    labels: dict


def prepare(seed: int, speaker_loss: bool) -> Prepared:
    """The desk fixture's inputs: synthetic corpus, MFCC, k-means labels."""
    config = trainer.TrainConfig(speaker_loss=speaker_loss, seeds=run_seeds(seed))
    utts = corpus.synth_corpus(8, 16, duration=0.5, seed=seed)
    feats = {u.id: dsp.mfcc(u.waveform, config.mfcc, meta=u.id) for u in utts}
    pooled = np.concatenate([f.frames for f in feats.values()])
    km = pseudolabel.kmeans_fit(pooled, config.encoder.num_classes, seed=seed, restarts=3)
    labels = {uid: pseudolabel.assign(km, f) for uid, f in feats.items()}
    trainer.init_state(config)  # timed as set-up; each run starts from its own fresh state
    return Prepared(config, utts, labels)


def labels_digest(data: Prepared) -> str:
    doc = {uid: [seq.k, seq.source, seq.labels.tolist()] for uid, seq in data.labels.items()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass
class StepLog:
    rows: list = field(default_factory=list)      # serialized metrics rows
    totals: list = field(default_factory=list)    # total loss per step
    step_s: list = field(default_factory=list)
    segment_s: list = field(default_factory=list)
    masked: list = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    errors: list = field(default_factory=list)
    state: object = None


def run_steps(data: Prepared, steps=None, seconds=None, tracer=None) -> StepLog:
    """Step the schedule from a fresh state, as `trainer.train` does: for
    exactly `steps` steps, or until `seconds` have passed and at least one
    segment is done. Past the last scheduled step it starts again from
    init. Returns the serialized metrics rows and the timings."""
    config = data.config
    log = StepLog()
    state = trainer.init_state(config)
    start = segment_start = clock()
    while True:
        if state.step == config.steps:
            state = trainer.init_state(config)
        step = state.step + 1
        if tracer is not None:
            tracer.step = len(log.step_s) + 1
        batch = trainer.draw_batch(data.utterances, config, step)
        labels = [data.labels[u.id] for u in batch.utterances]
        log.attempted += 1
        t0 = clock()
        try:
            state, breakdown = trainer.train_step(state, batch, labels, config)
        except (FloatingPointError, ValueError) as exc:
            log.errors.append(f"step {step}: {exc}")
            break
        log.step_s.append(clock() - t0)
        record = {"step": step, "lr": trainer.learning_rate_at(step, config)}
        record.update(breakdown.as_dict())
        log.rows.append(json.dumps(record))
        if not all(math.isfinite(record[k]) for k in LOSS_FIELDS):
            log.errors.append(f"step {step}: non-finite loss {record}")
        log.totals.append(record["total"])
        log.masked.append(record["masked_frames"])
        done = len(log.step_s)
        if done % SEGMENT_STEPS == 0:
            now = clock()
            log.segment_s.append(now - segment_start)
            segment_start = now
        if steps is not None:
            if done >= steps:
                break
        elif clock() - start >= seconds and done >= SEGMENT_STEPS:
            break
    log.wall_s = clock() - start
    log.state = state
    if tracer is not None:
        tracer.step = None
    return log


def descends(totals) -> bool:
    """Mean total loss over the last quarter of `totals` is below the mean
    over the first quarter."""
    quarter = max(1, len(totals) // 4)
    return float(np.mean(totals[-quarter:])) < float(np.mean(totals[:quarter]))


def pretrain_shapes(data: Prepared, log: StepLog) -> dict:
    cfg = data.config
    frames = dsp.frame_count(cfg.utterance_length, cfg.mfcc.window, cfg.mfcc.hop)
    return {
        "B": cfg.batch_size,
        "L": cfg.utterance_length,
        "T": frames,
        "P_mean": float(np.mean(log.masked)) if log.masked else 0.0,
        "K": cfg.weights.num_negatives if cfg.speaker_loss else 0,
        "d": cfg.encoder.model_dim,
        "GV": cfg.quantizer.num_codebooks * cfg.quantizer.num_entries,
        "num_layers": cfg.encoder.num_layers,
        "schedule_steps": cfg.steps,
        "speaker_loss": cfg.speaker_loss,
        "utterances": len(data.utterances),
    }


def _check_steps(run: Run, log: StepLog, label: str) -> None:
    run.operations += log.attempted
    run.errors += [f"{label}: {error}" for error in log.errors]


def pretrain(root: Path, seed: int, seconds: int, trace: bool, speaker_loss: bool) -> Run:
    run = Run()
    if not trace:
        setup_s = []
        for _ in range(SETUP_REPS):
            imported = import_seconds(root)
            start = clock()
            data = prepare(seed, speaker_loss)
            setup_s.append(imported + clock() - start)
        prefix = run_steps(data, steps=PREFIX_STEPS)
        _check_steps(run, prefix, "prefix")
        log = run_steps(data, seconds=seconds)
        _check_steps(run, log, "timed")
        run.check("determinism: same-seed prefix rows byte-identical",
                  prefix.rows == log.rows[:PREFIX_STEPS])
        first_pass = log.totals[: data.config.steps]
        run.check("loss descends over the timed steps", descends(first_pass),
                  f"{len(first_pass)} steps")
        audio_s = len(log.step_s) * data.config.batch_size * data.config.utterance_length
        run.metric("setup_s", statistics.median(setup_s), "s")
        run.metric("step_ms_p50", percentile(log.step_s, 50) * 1e3, "ms")
        run.metric("step_ms_p90", percentile(log.step_s, 90) * 1e3, "ms")
        run.metric("audio_s_per_s", audio_s / SAMPLE_RATE / log.wall_s, "s/s")
        run.metric("pipeline_s", statistics.median(log.segment_s), "s")
        run.metric("peak_rss_mb", peak_rss_mib(), "MiB")
        run.record.update(samples={"steps": len(log.step_s), "segments": len(log.segment_s),
                                   "setups": SETUP_REPS},
                          shapes=pretrain_shapes(data, log))
        return run

    data = prepare(seed, speaker_loss)
    with Tracer() as setup_tracer:
        traced_data = prepare(seed, speaker_loss)
    run.check("traced set-up labels byte-identical to untraced",
              labels_digest(traced_data) == labels_digest(data))
    _check_steps(run, run_steps(data, steps=PREFIX_STEPS), "warm-up")
    plain = run_steps(data, seconds=max(1, seconds / 2))
    _check_steps(run, plain, "untraced")
    tracer = Tracer()
    with tracer:
        traced = run_steps(data, steps=len(plain.step_s), tracer=tracer)
    _check_steps(run, traced, "traced")
    run.check("traced metrics rows byte-identical to untraced", traced.rows == plain.rows)
    run.check("traced parameters and Adam state identical to untraced",
              params_digest(traced.state) == params_digest(plain.state))
    steps = len(traced.step_s)
    run.metrics.update(layer_metrics([(SpanStats(tracer.spans), steps),
                                      (SpanStats(setup_tracer.spans), 1)]))
    run.metric("trace.overhead_ms", (traced.wall_s - plain.wall_s) / steps * 1e3, "ms")
    run.metric("trace.spans", len(tracer.spans) / steps, "count")
    run.record.update(samples={"traced_steps": steps, "traced_setups": 1},
                      shapes=pretrain_shapes(data, traced))
    run.tracers = {"setup": setup_tracer, "steps": tracer}
    return run


# ---------------------------------------------------------------------------
# Pipeline workload


def pipeline_commands(work: Path, seed: int) -> list:
    """The README CLI walkthrough, with pretrain cut to PIPELINE_STEPS."""
    manifest = str(work / "corpus" / "manifest.jsonl")
    ckpt = str(work / "pretrain" / "checkpoint_final")
    s = str(seed)
    run_seed_flags = []
    for name, value in asdict(run_seeds(seed)).items():
        run_seed_flags += [f"--seed-{name}", str(value)]
    return [
        ["synth", "--out", str(work / "corpus"), "--num-speakers", "8",
         "--utts-per-speaker", "16", "--duration", "0.5", "--seed", s],
        ["mfcc", "--manifest", manifest, "--out", str(work / "features")],
        ["cluster", "--features", str(work / "features"), "--out", str(work / "cluster"),
         "--k", "16", "--seed", s],
        ["mix", "--manifest", manifest, "--out", str(work / "mixed"), "--p", "0.5",
         "--seed", s],
        ["pretrain", "--manifest", manifest, "--labels", str(work / "cluster" / "labels.jsonl"),
         "--out", str(work / "pretrain"), "--until-step", str(PIPELINE_STEPS)]
        + run_seed_flags,
        ["probe", "--checkpoint", ckpt, "--manifest", manifest, "--out", str(work / "probe")],
        ["recluster", "--checkpoint", ckpt, "--manifest", manifest,
         "--out", str(work / "cluster2"), "--k", "16", "--seed", s],
        ["gradcheck", "--seed", s],
    ]


def artifacts_ok(command: str, work: Path, stdout: str) -> str:
    """Returns "" when `command` wrote what it should, else the problem."""
    num_utts = 8 * 16
    if command == "synth":
        if len(list(work.glob("corpus/wavs/*.wav"))) != num_utts:
            return "expected 128 WAVs"
        return "" if (work / "corpus" / "manifest.jsonl").is_file() else "no manifest"
    if command == "mfcc":
        if len(list(work.glob("features/*.f32"))) != num_utts:
            return "expected 128 feature blobs"
        return ""
    if command in ("cluster", "recluster"):
        out = work / ("cluster" if command == "cluster" else "cluster2")
        lines = (out / "labels.jsonl").read_text().splitlines()
        if len(lines) != num_utts or not (out / "kmeans.f32").is_file():
            return "labels or k-means model missing"
        return ""
    if command == "mix":
        if "verification passed" not in stdout:
            return "mix verification did not pass"
        return "" if (work / "mixed" / "mixspecs.jsonl").is_file() else "no mix specs"
    if command == "pretrain":
        rows = [json.loads(line) for line in
                (work / "pretrain" / "metrics.jsonl").read_text().splitlines()]
        if len(rows) != PIPELINE_STEPS:
            return f"{len(rows)} metrics rows, expected {PIPELINE_STEPS}"
        if not all(math.isfinite(r[k]) for r in rows for k in LOSS_FIELDS):
            return "non-finite loss"
        if not descends([r["total"] for r in rows]):
            return "loss did not descend"
        if not (work / "pretrain" / "checkpoint_final.bin").is_file():
            return "no final checkpoint"
        return ""
    if command == "probe":
        report = json.loads((work / "probe" / "probe.json").read_text())
        return "" if report.get("layer_weights") else "empty probe report"
    if command == "gradcheck":
        lines = stdout.strip().splitlines()
        return "" if lines and lines[-1] == "PASS" else "gradcheck did not print PASS"
    return f"unknown command {command}"


def artifacts_digest(work: Path) -> dict:
    """sha256 of every artifact; run_manifest.json records wall time and
    paths, so it is the one file allowed to differ between runs."""
    return {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file() and p.name != "run_manifest.json"
    }


@dataclass
class PassLog:
    wall_s: float
    command_s: dict
    digest: dict
    problems: list


def run_pipeline(work: Path, seed: int) -> PassLog:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command_s = {}
    problems = []
    start = clock()
    for argv in pipeline_commands(work, seed):
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        command_s[argv[0]] = clock() - t0
        problem = f"exit code {code}: {err.getvalue().strip()}" if code != 0 else ""
        if not problem:
            try:
                problem = artifacts_ok(argv[0], work, out.getvalue())
            except (OSError, ValueError, KeyError) as exc:
                problem = f"artifact check raised {exc!r}"
        if problem:
            problems.append(f"{argv[0]}: {problem}")
    wall_s = clock() - start
    digest = artifacts_digest(work)
    shutil.rmtree(work, ignore_errors=True)
    return PassLog(wall_s, command_s, digest, problems)


def _check_passes(run: Run, passes: list, label: str) -> None:
    for p in passes:
        run.operations += len(p.command_s)
        run.errors += [f"{label}: {problem}" for problem in p.problems]
    for i, p in enumerate(passes[1:], start=1):
        run.check(f"{label}: pass {i} artifacts byte-identical to pass 0",
                  p.digest == passes[0].digest)


def pipeline(root: Path, seed: int, seconds: int, trace: bool) -> Run:
    run = Run()
    work_root = root / ".perfbench_work" / f"pipeline-{os.getpid()}"
    try:
        if not trace:
            return _pipeline_timed(run, root, work_root, seed, seconds)
        return _pipeline_traced(run, work_root, seed, seconds)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()


def _pipeline_timed(run: Run, root: Path, work_root: Path, seed: int, seconds: int) -> Run:
    setup_s = []
    for _ in range(SETUP_REPS):
        imported = import_seconds(root)
        start = clock()
        shutil.rmtree(work_root, ignore_errors=True)
        work_root.mkdir(parents=True)
        setup_s.append(imported + clock() - start)
    # Times each train_step inside the pretrain command; the only wrapper
    # installed in an untraced run.
    timer = Tracer(only={"trainer.train_step"})
    passes = []
    start = clock()
    with timer:
        while len(passes) < MIN_PASSES or clock() - start < seconds:
            passes.append(run_pipeline(work_root / f"pass{len(passes)}", seed))
            if len(passes) == 2:
                # Heap fragmentation lets the peak creep with each further
                # pass, so the peak is taken after the first two.
                peak = peak_rss_mib()
    _check_passes(run, passes, "pipeline")
    step_s = [span[2] - span[1] for span in timer.spans]
    cfg = trainer.TrainConfig()
    audio_s = len(step_s) * cfg.batch_size * cfg.utterance_length / SAMPLE_RATE
    pretrain_s = sum(p.command_s["pretrain"] for p in passes)
    run.metric("setup_s", statistics.median(setup_s), "s")
    run.metric("step_ms_p50", percentile(step_s, 50) * 1e3, "ms")
    run.metric("step_ms_p90", percentile(step_s, 90) * 1e3, "ms")
    run.metric("audio_s_per_s", audio_s / pretrain_s, "s/s")
    run.metric("pipeline_s", statistics.median(p.wall_s for p in passes), "s")
    run.metric("peak_rss_mb", peak, "MiB")
    run.record.update(
        samples={"passes": len(passes), "steps": len(step_s), "setups": SETUP_REPS},
        command_s_median={c: statistics.median(p.command_s[c] for p in passes)
                          for c in passes[0].command_s},
    )
    return run


def _pipeline_traced(run: Run, work_root: Path, seed: int, seconds: int) -> Run:
    tracer = Tracer()
    plain, traced = [], []
    start = clock()
    while len(traced) < 1 or clock() - start < seconds:
        plain.append(run_pipeline(work_root / f"pass{len(plain) + len(traced)}", seed))
        with tracer:
            traced.append(run_pipeline(work_root / f"pass{len(plain) + len(traced)}", seed))
    _check_passes(run, plain + traced, "pipeline (untraced then traced)")
    run.metrics.update(layer_metrics([(SpanStats(tracer.spans), len(traced))]))
    overhead = (statistics.median(p.wall_s for p in traced)
                - statistics.median(p.wall_s for p in plain))
    run.metric("trace.overhead_ms", overhead * 1e3, "ms")
    run.metric("trace.spans", len(tracer.spans) / len(traced), "count")
    run.record.update(samples={"untraced_passes": len(plain), "traced_passes": len(traced)})
    run.tracers = {"pipeline": tracer}
    return run
