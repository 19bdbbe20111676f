"""Span tracing of the speechssl package from outside the library.

`Tracer.install()` replaces every public module-level function of the
package's modules with a timing wrapper, at every module attribute that
holds it. Callers bind names at import (`from .losses import
contrastive_loss`), so each importing module's copy of the name is replaced
too, not only the defining module's. `uninstall()` puts the originals back.

A span is (name, start, end, parent, step, counts). `step` is whatever the
harness last set in `Tracer.step`; `counts` holds work counts read from the
call's arguments and result by the COUNTERS table below. Spans stay in
memory until the harness writes them out.
"""

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("corpus", "dsp", "augment", "encoder", "numerics", "quantizer",
           "losses", "trainer", "pseudolabel", "probe", "cli")


def _checkpoint_bytes(args, out):
    stem = Path(args[0])
    return {"bytes": sum(stem.with_suffix(s).stat().st_size for s in (".json", ".bin"))}


# Work counts recorded at the boundary where the work happens. Each reads
# only public arguments and result fields.
COUNTERS = {
    "losses.contrastive_loss": lambda args, out: {
        "positives": out.num_positives,
        "negatives": out.num_negatives,
        # bytes of the (P, K, d) float64 gather of negative vectors
        "neg_bytes": out.num_negatives * args[0][0].shape[1] * 8,
    },
    "encoder.forward": lambda args, out: {
        "frames": out.num_frames, "masked": len(out.mask),
    },
    "augment.mix_batch": lambda args, out: {
        "mixed": len(out.specs), "members": out.batch.size,
    },
    "pseudolabel.kmeans_fit": lambda args, out: {"iters": out.iterations_run},
    "trainer.save_checkpoint": _checkpoint_bytes,
}


class Tracer:
    def __init__(self, only=None):
        """`only`, if given, is the set of span names to wrap."""
        self.modules = [importlib.import_module(f"speechssl.{m}") for m in MODULES]
        self.only = only
        self.spans: list = []
        self.step = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.step, None)
            if counter is not None:
                spans[idx] = spans[idx][:5] + (counter(args, out),)
            return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    if self.only is None or name in self.only:
                        wrappers[obj] = self._wrap(name, obj)
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, step, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "step": step,
                                     "counts": counts}) + "\n")


class SpanStats:
    """Per-name totals over one tracer's spans. Self time is a span's
    duration minus the durations of its direct children."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for name, start, end, parent, step, counts in spans:
            if parent >= 0:
                child[parent] += end - start
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, step, counts) in enumerate(spans):
            if (name.startswith("numerics.") and parent >= 0
                    and spans[parent][0].startswith("encoder.")):
                name = "numerics<-encoder"
            self.total[name] += end - start
            self.self_time[name] += end - start - child[i]
            self.calls[name] += 1
            for key, value in (counts or {}).items():
                self.counts[name][key] += value


def _cli(command):
    return (f"cli.{command}_s", "s", f"cli.cmd_{command}", "total")


# (metric, unit, span name, how). `how` is "total" (inclusive time), "self"
# (self time), "calls", "count:<key>" (a COUNTERS value) or
# "ratio:<key>/<key>". Times and counts are divided by the number of steps
# or runs the spans cover; ratios are not.
LAYER_METRICS = [
    ("losses.contrastive_ms", "ms", "losses.contrastive_loss", "self"),
    ("losses.sample_negatives_ms", "ms", "losses.sample_negatives", "total"),
    ("losses.content_ms", "ms", "losses.content_loss_batch", "total"),
    ("losses.diversity_ms", "ms", "losses.diversity_loss", "total"),
    ("losses.positives", "count", "losses.contrastive_loss", "count:positives"),
    ("losses.negatives", "count", "losses.contrastive_loss", "count:negatives"),
    ("losses.neg_gather_mb", "MB", "losses.contrastive_loss", "count:neg_bytes"),
    ("encoder.forward_ms", "ms", "encoder.forward", "total"),
    ("encoder.backward_ms", "ms", "encoder.backward", "total"),
    ("encoder.sample_mask_ms", "ms", "encoder.sample_mask", "total"),
    ("encoder.forward_calls", "count", "encoder.forward", "calls"),
    ("encoder.masked_frac", "ratio", "encoder.forward", "ratio:masked/frames"),
    # numerics calls whose caller is a public encoder function
    ("numerics.calls", "count", "numerics<-encoder", "calls"),
    ("numerics.ms", "ms", "numerics<-encoder", "total"),
    ("quantizer.quantize_ms", "ms", "quantizer.quantize", "total"),
    ("quantizer.backward_ms", "ms", "quantizer.quantize_backward", "total"),
    ("quantizer.calls", "count", "quantizer.quantize", "calls"),
    ("dsp.mfcc_ms", "ms", "dsp.mfcc", "total"),
    ("dsp.mfcc_calls", "count", "dsp.mfcc", "calls"),
    ("augment.mix_batch_ms", "ms", "augment.mix_batch", "total"),
    ("augment.mixed_frac", "ratio", "augment.mix_batch", "ratio:mixed/members"),
    ("trainer.draw_batch_ms", "ms", "trainer.draw_batch", "total"),
    ("trainer.adam_update_ms", "ms", "trainer.adam_update", "total"),
    ("trainer.train_step.self_ms", "ms", "trainer.train_step", "self"),
    ("trainer.save_checkpoint_ms", "ms", "trainer.save_checkpoint", "total"),
    ("trainer.load_checkpoint_ms", "ms", "trainer.load_checkpoint", "total"),
    ("trainer.checkpoint_bytes", "bytes", "trainer.save_checkpoint", "count:bytes"),
    ("pseudolabel.kmeans_fit_ms", "ms", "pseudolabel.kmeans_fit", "total"),
    ("pseudolabel.lloyd_iters", "count", "pseudolabel.kmeans_fit", "count:iters"),
    ("pseudolabel.assign_ms", "ms", "pseudolabel.assign", "total"),
    ("pseudolabel.recluster.self_ms", "ms", "pseudolabel.recluster_from_embeddings", "self"),
    ("probe.layer_profile.self_ms", "ms", "probe.layer_profile", "self"),
    ("probe.fit_layer_weights_ms", "ms", "probe.fit_layer_weights", "total"),
    ("corpus.make_batch_ms", "ms", "corpus.make_batch", "total"),
    ("corpus.synth_corpus_ms", "ms", "corpus.synth_corpus", "total"),
    ("corpus.read_wav_ms", "ms", "corpus.read_wav", "total"),
    ("corpus.write_wav_ms", "ms", "corpus.write_wav", "total"),
] + [_cli(c) for c in ("synth", "mfcc", "cluster", "mix", "pretrain", "probe",
                       "recluster", "gradcheck")]

SCALE = {"ms": 1e3, "MB": 1e-6}


def layer_metrics(scopes) -> dict:
    """Per-layer metrics from `scopes`, a list of (SpanStats, n): each
    metric comes from the first scope that saw its span, divided by that
    scope's n (steps or runs). A span no scope saw reads 0."""
    out = {}
    for metric, unit, span, how in LAYER_METRICS:
        value = 0.0
        for stats, n in scopes:
            if not stats.calls.get(span):
                continue
            if how.startswith("ratio:"):
                num, den = how.removeprefix("ratio:").split("/")
                counts = stats.counts[span]
                value = counts[num] / counts[den] if counts[den] else 0.0
                break
            if how == "total":
                raw = stats.total[span]
            elif how == "self":
                raw = stats.self_time[span]
            elif how == "calls":
                raw = stats.calls[span]
            else:
                raw = stats.counts[span][how.removeprefix("count:")]
            value = raw * SCALE.get(unit, 1.0) / n
            break
        out[metric] = {"value": value, "unit": unit}
    return out
