"""speechssl benchmark.

    python3 perfbench/run.py --workload pretrain-desk --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1. The line before it holds the record of the run (environment,
shapes, sample counts, checks). See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# The benchmark directory holds only its own sources: no bytecode caches.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("pretrain-desk", "pretrain-content", "pipeline")
DEFAULT_SEED = 0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "speechssl" / "__init__.py").is_file():
        print(f"error: speechssl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, pinned through the environment before numpy loads;
    # the import-time subprocesses inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    started = time.perf_counter()
    if args.workload == "pipeline":
        run = workloads.pipeline(ROOT, args.seed, args.seconds, bool(args.trace))
    else:
        run = workloads.pretrain(ROOT, args.seed, args.seconds, bool(args.trace),
                                 speaker_loss=args.workload == "pretrain-desk")
    failed_checks = [c for c in run.checks if not c[1]]
    result = {
        "correct": not run.errors and not failed_checks,
        "attempted": run.operations + len(run.checks),
        "failed": len(run.errors) + len(failed_checks),
        "metrics": run.metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_default": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "environment": environment(),
        **run.record,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
        "errors": run.errors,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for name, tracer in run.tracers.items():
        tracer.write(OUT_DIR / f"{stem}-{name}.spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def smoke(args) -> int:
    """Every workload, untraced and traced, at minimal length with all
    checks on; each result must match BENCHMARK.json's metric list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", "1", "--trace", str(trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != RESULT_KEYS:
                    problems.append(f"result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed"):
                    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
                    problems.append(f"checks failed: {record['errors']} "
                                    f"{[c for c in record['checks'] if not c['ok']]}")
                metrics = result.get("metrics", {})
                if set(metrics) != {m["name"] for m in expected}:
                    problems.append(f"metric names differ: {sorted(metrics)}")
                for m in expected:
                    got = metrics.get(m["name"], {})
                    if got.get("unit") != m["unit"]:
                        problems.append(f"{m['name']}: unit {got.get('unit')!r}")
                    if trace == 0 and not got.get("value", 0) > 0:
                        problems.append(f"{m['name']}: value {got.get('value')!r}")
            all_ok &= not problems
            print(f"{workload:<17s} trace={trace} {'ok' if not problems else 'FAIL'} "
                  f"({time.perf_counter() - start:.1f} s)")
            for problem in problems:
                print(f"    {problem}")
    print("smoke: PASS" if all_ok else "smoke: FAIL")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="speechssl benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; corpus and run seeds derive from it")
    parser.add_argument("--seconds", type=int, default=25, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimal length with all checks")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
