"""focklab benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload verify-cli --seed 0 --seconds 10 --trace 0

Runs from the root of a focklab checkout and imports the package from its
`src/`.  With `--trace 0` it measures the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and reports per-layer
metrics from the spans.  Human-readable lines go first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Spans and a full result record are written under
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
IMPORT_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify-cli", "profile-levels", "quadrature"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _cap_threads():
    """One BLAS/OpenMP thread, set before numpy loads; drop the CLI's seed override.

    On a shared 2-core machine a second BLAS thread burned 45% more CPU for no
    gain in wall time and made the timings noisier.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FOCKLAB_SEED", None)
    os.environ["PYTHONPATH"] = str(SRC)


def _import_seconds() -> float:
    """`import focklab, focklab.cli` in a fresh interpreter, timed inside it."""
    code = (
        "import time; t = time.perf_counter(); import focklab, focklab.cli; "
        "print(time.perf_counter() - t)"
    )
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _timed_pass(workload, cpu: list):
    t0, c0 = time.perf_counter(), time.process_time()
    tally = workload.run_pass()
    cpu.append(time.process_time() - c0)
    return time.perf_counter() - t0, tally


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "focklab" / "__init__.py").is_file():
        print(f"perfbench: no focklab sources under {SRC}; run from a focklab checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    _cap_threads()

    _import_seconds()  # first import may compile bytecode; not part of set-up
    setup_samples = [_import_seconds() for _ in range(IMPORT_REPEATS)]

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import focklab

    if Path(focklab.__file__).resolve().parent != (SRC / "focklab").resolve():
        print(f"perfbench: imported focklab from {focklab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    machine = {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workloads.warm_up(workdir)
        untraced, traced, tallies, cpu = [], [], [], []
        recorder = spans.Recorder()
        start = time.perf_counter()
        while True:
            wall, tally = _timed_pass(workload, cpu)
            untraced.append(wall)
            tallies.append(tally)
            if args.trace:
                restore = spans.instrument(recorder)
                try:
                    wall, tally = _timed_pass(workload, cpu)
                finally:
                    restore()
                traced.append(wall)
                tallies.append(tally)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = tallies[0]
    digests = {t.digest() for t in tallies}
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    findings = sum(t.findings for t in tallies)
    for note in dict.fromkeys(n for t in tallies for n in t.notes):
        print(f"FAILED {note}", file=sys.stderr)
    for note in dict.fromkeys(n for t in tallies for n in t.known):
        print(f"KNOWN DEFECT {note}")
    if len(digests) > 1:
        print(f"FAILED passes disagree: digests {sorted(digests)}", file=sys.stderr)
    correct = failed == 0 and len(digests) == 1

    accuracy = {
        "fail_share": (findings / attempted, "share"),
        "max_rel_err": (max((r.rel_err for r in first.rows), default=0.0), "ratio"),
        "oracle_z_max": (max((r.z for r in first.rows), default=0.0), "ratio"),
    }
    end_to_end = {
        "wall_s": (statistics.median(untraced), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    for r in first.rows:
        tag = f"  KNOWN DEFECT: {r.known_defect}" if r.known_defect else ""
        print(f"oracle {r.label:38s} est {r.estimate:.10g} exact {r.oracle:.10g} "
              f"bound {r.bound:.3g} rel {r.rel_err:.3g} z {r.z:.3g}{tag}")
    print(f"passes: untraced {[round(w, 3) for w in untraced]} traced {[round(w, 3) for w in traced]}")
    print(f"digest {first.digest()} ({'identical' if len(digests) == 1 else 'DIFFERENT'} over {len(tallies)} passes)")
    print(f"operations: {attempted} attempted, {failed} failed unexpectedly, {findings} over 3x their bound")
    for name, (value, unit) in {**end_to_end, **accuracy}.items():
        print(f"{name} = {value!r} {unit}")

    if args.trace:
        metrics = spans.layer_metrics(recorder, traced, untraced, sum(t.artifact_bytes for t in tallies[1::2]))
        metrics.update({f"accuracy.{k}": {"value": float(v), "unit": u} for k, (v, u) in accuracy.items()})
        recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        for name, m in metrics.items():
            print(f"{name} = {m['value']!r} {m['unit']}")
    else:
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in end_to_end.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "digest": first.digest(), "untraced_s": untraced, "traced_s": traced, "cpu_s": cpu,
        "setup_samples_s": setup_samples, "accuracy": {k: v for k, (v, _) in accuracy.items()},
        "oracle_rows": [vars(r) for r in first.rows], "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
