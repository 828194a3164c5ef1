"""Benchmark driver: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload window_audit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.  One
process, one thread, closed loop: each op starts when the previous one ends.
After the timed phase the outputs are checked.  Reported times are wall
times corrected for the host's speed (see speed.py).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
(from a run with timing wrappers installed) with --trace 1.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is measured this many times, each in a fresh process, and the
# median reported.
SETUP_SAMPLES = 5
MAX_PROBLEMS_SHOWN = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the time when ready, and exit")
    return parser.parse_args(argv)


def import_package():
    """Import the package from the checkout's src/, never from elsewhere."""
    if not (SRC / "multiorder" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'multiorder'}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import multiorder
    if Path(multiorder.__file__).resolve().parent != (SRC / "multiorder").resolve():
        sys.exit(f"perfbench: imported multiorder from {multiorder.__file__}, not {SRC}")
    return multiorder


def percentile(values, pct: float) -> tuple:
    """Nearest-rank percentile, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def measure_setup(args) -> list:
    """(set-up seconds, probe ms) of SETUP_SAMPLES fresh processes, each from
    spawn to ready for its first timed op (interpreter start, imports,
    inputs, caches and the warm-up op), with the process's speed probe."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        spawned = time.time()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=150, check=True)
        ready, probe = map(float, done.stdout.split()[-2:])
        samples.append((ready - spawned, probe))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        sys.exit("perfbench: --seed must be >= 0")
    multiorder = import_package()
    import numpy as np
    import speed
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        wl.op(0)  # warm-up: caches, lazy imports, first-call costs
        speed.probe_ms()
        if args.setup_only:
            ready = time.time()
            print(repr(ready), statistics.median(speed.probe_ms() for _ in range(5)))
            return 0
        setup_main = time.perf_counter() - T_START
        if tracer:
            tracer.reset()

        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"python {sys.version.split()[0]} numpy {np.__version__} "
              f"multiorder {multiorder.__version__} nproc {os.cpu_count()} threads 1")
        if tracer and tracer.absent:
            print(f"trace: absent {' '.join(tracer.absent)} (their metrics read 0)")

        records, times, probes = [], [], []
        failed = 0
        i = 1
        phase_start = time.perf_counter()
        deadline = phase_start + args.seconds
        while True:
            t0 = time.perf_counter()
            try:
                rec = wl.op(i)
            except Exception:  # an op that raises counts as failed; keep measuring
                traceback.print_exc(file=sys.stderr)
                rec = None
                failed += 1
            t1 = time.perf_counter()
            times.append(t1 - t0)
            probes.append(speed.probe_ms())
            if rec is not None:
                records.append(rec)
            i += 1
            if t1 >= deadline:
                break
        wall = time.perf_counter() - phase_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(times)
        completed = attempted - failed

        if tracer:
            tracer.uninstall()
        check_start = time.perf_counter()
        problems = wl.check(records) if records else ["no op completed"]
        check_s = time.perf_counter() - check_start

        wall_ms = [t * 1e3 for t in times]
        ms = speed.corrected(wall_ms, probes)
        tail, beyond = percentile(ms, wl.tail_percentile)
        busy_s = sum(ms) / 1e3
        print(f"ops {attempted} failed {failed} wall {wall:.3f} s; set-up of this process "
              f"{setup_main:.3f} s; checks {check_s:.2f} s; op_tail_ms is "
              f"p{wl.tail_percentile} ({beyond} ops beyond it)")
        print("speed probe ms p10/p50/p90: "
              + " ".join(f"{percentile(probes, q)[0]:.3f}" for q in (10, 50, 90)))
        print(f"wall clock, uncorrected: ops_per_s {completed / wall:.4f} op_p50_ms "
              f"{statistics.median(wall_ms):.3f} op_tail_ms "
              f"{percentile(wall_ms, wl.tail_percentile)[0]:.3f}")
        if attempted > 1:
            cuts = statistics.quantiles(ms, n=20)
            print("corrected op ms p5..p95 by 5: " + " ".join(f"{c:.1f}" for c in cuts))
        for problem in problems[:MAX_PROBLEMS_SHOWN]:
            print(f"check failed: {problem}")
        if len(problems) > MAX_PROBLEMS_SHOWN:
            print(f"... and {len(problems) - MAX_PROBLEMS_SHOWN} more")

        if tracer:
            for rec in records:
                tracer.add_count("cli.report_bytes", rec.get("report_bytes", 0))
            metrics = tracer.metrics(completed, speed.factor(statistics.median(probes)))
            metrics["trace.ops_per_s"] = {"value": completed / busy_s, "unit": "1/s"}
            trace_dir = OUT / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            print(f"trace: {len(tracer.names)} spans written to "
                  f"{trace_path.relative_to(ROOT)}")
        else:
            setups = measure_setup(args)
            print("set-up samples (wall s, probe ms): "
                  + " ".join(f"{s:.3f},{p:.3f}" for s, p in setups))
            metrics = {
                "setup_s": {"value": statistics.median(s * speed.factor(p) for s, p in setups),
                            "unit": "s"},
                "ops_per_s": {"value": completed / busy_s, "unit": "1/s"},
                "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
                "op_tail_ms": {"value": tail, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
