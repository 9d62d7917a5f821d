"""trustprop benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload recompute-discrete --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it imports trustprop from ``src/`` there.
``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs a fixed number of operations, alternating untraced and traced ones,
then isolated calls into each layer, and prints the per-layer metrics, a
self-time table per layer and the tracing overhead; its spans are written to
``.perfbench_work/trace-<workload>-s<seed>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import os

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: every layer runs in this one thread, and the figures do
# not depend on how many cores happen to be idle.
BLAS_THREADS = 1
IMPORT_REPS = 5
SETUP_REPS = 3
MIN_READS = 200  # so the read p95 has at least ten samples beyond it
DEADLINE_S = 140.0  # the timed loop stops here even if MIN_READS is not met
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import trustprop; "
    "print(repr(time.perf_counter() - t))"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_import() -> float:
    """Median seconds to import trustprop in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        cache = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def run_op(wl, tr, k):
    from workloads import OpResult

    try:
        return wl.op(tr, k)
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        out = OpResult(write_s=float("nan"), writes=1)
        out.fail_write("operation", f"raised {exc!r}")
        return out


def percentile(xs, q):
    import numpy as np

    return float(np.percentile(np.asarray(xs), q)) if xs else float("nan")


def end_to_end(results, setup_s, warmup):
    """End-to-end metrics from the timed operations; failures count the warm-up too."""
    writes_ms = [r.write_s * 1e3 for r in results if r.write_s == r.write_s]
    reads_ms = [lat * 1e3 for r in results for _, lat in r.reads]
    attempted = sum(r.attempted for r in results) + warmup.attempted
    failed = sum(len(r.failures) for r in results) + len(warmup.failures)
    metrics = {
        "setup_s": (setup_s, "s"),
        "write_p50_ms": (statistics.median(writes_ms) if writes_ms else float("nan"), "ms"),
        "read_p50_ms": (percentile(reads_ms, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "success_frac": (1.0 - failed / attempted if attempted else 0.0, "ratio"),
    }
    # Printed, not part of the result: on a shared host the read tail
    # mostly measures how long the run spent in slow phases.
    tail = (f"samples: {len(writes_ms)} writes, {len(reads_ms)} reads; "
            f"read p95 {percentile(reads_ms, 95):.4f} ms")
    return metrics, attempted, failed, tail


def emit(metrics, attempted, failed) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads
    if not (SRC / "trustprop" / "__init__.py").is_file():
        print(f"error: no trustprop package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import trustprop

    if Path(trustprop.__file__).resolve().parent != SRC / "trustprop":
        print(f"error: imported trustprop from {trustprop.__file__}", file=sys.stderr)
        return 2
    from layers import layer_metrics, self_time_table
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    traced = args.trace == 1
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace} sizes {json.dumps(wl.sizes)}")
    print(f"machine {json.dumps(machine_facts())}")
    try:
        import_s = measure_import()
        wl.generate(traced)
        tr = Tracer(enabled=traced)
        setup_times = []
        for rep in range(SETUP_REPS):
            tr.op_id = f"setup{rep}"
            start = time.perf_counter()
            with tr.span("bench.setup"):
                wl.setup(tr)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        print(f"setup: import {import_s:.4f} s + median of {SETUP_REPS} set-ups "
              f"{statistics.median(setup_times):.4f} s")

        # One untimed operation first, so the allocator's heap and the caches
        # reach their steady state before timing; its outputs are checked.
        warmup = run_op(wl, Tracer(enabled=False), 0)
        results, traced_results = [], []
        loop_start = time.perf_counter()
        if not traced:
            k = 1
            while True:
                results.append(run_op(wl, tr, k))
                k += 1
                elapsed = time.perf_counter() - loop_start
                enough = (sum(len(r.reads) for r in results) >= MIN_READS
                          or any(r.failures for r in results))
                if (elapsed >= args.seconds and enough) or elapsed >= DEADLINE_S:
                    break
        else:
            # Untraced and traced operations alternate, so drift hits both alike.
            untraced = Tracer(enabled=False)
            for k in range(1, 2 * wl.traced_ops + 1):
                if k % 2 == 0:
                    tr.op_id = k
                    with tr.span("bench.op"):
                        traced_results.append(run_op(wl, tr, k))
                else:
                    results.append(run_op(wl, untraced, k))
            tr.op_id = "probe"
            with tr.span("bench.probe"):
                wl.probe(tr)
        loop_s = time.perf_counter() - loop_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, attempted, failed, tail = end_to_end(results + traced_results, setup_s, warmup)
    print(f"ran 1 warm-up and {len(results) + len(traced_results)} timed operations "
          f"in {loop_s:.2f} s; {tail}")
    for res in [warmup] + results + traced_results:
        for op, problem in res.failures.items():
            print(f"FAILED {op}: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:>14.6f} {unit}")
    if traced:
        untraced_ms = statistics.median(r.write_s for r in results) * 1e3
        traced_ms = statistics.median(r.write_s for r in traced_results) * 1e3
        overhead_ms = traced_ms - untraced_ms
        print(f"tracing overhead: traced write p50 {traced_ms:.3f} ms - untraced "
              f"{untraced_ms:.3f} ms = {overhead_ms:.3f} ms "
              f"({100 * overhead_ms / untraced_ms:.2f}%)")
        print(self_time_table(tr))
        per_layer = layer_metrics(tr, wl)
        per_layer["trace.overhead_ms"] = (overhead_ms, "ms")
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<36} {value:>14.6f} {unit}")
        trace_path = WORK / f"trace-{wl.name}-s{args.seed}.json"
        tr.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        metrics = per_layer
    emit(metrics, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
