"""kmprop benchmark: run one workload (or all four) and print its metrics.

    python3 bench/run.py --workload synth-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a kmprop checkout; the package is imported from
its ``src`` directory. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (set-up time,
throughput, median operation time, peak memory); with ``--trace 1``
the run times the same operations untraced and then traced, and the
metrics are per-layer numbers from spans around kmprop's public
functions. The line before it records the machine. Results and spans
are also written under ``bench-results/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench-results")

# BLAS and OpenMP pools are pinned to at most the CPUs this process may
# use, before numpy loads; OpenBLAS would otherwise size its pool from
# its build-time maximum.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC) if _cur.isdigit() and int(_cur) > 0 else NPROC)

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="kmprop benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_kmprop():
    """Import kmprop from this checkout's ``src``; exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "kmprop", "__init__.py")):
        print(f"bench: no kmprop package under {SRC}; run from a kmprop checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import kmprop

    if os.path.dirname(os.path.dirname(os.path.abspath(kmprop.__file__))) != SRC:
        print(f"bench: imported kmprop from {kmprop.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cpu": cpu,
        "nproc": NPROC,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


# ---------------------------------------------------------------------------
# timing


class Phase:
    """Operations 0..n-1 of a run, timed one by one."""

    def __init__(self):
        self.durations: list[float] = []  # completed operations only
        self.outs: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0


def run_phase(w, seconds: float | None = None, count: int | None = None, tracer=None) -> Phase:
    """Whole rounds of operations until ``seconds`` have passed and at
    least ``w.min_rounds`` rounds are done, or exactly ``count``
    operations."""
    ph = Phase()
    start = time.perf_counter()
    while True:
        for _ in range(w.round_len):
            k = ph.attempted
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            try:
                out = w.op(k)
            except Exception:
                traceback.print_exc()
                ph.failed += 1
            else:
                ph.durations.append(time.perf_counter() - t0)
                ph.outs[k] = out
            ph.attempted += 1
        elapsed = time.perf_counter() - start
        if count is not None:
            done = ph.attempted >= count
        else:
            done = elapsed >= seconds and ph.attempted >= w.min_rounds * w.round_len
        if done:
            ph.wall = elapsed
            return ph


def check_phase(w, ph: Phase) -> list[str]:
    problems = []
    for k, out in ph.outs.items():
        problems += w.check(k, out)
    if ph.outs:
        problems += w.check_run(ph.outs)
    return problems


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes: interpreter start, imports, input
    generation and file writing, and the warm-up operation."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        ready = [ln for ln in res.stdout.splitlines() if ln.startswith("ready ")]
        if res.returncode != 0 or not ready:
            raise RuntimeError(f"set-up process failed ({res.returncode}): {res.stderr[-2000:]}")
        samples.append(float(ready[-1].split()[1]) - t0)
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(w, args, workdir):
    setups = setup_seconds(args)
    w.setup(args.seed, workdir)
    w.warm()
    ph = run_phase(w, seconds=args.seconds)
    problems = check_phase(w, ph)
    done = len(ph.durations)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(done / ph.wall, "1/s"),
        "op_p50_ms": metric(1000.0 * statistics.median(ph.durations) if done else float("nan"), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    detail = {"setup_samples_s": setups, "op_ms": [1000.0 * d for d in ph.durations],
              "phase_wall_s": ph.wall}
    return ph.attempted, ph.failed, problems, metrics, detail, None


def per_layer(w, args, workdir):
    import numpy as np

    import reference
    import spans

    w.setup(args.seed, workdir)
    w.warm()
    plain = run_phase(w, seconds=args.seconds)
    problems = check_phase(w, plain)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_phase(w, count=plain.attempted, tracer=tracer)
    finally:
        tracer.uninstall()
    problems += check_phase(w, traced)

    n = traced.attempted
    totals = tracer.layer_totals()
    metrics = {}
    for name, stats in totals.items():
        metrics[f"{name}.calls"] = metric(stats["calls"] / n, "calls/op")
        metrics[f"{name}.busy_s"] = metric(stats["busy_s"] / n, "s/op")
        metrics[f"{name}.self_s"] = metric(stats["self_s"] / n, "s/op")
    for mod_name, fn_name, _, keys in spans.TRACED:
        for key in keys:
            name = f"{mod_name}.{fn_name}.{key}"
            metrics[name] = metric(tracer.counts[name] / n, f"{key.split('_')[-1]}/op")

    # Sampled quad_form calls against the float64 reference; the
    # tolerance is that of the dtype the call summed in.
    devs = []
    for spec, X, wx, Y, wy, dtype, got in tracer.quad_samples:
        want = reference.kernel_sum(spec, X, wx, Y, wy)
        dev = abs(got - want) / reference.abs_scale(wx, wy)
        tol = 1e-4 if dtype == np.float32 else 1e-11
        devs.append(dev)
        if not dev <= tol:
            problems.append(f"quad_form ({dtype}, {X.shape[0]}x"
                            f"{X.shape[0] if Y is None else Y.shape[0]}) deviates {dev:.3g} "
                            f"from the float64 reference, over {tol:g}")
    metrics["kernels.quad_form.max_rel_dev"] = metric(max(devs, default=0.0), "ratio")
    metrics["trace.self_sum_s"] = metric(sum(s["self_s"] for s in totals.values()) / n, "s/op")
    metrics["trace.op_wall_s"] = metric(traced.wall / n, "s/op")
    metrics["trace.overhead_s"] = metric((traced.wall - plain.wall) / n, "s/op")
    detail = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall,
              "quad_form_rel_devs": devs}
    return (plain.attempted + traced.attempted, plain.failed + traced.failed, problems,
            metrics, detail, tracer.span_records())


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak memory
    belong to that workload."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or len(lines) < 2:
            print(f"bench: {name} exited {res.returncode}", file=sys.stderr)
            return 1
        machine = lines[-2]
        results[name] = r = json.loads(lines[-1])
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for key, m in r["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(machine)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_kmprop()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            w.setup(args.seed, workdir)
            w.warm()
            print(f"ready {time.time()!r}", flush=True)
            return 0
        run = per_layer if args.trace else end_to_end
        attempted, failed, problems, metrics, detail, span_list = run(w, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    machine = machine_record()
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "machine": machine, "result": result, "problems": problems,
                   "detail": detail}, fh, indent=1)
    if span_list is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(span_list, fh)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
