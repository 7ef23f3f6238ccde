#!/usr/bin/env python3
"""siad benchmark: seeded workloads against the package in ``src/``.

Run from the repository root:

    python3 perfbench/run.py --workload null-scan --seed 2024 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seconds 32 --trace both \\
        --out perfbench/results/BENCH_<tag>.json

Each run sets up for at least a second, loops one client over the workload
for ``--seconds`` (on single-process workloads timing a fixed reference
kernel between calls), checks every output, sets up for at least a second
more (``setup_s`` is the median set-up time at reference host speed), and
prints its metrics by name with units; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
instead runs a fixed slice of the workload
plain, then again with spans, and reports the per-layer metrics.  A results
file with the environment record goes to ``perfbench/runs/`` unless
``--out`` names one.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:  # before numpy loads: one BLAS thread per process
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORKLOADS = ("null-scan", "signal-scan", "fit", "paper-scale")
SETUP_REPEATS = 3  # at least, before the loop and again after it
SETUP_MIN_S = 1.0  # and as many more as fit in this time, on each side
END_TO_END = {"setup_s": "s", "norm_items_per_s": "1/s", "peak_rss_mb": "MB"}
# The time the reference kernel takes on a quiet host; norm_items_per_s is
# the rate the run would reach on a host where the kernel takes this long.
REF_KERNEL_S = 0.125
PER_LAYER = {
    "parametric.self_share": "frac",
    "inference.self_share": "frac",
    "anomaly.self_share": "frac",
    "model.self_share": "frac",
    "ops.self_share": "frac",
    "training.self_share": "frac",
    "opticalflow.self_share": "frac",
    "experiments.self_share": "frac",
    "fileio.setup_share": "frac",
    "synth.setup_share": "frac",
    "parametric.pieces_per_subject": "count",
    "parametric.scan_share": "frac",
    "parametric.pieces_beyond_8sigma_frac": "frac",
    "parametric.scan_peak_alloc_mb": "MB",
    "parametric.flops_per_piece": "count",
    "parametric.gflops": "GFLOP/s",
    "inference.intervals_per_subject": "count",
    "inference.tested_frac": "frac",
    "experiments.pool_busy_frac": "frac",
    "training.epochs_run": "count",
    "ops.conv2d_share": "frac",
    "ops.conv2d_backward_share": "frac",
    "trace_overhead_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"),
                        help="'both' (with --workload all) runs each workload "
                             "untraced, then traced")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (default: perfbench/runs/...)")
    args = parser.parse_args(argv)
    if args.trace == "both" and args.workload != "all":
        parser.error("--trace both needs --workload all")
    return args


def git_commit():
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed, workers, traced):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": {v: os.environ.get(v) for v in BLAS_PINS},
            "git_commit": git_commit(), "seed": seed, "workers": workers,
            "traced": traced}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def reference_kernel_s() -> float:
    """Wall time of a fixed numpy kernel of small-array calls, the kind of
    work the desk-scale workloads do.  It reads the host's current speed."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((16, 16)) / 4.0
    start = time.perf_counter()
    for _ in range(30):
        x = np.ones((16, 16))
        for _ in range(1000):
            x = np.tanh(a @ x) + 0.1 * x
    return time.perf_counter() - start


def normalized_rate(count, item_s, kernel_s):
    """Items per second on a host where the reference kernel takes
    REF_KERNEL_S: each call's time is scaled by REF_KERNEL_S over the mean of
    the kernel times just before and just after it.  Without kernel times,
    the plain rate."""
    if not kernel_s:
        return count / sum(item_s)
    ref_s = sum(t * 2.0 * REF_KERNEL_S / (kernel_s[i] + kernel_s[i + 1])
                for i, t in enumerate(item_s))
    return count / ref_s


def measure(work, state, seconds, count, kernel=False):
    """Closed loop: the next call starts when the previous one returns.
    Stops after ``count`` calls, or once ``seconds`` have passed.  With
    ``kernel``, the reference kernel is timed before the first call and
    after each call; the host's speed drifts by up to 2x over tens of
    seconds, and those times are what norm_items_per_s divides it out by."""
    results, timings = [], {"item_s": [], "kernel_s": []}
    start = time.perf_counter()
    if kernel:
        timings["kernel_s"].append(reference_kernel_s())
    k = 0
    while True:
        begin = time.perf_counter()
        results.extend(work.item(state, k, timings))
        timings["item_s"].append(time.perf_counter() - begin)
        if kernel:
            timings["kernel_s"].append(reference_kernel_s())
        end = time.perf_counter()
        k += 1
        done = k >= count if count is not None else end - start >= seconds
        if done:
            return results, timings, end - start


def named_metrics(work, results, timings, setup_s, failed, rss):
    """The metrics the README names per workload, from the client's own
    timing of its calls (not of the reference kernel between them)."""
    import workloads as wl
    busy = sum(timings["item_s"])
    out = {"setup_s": (setup_s, "s"),
           "failed_frac": (failed / len(results), "failed/attempted"),
           "items_per_s": (len(results) / busy, "1/s")}
    if timings["kernel_s"]:
        out["reference_kernel_s"] = (statistics.median(timings["kernel_s"]), "s")
    tail = None
    if work.name in ("null-scan", "signal-scan"):
        out["subjects_per_s"] = (len(results) / busy, "subjects/s")
    if work.name == "signal-scan":
        lat = timings["item_s"]  # one subject per call
        out["subject_latency_p50_s"] = (statistics.median(lat), "s")
        p = wl.tail_percentile(len(lat))
        tail = {"percentile": p, "samples": len(lat)}
        if p is not None:
            out["subject_latency_tail_s"] = (wl.percentile_value(lat, p), "s")
    if work.name == "fit" and timings.get("train_s"):
        out["train_s_per_epoch"] = (sum(timings["train_s"]) / sum(timings["epochs"]), "s")
        out["flow_maps_per_s"] = (wl.FIT_PAIRS * len(timings["flow_s"])
                                  / sum(timings["flow_s"]), "maps/s")
    if work.name == "paper-scale" and timings.get("scan_s"):
        out["paper_piece_ms"] = (1e3 * sum(timings["scan_s"]) / sum(timings["pieces"]),
                                 "ms/piece")
        out["paper_train_example_s"] = (sum(timings["train_s"])
                                        / (wl.PAPER_EXAMPLES * len(timings["train_s"])),
                                        "s/example")
    out["peak_rss_mb"] = (rss, "MB")
    return out, tail


def traced_run(work, seed):
    """Untraced, then traced, pass over the same fixed slice of the workload."""
    import layers
    import tracing
    run_dir = RUNS / f"trace-{work.name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)

    setup_tracer = tracing.Tracer(run_dir / "setup")
    layers.install(setup_tracer)
    start = time.perf_counter()
    try:
        state = work.setup(seed)
    finally:
        setup_tracer.uninstall()
    setup_wall = time.perf_counter() - start
    setup_tracer.flush()

    plain, _, wall_plain = measure(work, state, None, work.traced_items)
    tracer = tracing.Tracer(run_dir / "run")
    layers.install(tracer)
    try:
        traced, _, wall_traced = measure(work, state, None, work.traced_items)
    finally:
        tracer.uninstall()
    tracer.flush()

    results = plain + traced
    failed = work.check(state, results)
    layer, times = layers.metrics(tracing.load_spans(run_dir / "run"),
                                  tracing.load_spans(run_dir / "setup"), setup_wall,
                                  wall_traced, work, state, os.getpid())
    layer["parametric.scan_peak_alloc_mb"] = work.alloc_probe(state, traced)
    layer["trace_overhead_frac"] = wall_traced / wall_plain - 1.0
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return SimpleNamespace(state=state, results=results, failed=failed, metrics=metrics,
                           named=times, tail=None, item_s=[], kernel_s=[])


def timed_setups(work, seed):
    """At least SETUP_REPEATS set-ups, and more until SETUP_MIN_S have
    passed, with the reference kernel timed before and after them.  Returns
    the state of the last, their times, and their times at reference host
    speed.  A set-up always runs in the client alone, so the kernel reads
    the speed it ran at."""
    kernel_before = reference_kernel_s()
    times = []
    block_start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - block_start < SETUP_MIN_S:
        state = None  # so that two states never coexist in the peak RSS
        start = time.perf_counter()
        state = work.setup(seed)
        # paper-scale's window search scans as many chunks as the seed's
        # piece density needs; it is input choice, not set-up work
        times.append(time.perf_counter() - start - getattr(state, "search_s", 0.0))
    scale = 2.0 * REF_KERNEL_S / (kernel_before + reference_kernel_s())
    return state, times, [t * scale for t in times]


def untraced_run(work, seed, seconds):
    """Set-ups, the timed closed loop, the checks, then set-ups again."""
    reference_kernel_s()  # warm-up: the first call in a process runs slow
    state, setup_times, setup_ref = timed_setups(work, seed)
    # A pool's calls outlast the host's spells of speed, so kernel times
    # between them do not tell its speed during a call (README).
    results, timings, _ = measure(work, state, seconds, None, kernel=work.workers == 1)
    rss = peak_rss_mb()  # before the checks and later set-ups allocate
    failed = work.check(state, results)
    # The host's speed drifts over seconds; set-ups on both sides of the loop
    # keep one slow or fast moment from setting the median.
    _, more_times, more_ref = timed_setups(work, seed)
    setup_s = statistics.median(setup_ref + more_ref)
    named, tail = named_metrics(work, results, timings, setup_s, failed, rss)
    named["setup_plain_s"] = (statistics.median(setup_times + more_times), "s")
    values = {"setup_s": setup_s, "peak_rss_mb": rss,
              "norm_items_per_s": normalized_rate(len(results), timings["item_s"],
                                                  timings["kernel_s"])}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return SimpleNamespace(state=state, results=results, failed=failed, metrics=metrics,
                           named=named, tail=tail, item_s=timings["item_s"],
                           kernel_s=timings["kernel_s"])


def run_one(args) -> int:
    import workloads as wl
    work = wl.WORKLOADS[args.workload](wl.load_reference())
    traced = args.trace == "1"
    done = (traced_run(work, args.seed) if traced
            else untraced_run(work, args.seed, args.seconds))
    problems = done.state.problems
    for problem in problems:
        print(f"{work.name}: CHECK FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in done.named.items():
        print(f"{work.name:12s} {name} = {value:.6g} {unit}")
    for name, metric in done.metrics.items():
        if name not in done.named:
            note = ""
            if name == "norm_items_per_s":
                note = f" ({work.unit} per second" + (
                    " at reference host speed)" if done.kernel_s else ", not scaled)")
            print(f"{work.name:12s} {name} = {metric['value']:.6g} {metric['unit']}{note}")
    if done.tail is not None:
        print(f"{work.name:12s} tail percentile {done.tail['percentile']} over "
              f"{done.tail['samples']} samples")
    summary = {"correct": done.failed == 0 and not problems,
               "attempted": len(done.results), "failed": done.failed,
               "metrics": done.metrics}
    record = {"workload": work.name, "unit": work.unit, "seconds": args.seconds,
              "environment": environment(args.seed, work.workers, traced),
              **summary, "problems": problems,
              "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in done.named.items()},
              "tail": done.tail, "item_s": done.item_s, "kernel_s": done.kernel_s}
    out = args.out or RUNS / f"{work.name}-seed{args.seed}-trace{int(traced)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    modes = ("0", "1") if args.trace == "both" else (args.trace,)
    records = []
    for name in WORKLOADS:
        for mode in modes:
            part = RUNS / f"all-{name}-trace{mode}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", mode, "--out", str(part)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return proc.returncode
            records.append(json.loads(part.read_text()))
    combined = {"runs": records}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(combined, indent=1) + "\n")
    print(json.dumps({r["workload"] + ("/traced" if r["environment"]["traced"] else ""):
                      {k: r[k] for k in ("correct", "attempted", "failed")}
                      for r in records}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "siad" / "__init__.py").is_file():
        print(f"perfbench: no siad package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import workloads as wl
    try:
        return run_one(args)
    except wl.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
