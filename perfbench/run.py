"""The dcboost benchmark: one workload, one process, one result line.

    python3 perfbench/run.py --workload denoise-64 --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation.  With ``--trace 1`` it alternates untraced passes with
passes under the span tracer and reports the per-layer metrics, including
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  A full record, and the spans of the
last traced pass, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# numpy, dcboost and the benchmark modules that import them are imported
# inside main(), after the BLAS thread variables are pinned
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("basin-1e4", "denoise-64", "cli-denoise-256")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7,
                   help="workload seed; inputs are a function of it "
                        "(default 7, the reference seed)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time; passes start only while it lasts")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); None when there are too few samples."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def environment():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy, dcboost, dcboost.cli
print(time.perf_counter() - t0)
"""


def import_library():
    """Import dcboost from ``src/``; returns the median import time of
    SETUP_REPEATS fresh interpreters (numpy and every dcboost module)."""
    if not (SRC / "dcboost" / "__init__.py").is_file():
        raise SystemExit(f"error: no dcboost sources under {SRC}; run from "
                         "the root of a dcboost checkout")
    sys.path.insert(0, str(SRC))
    import dcboost
    if Path(dcboost.__file__).resolve().parent != (SRC / "dcboost").resolve():
        raise SystemExit(f"error: dcboost imported from {dcboost.__file__}, "
                         f"not from {SRC}")
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True,
                               timeout=120)
        times.append(float(probe.stdout))
    return median(times)


def set_up(workload_cls, seed):
    """Build the workload SETUP_REPEATS times; returns (last instance,
    seconds of each build).  Each build is input generation, model
    construction and warm-up."""
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        t0 = time.perf_counter()
        wl = workload_cls(seed, OUT_DIR)
        wl.make_inputs()
        wl.warm_up()
        times.append(time.perf_counter() - t0)
    return wl, times


class Tally:
    """Operations and deterministic outputs over all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = None

    def add(self, outcome, label):
        self.attempted += outcome.attempted
        failed = outcome.failed
        if self.counts is None:
            self.counts = outcome.counts
        elif outcome.counts != self.counts:
            # same inputs every pass: different outputs are a failure
            failed = outcome.attempted
            self.problems.append(f"{label}: outputs differ from the first "
                                 f"pass: {outcome.counts}")
        self.failed += failed
        self.problems.extend(f"{label}: {p}" for p in outcome.problems)


def measure_untraced(wl, seconds, tally):
    times = []
    t_start = time.perf_counter()
    while not times or time.perf_counter() - t_start + median(times) <= seconds:
        outcome = wl.run_pass()
        tally.add(outcome, f"pass {len(times)}")
        times.append(outcome.seconds)
    return times


def measure_traced(wl, seconds, tally):
    """Alternate untraced and traced passes; per-layer metrics are the
    median over traced passes."""
    from layers import PER_LAYER_UNITS, pass_layer_metrics
    from tracer import Tracer, span_cost
    from dcboost import tv_cauchy

    cost = span_cost()
    tracer = Tracer()
    with tracer, tracer.region("inputs"):
        wl.make_inputs()
    input_noise_s = tracer.total("imaging.noise")

    untraced, traced, per_pass = [], [], []
    t_start = time.perf_counter()
    while not traced or (time.perf_counter() - t_start
                         + median(untraced) + median(traced) <= seconds):
        outcome = wl.run_pass()
        tally.add(outcome, f"untraced pass {len(untraced)}")
        untraced.append(outcome.seconds)

        tracer.reset()
        with tracer, tracer.region("pass"):
            outcome = wl.run_pass()
        tally.add(outcome, f"traced pass {len(traced)}")
        traced.append(outcome.seconds)
        per_pass.append(pass_layer_metrics(tracer, cost))

    layer = {name: median([m[name] for m in per_pass])
             for name in per_pass[0]}
    layer["imaging.noise_s"] += input_noise_s
    layer["tv_cauchy.peak_alloc_mb"] = peak_alloc_mb(tv_cauchy.tv_prox,
                                                     tracer.last_tv_prox_call)
    layer["bench.tracing_overhead_s"] = median(traced) - median(untraced)
    layer["bench.span_cost_us"] = cost.total * 1e6
    missing = sorted(set(PER_LAYER_UNITS) - set(layer))
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return untraced, traced, layer, tracer


def peak_alloc_mb(tv_prox, call):
    """Peak memory allocated by one ``tv_prox`` call, replayed untraced on
    the arguments of the last call the traced pass made (0 if none)."""
    if call is None:
        return 0.0
    args, kwargs = call
    tracemalloc.start()
    try:
        tv_prox(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    # Philox keys and the CLI's --seed must be nonnegative
    seed = args.seed % 2**63

    import_s = import_library()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    wl, setup_times = set_up(workload_cls, seed)
    tally = Tally()
    try:
        if args.trace:
            untraced, traced, layer, tracer = measure_traced(
                wl, args.seconds, tally)
        else:
            untraced = measure_untraced(wl, args.seconds, tally)
    finally:
        wl.close()

    setup_s = import_s + median(setup_times)
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(),
        "import_s": import_s, "setup_build_s": setup_times,
        "untraced_pass_s": untraced,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "counts": tally.counts,
    }
    if args.trace:
        from layers import PER_LAYER_UNITS
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        record.update(traced_pass_s=traced, unpatched=tracer.missing)
    else:
        values = {"pass_s": median(untraced), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{seed}-t{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        # one file per workload, overwritten, to bound disk use
        tracer.dump(OUT_DIR / f"spans-{args.workload}.npz")

    report(record, untraced, setup_s)
    result = {"correct": tally.failed == 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def report(record, untraced, setup_s):
    """Every end-to-end figure by name with its unit, then the layers."""
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {len(untraced)} untraced"
          + (f", {len(record['traced_pass_s'])} traced"
             if record["trace"] else ""))
    print(f"env python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}  threads 1  {env['platform']}")
    tail = tail_percentile(untraced)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 f"max {max(untraced):.4f} s (no tail percentile below 20 "
                 "samples)")
    print(f"pass_s        {median(untraced):.4f} s median, {tail_text}, "
          f"n={len(untraced)}")
    print(f"setup_s       {setup_s:.4f} s (median import {record['import_s']:.4f}"
          f" s + median build, {SETUP_REPEATS} of each)")
    print(f"peak_rss_mb   {peak_rss_mb():.1f} MiB")
    attempted, failed = record["attempted"], record["failed"]
    print(f"fail_frac     {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} operations)")
    counts = record["counts"] or {}
    if "psnr_db" in counts:
        print(f"psnr_db       {counts['psnr_db']:.4f} dB")
        print(f"final_energy  {counts['final_energy']:.6f} (E units)")
    print("counts        " + json.dumps(counts, sort_keys=True))
    for problem in record["problems"][:20]:
        print(f"FAILED        {problem}")
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"{name:32s} {m['value']:.6g} {m['unit']}")
        if record["unpatched"]:
            print("unpatched     " + ", ".join(record["unpatched"]))


if __name__ == "__main__":
    sys.exit(main())
