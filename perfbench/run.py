"""lagdde benchmark: seeded closed-loop workloads against the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; lagdde is imported from its ``src/``.
One caller runs the workload's jobs one after another in this process and
thread, in whole passes over the job list, until ``--seconds`` have passed
and enough jobs have run for the tail percentile. Each job's output is
checked after its timed call. Times and rates are scaled to a reference
host speed (see ``calibration_loop``). Then the workload's known failures
run once, untimed, as a census. The report prints every metric with its
unit; the last line is one JSON object with ``correct`` (every timed job
passed), ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of one traced pass with
``--trace 1``. ``--workload all`` runs every workload in turn, each in its
own process.
See README.md beside this file.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread; this must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

# set-ups repeat at least SETUP_REPS times and for at least SETUP_MIN_S
SETUP_REPS = 5
SETUP_MIN_S = 1.0
WARMUP_JOBS = 3
# Median time of calibration_loop on the host where the baseline was taken.
# Reported times are scaled by this over the loop's median, so that a run in
# a slow stretch of a shared host reads as one in a fast stretch: a job's
# time over the median of the loops timed after the SPEED_WINDOW jobs on
# either side of it and itself, a set-up's over that of as many loops timed
# after it, per-layer times over the run's median.
CALIBRATION_REF_S = 2.5e-4
SPEED_WINDOW = 5
FAIL_CLASSES = ("singular", "nonconvergence", "tolerance", "other")


@dataclass(frozen=True)
class Spec:
    build: Callable
    modules: tuple
    # fixed per workload, so that a faster program, which completes more
    # jobs, is not compared at another percentile
    tail_pct: float

    @property
    def min_jobs(self) -> int:
        """Jobs a run needs for ten beyond the tail percentile."""
        return math.ceil(10 / (1 - self.tail_pct / 100) - 1e-9)


WORKLOADS = {
    "linear_sweep": Spec(workloads.linear_sweep, ("lagdde",), 95),
    "picard_feedback": Spec(workloads.picard_feedback, ("lagdde",), 75),
    "cli_oracle": Spec(workloads.cli_oracle, ("lagdde", "lagdde.cli"), 75),
}

END_TO_END = {
    "setup_s": "s",
    "goodput_jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# reported end-to-end metrics that are not in BENCHMARK.json: the timed jobs'
# fail ratio reads 0 in every correct run, so the JSON carries it as
# attempted/failed
REPORT_ONLY = ("fail_ratio",)

PER_LAYER = {
    "linalg.condition.calls": "count",
    "linalg.condition.self_ms": "ms",
    "linalg.useful_solve_ratio": "ratio",
    "linalg.gauss_solve.calls": "count",
    "linalg.gauss_solve.self_ms": "ms",
    "basis.calls": "count",
    "basis.self_ms": "ms",
    "collocation.solve.calls": "count",
    "collocation.solve.self_ms": "ms",
    "collocation.picard_iters": "count",
    "collocation.eval.calls": "count",
    "collocation.eval.self_ms": "ms",
    "collocation.history_calls": "count",
    "reference.rk4.calls": "count",
    "reference.rk4.self_ms": "ms",
    "reference.rk4.steps": "count",
    "reference.lookup.calls": "count",
    "reference.lookup.self_ms": "ms",
    "config.parse.self_ms": "ms",
    "config.expr.calls": "count",
    "config.expr.self_ms": "ms",
    "accuracy.report.self_ms": "ms",
    "accuracy.residual.calls": "count",
    "cli.run.self_ms": "ms",
    "cli.bytes_written": "bytes",
    **{f"fail.{c}": "count" for c in FAIL_CLASSES},
    "trace.goodput_untraced_jobs_per_s": "1/s",
    "trace.goodput_traced_jobs_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def import_lagdde(modules):
    """Import lagdde afresh from this checkout's src/."""
    if not (SRC / "lagdde" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise BenchError(f"no lagdde sources under {SRC} or no {CONFIGS}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "lagdde" or n.startswith("lagdde.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    lag = sys.modules["lagdde"]
    if Path(lag.__file__).resolve().parent != SRC / "lagdde":
        raise BenchError(f"imported lagdde from {lag.__file__}, not {SRC}")
    return lag


def set_up(spec, seed, scratch, max_jobs):
    """Import lagdde, build the seeded inputs and their reference solutions."""
    start = time.perf_counter()
    lag = import_lagdde(spec.modules)
    workload = spec.build(lag, seed, scratch, CONFIGS, max_jobs)
    return time.perf_counter() - start, lag, workload


def classify(err):
    """Failure class of an exception, and a detail for the report."""
    names = {cls.__name__ for cls in type(err).__mro__}
    if "SingularSystemError" in names:
        frames = {f.name for f in traceback.extract_tb(err.__traceback__)}
        return "singular", "condition_estimate" if "condition_estimate" in frames else None
    if "NonConvergenceError" in names:
        return "nonconvergence", None
    return "other", f"{type(err).__name__}: {err}"


def calibration_loop():
    """Fixed interpreter work, timed after every job to track the host's speed.

    On a shared host the speed of the same code drifts by tens of percent
    over tens of seconds; a pure-Python loop followed that drift more
    closely than NumPy elimination did.
    """
    acc = 0.0
    for i in range(3000):
        acc = acc * 0.999 + i % 7
    return acc


def time_calibration_loop():
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def run_job(job, tracer=None):
    """(seconds, outcome, detail) of one job; only job.run is timed."""
    start = time.perf_counter()
    try:
        output = job.run()
    except Exception as err:  # a failing job is a measured outcome
        seconds = time.perf_counter() - start
        return (seconds, *classify(err))
    seconds = time.perf_counter() - start
    with tracer.paused() if tracer is not None else nullcontext():
        outcome = job.check(output)
    return seconds, outcome or "pass", None


def run_census(spec, seed, scratch, max_jobs):
    """Records of one untimed run of each of the workload's known failures."""
    census = spec.build(sys.modules["lagdde"], seed, scratch, CONFIGS, max_jobs,
                        known_failures=True)
    return [(index, *run_job(job)) for index, job in enumerate(census.jobs)]


def measure(workload, seconds, min_jobs, loops, tracer=None):
    """Whole passes over the jobs until both limits are reached.

    Appends one calibration-loop time per job to ``loops``.
    """
    records = []
    start = time.perf_counter()
    while True:
        for index, job in enumerate(workload.jobs):
            records.append((index, *run_job(job, tracer)))
            loops.append(time_calibration_loop())
        if time.perf_counter() - start >= seconds and len(records) >= min_jobs:
            return records


def at_reference_speed(metrics, units, loops):
    """Times scaled, and rates divided, by CALIBRATION_REF_S / median(loops)."""
    scale = CALIBRATION_REF_S / statistics.median(loops)
    factor = {"s": scale, "ms": scale, "1/s": 1 / scale}
    return {name: value * factor.get(units[name], 1) for name, value in metrics.items()}


def job_scales(loops):
    """Per job, CALIBRATION_REF_S over the median loop time of the jobs around it.

    The host's speed changes within a run, so the loops timed next to a job
    track the speed it ran at more closely than the run's median does.
    """
    loops = np.asarray(loops)
    return np.array([CALIBRATION_REF_S / np.median(loops[max(0, i - SPEED_WINDOW):
                                                         i + SPEED_WINDOW + 1])
                     for i in range(len(loops))])


def goodput(records):
    return sum(r[2] == "pass" for r in records) / sum(r[1] for r in records)


def seconds_per_job(records):
    return sum(r[1] for r in records) / len(records)


def fail_counts(records):
    outcomes = Counter(r[2] for r in records)
    return {f"fail.{c}": outcomes[c] for c in FAIL_CLASSES}


def metadata():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "machine": platform.machine(), "cpu": cpu, "cpus": os.cpu_count(),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_untraced(spec, seed, seconds, scratch, max_jobs):
    setups, scaled_setups = [], []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        gc.collect()
        elapsed, lag, workload = set_up(spec, seed, scratch, max_jobs)
        speed = statistics.median(time_calibration_loop()
                                  for _ in range(2 * SPEED_WINDOW + 1))
        setups.append(elapsed)
        scaled_setups.append(elapsed * CALIBRATION_REF_S / speed)
    for job in workload.jobs[:WARMUP_JOBS]:
        run_job(job)
    gc.collect()
    loops = []
    records = measure(workload, seconds,
                      len(workload.jobs) if max_jobs else spec.min_jobs, loops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passed = sum(r[2] == "pass" for r in records)

    def figures(times, setup_times):
        return {
            "setup_s": statistics.median(setup_times),
            "goodput_jobs_per_s": passed / times.sum(),
            "job_p50_ms": float(np.percentile(times, 50) * 1e3),
            "job_tail_ms": float(np.percentile(times, spec.tail_pct) * 1e3),
            "fail_ratio": 1 - passed / len(records),
            "peak_rss_mb": peak_rss_mb,
        }

    durations = np.array([r[1] for r in records])
    metrics = figures(durations * job_scales(loops), scaled_setups)
    raw = figures(durations, setups)
    census = run_census(spec, seed, scratch, max_jobs)
    return records, metrics, raw, loops, len(workload.jobs), census


def run_traced(spec, seed, seconds, scratch, max_jobs):
    """Untraced passes for the overhead baseline, then one traced set-up and pass."""
    _, lag, workload = set_up(spec, seed, scratch, max_jobs)
    for job in workload.jobs[:WARMUP_JOBS]:
        run_job(job)
    loops = []
    untraced = measure(workload, seconds, 1, loops)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        workload = spec.build(lag, seed, scratch, CONFIGS, max_jobs)
        records = measure(workload, 0, 1, loops, tracer)
    finally:
        tracer.uninstall()
    census = run_census(spec, seed, scratch, max_jobs)
    figures = tracer.layer_metrics()
    figures.update(fail_counts(records + census))
    figures["cli.bytes_written"] = workload.counts["cli.bytes_written"]
    figures["trace.goodput_untraced_jobs_per_s"] = goodput(untraced)
    figures["trace.goodput_traced_jobs_per_s"] = goodput(records)
    figures["trace.overhead_ratio"] = seconds_per_job(records) / seconds_per_job(untraced)
    figures["collocation.history_calls"] = figures["collocation.history.calls"]
    raw = {name: figures[name] for name in PER_LAYER}
    metrics = at_reference_speed(raw, PER_LAYER, loops)
    return records, metrics, raw, loops, len(workload.jobs), census


def units(trace):
    return PER_LAYER if trace else END_TO_END


def report(name, spec, args, records, metrics, raw, loops, pass_jobs, census):
    """Human-readable lines; the caller prints the JSON line after them."""
    passes = len(records) // pass_jobs
    loop = statistics.median(loops)
    print(f"workload {name}  seed {args.seed}  trace {args.trace}: "
          f"{len(records)} jobs ({pass_jobs} per pass x {passes}), "
          f"{sum(r[1] for r in records):.2f} s timed; calibration loop median "
          f"{loop * 1e3:.4f} ms, run scale {CALIBRATION_REF_S / loop:.4f}")
    for metric, value in metrics.items():
        note = f"  (as timed: {raw[metric]:.6g})" if value != raw[metric] else ""
        if metric == "job_tail_ms":
            beyond = len(records) * (1 - spec.tail_pct / 100)
            note += f"  p{spec.tail_pct:g} of {len(records)} jobs, {beyond:.0f} beyond it"
        elif metric == "setup_s":
            note += f"  median of {SETUP_REPS}+ set-ups, {SETUP_MIN_S:g}+ s in all"
        print(f"  {metric:36s} {value:14.6g} {units(args.trace)[metric]}{note}")
    failed = sum(r[2] != "pass" for r in records)
    if failed:
        print(f"  NOT CORRECT: {failed} timed jobs failed: "
              + "  ".join(f"{k} {v}" for k, v in fail_counts(records).items()))
    if not census:
        return
    fails = fail_counts(census)
    in_cond = sum(r[3] == "condition_estimate" for r in census)
    print(f"  known failures, run once untimed: fail_ratio "
          f"{sum(fails.values()) / len(census):.4g} of {len(census)} jobs  "
          + "  ".join(f"{k} {v}" for k, v in fails.items())
          + f"  (singular raised in condition_estimate: {in_cond})")
    for detail in sorted({r[3] for r in census if r[2] == "other" and r[3]})[:3]:
        print(f"  fail.other: {detail}")


def run_all(args):
    """Every workload in turn, each in its own process."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.max_jobs:
            argv += ["--max-jobs", str(args.max_jobs)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="keep only the first jobs of each pass (smoke runs)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            records, metrics, raw, loops, pass_jobs, census = runner(
                spec, args.seed, args.seconds, Path(tmp), args.max_jobs)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata()))
    report(args.workload, spec, args, records, metrics, raw, loops, pass_jobs, census)
    failed = sum(r[2] != "pass" for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(args.trace)[name]}
                    for name, value in metrics.items() if name not in REPORT_ONLY},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
