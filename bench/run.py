"""lindforge benchmark: derive -> propagate -> oracle on seeded scenarios.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

A closed loop: one client in one process runs a workload's job list back to
back, pass after pass, until the next pass would end after S seconds (at
least three passes). Each workload runs in its own process with BLAS pinned
to one thread. --workload all runs every workload, each in a child process.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics plus the tracing overhead. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it print
every metric with its unit and sample count, and the numeric environment.
"""

import os

# must precede the first numpy import, here and in every child process
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# claims are confirmed on this seed, never on one used while writing a change
HELD_OUT_SEED = 20080117
# fewest interpreters started per run to time `import lindforge`: one after
# each untraced pass, and the rest after the last
SETUP_PROBES = 7
# fewest untraced passes per run; each job's time is its mean over them
MIN_PASSES = 3
# job_tail_s: this percentile of the jobs' mean times
TAIL_PCT = 90

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import lindforge\n"
    "t = time.perf_counter() - t\n"
    "print(repr(t), lindforge.__file__)\n"
)

END_TO_END = (
    ("setup_s", "s"), ("batch_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)
TIME_LAYERS = (
    "scenario.load_s", "spectral.spectrum_s", "spectral.eigenops_s",
    "bath.rates_s", "bath.center_s", "bath.correlation_s", "bath.corr_time_s",
    "bath.two_time_s", "generator.assemble_s", "generator.rate_tensors_s",
    "generator.pauli_s", "generator.rhs_build_s", "generator.rhs_apply_s",
    "generator.superop_s", "dynamics.propagate_s", "dynamics.oracle_s",
    "dynamics.timescale_s", "cli.battery_s", "cli.report_s", "cli.csv_s",
)
COUNT_LAYERS = (
    "scenario.docs", "spectral.bohr_count", "bath.rate_calls",
    "bath.two_time_calls", "generator.pauli_calls", "generator.terms",
    "generator.k_entries", "generator.rhs_calls", "dynamics.rk4_rhs_calls",
    "dynamics.superop_dim", "dynamics.oracle_dim", "cli.checks",
    "cli.checks_failed",
)
# counters read off public outputs by pipeline.check, summed per pass
OUTPUT_COUNTERS = (
    "spectral.bohr_count", "generator.terms", "generator.k_entries",
    "dynamics.superop_dim", "dynamics.oracle_dim", "cli.checks",
    "cli.checks_failed",
)
# diagnostics: largest value over the jobs of a pass
MAX_DIAGNOSTICS = ("dynamics.rk4_err_max", "dynamics.oracle_td_max")


def import_lindforge():
    """Import the library from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import lindforge

    where = pathlib.Path(lindforge.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"lindforge imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# numeric environment


def _blas_thread_counts() -> dict:
    """Threads each loaded BLAS library will use, asked of the library."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads",
             "MKL_Get_Max_Threads", "bli_thread_get_num_threads")
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            base = os.path.basename(path).lower()
            if path.startswith("/") and any(k in base for k in ("openblas", "mkl_rt", "blis")):
                libs.add(path)
    counts = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = int(fn())
                break
    return counts


def numeric_environment() -> dict:
    import numpy
    import scipy

    def blas_of(module):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"

    threads = _blas_thread_counts()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas_of(numpy), "scipy": blas_of(scipy)},
        "blas_threads": threads,
        "blas_pinned": bool(threads) and all(n == 1 for n in threads.values()),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(count: int) -> list[float]:
    """Wall time of `import lindforge` in `count` fresh interpreters."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        seconds, where = proc.stdout.split()
        if SRC.resolve() not in pathlib.Path(where).resolve().parents:
            raise ImportError(f"probe imported lindforge from {where}")
        times.append(float(seconds))
    return times


def run_pass(jobs, tracer, pipeline, reported: set) -> dict:
    """Every job once, back to back. Job times cover the library calls only;
    the output checks between jobs are not timed. A failing job is named on
    stderr once, and added to `reported`."""
    job_times, misses = {}, 0
    counters = dict.fromkeys(OUTPUT_COUNTERS, 0)
    diagnostics = dict.fromkeys(MAX_DIAGNOSTICS, 0.0)
    for job in jobs:
        start = time.perf_counter()
        try:
            out = pipeline.execute(job, tracer)
        except Exception:  # a raising job is a failed job; keep measuring
            misses += 1
            if job.name not in reported:
                reported.add(job.name)
                sys.stderr.write(f"job {job.name} raised:\n{traceback.format_exc()}")
            continue
        job_times[job.name] = time.perf_counter() - start
        tracer.enabled = False
        job_misses, job_counters = pipeline.check(job, out)
        tracer.enabled = True
        if job_misses:
            misses += 1
            if job.name not in reported:
                reported.add(job.name)
                sys.stderr.write(f"job {job.name} missed: {'; '.join(job_misses)}\n")
        for key in OUTPUT_COUNTERS:
            counters[key] += job_counters[key]
        for key in MAX_DIAGNOSTICS:
            diagnostics[key] = max(diagnostics[key], job_counters.get(key, 0.0))
    return {"batch": sum(job_times.values()), "jobs": job_times, "failed": misses,
            "attempted": len(jobs), "counters": counters,
            "diagnostics": diagnostics}


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of quantile p: a mean of the order
    statistics weighted by a beta distribution, so it moves smoothly when the
    jobs near the quantile's rank change places, where a single order
    statistic jumps from one job to the next."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], ordered)))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# one workload in this process


def self_check(workloads, workload: str, seed: int) -> list[str]:
    """Generation must be a pure function of the seed."""
    first = [j.text for j in workloads.generate(workload, seed)]
    again = [j.text for j in workloads.generate(workload, seed)]
    other = [j.text for j in workloads.generate(workload, seed + 1)]
    problems = []
    if first != again:
        problems.append("same seed gave different scenario documents")
    if any(a == b for a, b in zip(first, other)):
        problems.append("a different seed reproduced a scenario document")
    return problems


def run_workload(args) -> int:
    import_lindforge()
    import pipeline
    import tracing
    import workloads

    env = numeric_environment()
    jobs = workloads.generate(args.workload, args.seed)
    problems = self_check(workloads, args.workload, args.seed)

    null = tracing.NullTracer()
    reported = set()
    run_pass(jobs[:1], null, pipeline, reported)  # warm-up: lazy imports, first calls

    print(f"# lindforge benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}  held-out seed={HELD_OUT_SEED}")
    print(f"# jobs per pass: {len(jobs)}  closed loop, 1 client, 1 process")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    if not env["blas_pinned"]:
        print("# WARNING: effective BLAS threads != 1; timings are not comparable")
        sys.stderr.write(f"BLAS threads not pinned: {env['blas_threads']}\n")
    for problem in problems:
        sys.stderr.write(f"benchmark self-check: {problem}\n")

    if args.trace:
        result = traced_metrics(jobs, pipeline, tracing, null, args.seconds,
                                reported)
    else:
        result = end_to_end_metrics(jobs, pipeline, null, args.seconds, reported)
    result["correct"] = result["failed"] == 0 and not problems
    rows = result.pop("rows")
    print(f"{'metric':26s} {'value':>14s} {'unit':10s} samples")
    for name, value, unit, samples in rows:
        print(f"{name:26s} {value:14.6g} {unit:10s} {samples}")
    print(f"{'fail_ratio':26s} {result['failed'] / result['attempted']:14.6g} "
          f"{'1':10s} {result['failed']} failed of {result['attempted']} attempted")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def end_to_end_metrics(jobs, pipeline, null, seconds, reported) -> dict:
    """Passes until the next one would end after `seconds`, and at least
    MIN_PASSES. One import probe after each pass spreads them over the run.

    The speed of the host drifts in stretches of seconds to a minute, so
    each job's time is its mean over the passes of the whole run, and the
    job metrics are read off those means."""
    passes, walls, setup = [], [], []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(walls) <= seconds):
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, null, pipeline, reported))
        setup += measure_setup(1)
        walls.append(time.perf_counter() - t0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(max(0, SETUP_PROBES - len(setup)))
    samples = {}
    for p in passes:
        for name, t in p["jobs"].items():
            samples.setdefault(name, []).append(t)
    means = [statistics.fmean(ts) for ts in samples.values()]
    n, k = len(means), len(passes)
    values = {
        "setup_s": (statistics.median(setup), f"{len(setup)} interpreters, median"),
        "batch_s": (sum(means), f"{n} jobs x {k} passes, sum of job means"),
        "job_p50_s": (harrell_davis(means, 0.5),
                      f"{n} jobs x {k} passes, Harrell-Davis p50 of job means"),
        "job_tail_s": (harrell_davis(means, TAIL_PCT / 100.0),
                       f"{n} jobs x {k} passes, Harrell-Davis p{TAIL_PCT:g} of job means"),
        "peak_rss_mb": (rss_mb, "1 process"),
    }
    rows = [(name, values[name][0], unit, values[name][1]) for name, unit in END_TO_END]
    worst = {key: max(p["diagnostics"][key] for p in passes) for key in MAX_DIAGNOSTICS}
    for key, value in worst.items():
        if value:
            rows.append((key, value, "trace_distance", "max over jobs (diagnostic)"))
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: metric(values[name][0], unit) for name, unit in END_TO_END},
        "rows": rows,
    }


def traced_metrics(jobs, pipeline, tracing, null, seconds, reported) -> dict:
    """Untraced and traced passes alternate until the next pair would end
    after `seconds`, so drift in machine speed falls on both sides of the
    overhead ratio."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    pair_wall = 0.0
    while not traced or time.perf_counter() - start + pair_wall <= seconds:
        t0 = time.perf_counter()
        plain.append(run_pass(jobs, null, pipeline, reported))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(jobs, tracer, pipeline, reported))
        finally:
            tracer.uninstall()
        traced[-1]["trace"] = tracer.snapshot()
        pair_wall = time.perf_counter() - t0

    n_jobs = len(jobs)
    values = {}
    for name in TIME_LAYERS:
        values[name] = statistics.median(p["trace"]["busy"].get(name, 0.0)
                                         for p in traced)
    for name in COUNT_LAYERS:
        if name in OUTPUT_COUNTERS:
            values[name] = traced[0]["counters"][name]
        else:
            values[name] = traced[0]["trace"]["counts"].get(name, 0)
    values["bath.rate_calls"] = values["bath.rate_calls"] / n_jobs
    for name in MAX_DIAGNOSTICS:
        values[name] = max(p["diagnostics"][name] for p in traced)
    values["trace.overhead_ratio"] = (
        statistics.median(p["batch"] for p in traced)
        / statistics.median(p["batch"] for p in plain))

    units = {name: "s" for name in TIME_LAYERS}
    units.update({name: "count" for name in COUNT_LAYERS})
    units["bath.rate_calls"] = "count/job"
    units.update({name: "trace_distance" for name in MAX_DIAGNOSTICS})
    units["trace.overhead_ratio"] = "ratio"
    samples = {name: f"{len(traced)} traced passes, median self time per pass"
               for name in TIME_LAYERS}
    samples.update({name: "exact count per pass" for name in COUNT_LAYERS})
    samples["bath.rate_calls"] = f"exact count per job ({n_jobs} jobs)"
    samples.update({name: "max over jobs" for name in MAX_DIAGNOSTICS})
    samples["trace.overhead_ratio"] = (
        f"{len(traced)} traced / {len(plain)} untraced passes, medians")
    rows = [(name, values[name], units[name], samples[name]) for name in values]
    every = plain + traced
    return {
        "attempted": sum(p["attempted"] for p in every),
        "failed": sum(p["failed"] for p in every),
        "metrics": {name: metric(values[name], units[name]) for name in values},
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# every workload, each in its own process


def run_all(args, workload_names) -> int:
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workload_names:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(lines[-1])
            status = proc.returncode
            continue
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            totals["metrics"][f"{name}:{key}"] = value
        print()
    print(json.dumps(totals))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import workloads

    names = workloads.WORKLOADS
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected all or one "
                     f"of {', '.join(names)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
