#!/usr/bin/env python3
"""Benchmark of the oqf library on four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ct_512 --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with one client: the next job
starts when the previous one has finished, until ``--seconds`` have passed
(at least one job).  Every job's output is checked; a job that raises or
fails a check counts as failed.  Right before and after each job the loop
times a fixed reference kernel (reference.py); the gated ``job_rel`` is the
median over jobs of job time / reference time, which cancels the shared
host's drift in speed.  Set-up time and the first job of a fresh process are
timed in fresh processes started between jobs (see ``Probes``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that traces every other job (see spans.py) and reports per-layer self
times and computed work counts, plus the tracing overhead against the
untraced jobs in between.

The lines before the last describe the run (seed, environment, every metric
with its unit); the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from the
checkout's ``src/``; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up and the cold job are timed in PROBES fresh processes started between
# the main loop's jobs, spread over the run (see Probes).  The machine's speed
# drifts over seconds, so medians over probes spread in time are steadier
# than over a burst.
PROBES = 15
MIN_COLD = 3
COLD_SHARE = 0.2

# Per-layer self times: metric prefix -> span names whose self times add up.
SELF_TIME_METRICS = {
    "quadrature.coefficient_matrix": ("quadrature.coefficient_matrix",),
    "quadrature.optimal_coefficients": ("quadrature.optimal_coefficients",),
    "quadrature.monomial_fourier_integral": ("quadrature.monomial_fourier_integral",),
    "oracle.solve_coefficient_system": ("oracle.solve_coefficient_system",),
    "oracle.error_norm_bruteforce": ("oracle.error_norm_bruteforce",),
    "transform.forward_transform": ("transform.forward_transform",),
    "transform.inverse_transform": ("transform.inverse_transform",),
    "transform.error_sweep": ("transform.error_sweep",),
    "ct.phantom.radon_analytic": ("ct.phantom.radon_analytic",),
    "ct.phantom.rasterize": ("ct.phantom.rasterize",),
    "ct.fbp.filter_projections": ("ct.fbp.filter_projections",),
    "ct.fbp.backproject": ("ct.fbp.backproject",),
    "ct.metrics.image_metrics": ("ct.metrics.image_metrics",),
    "io.read_complex_csv": ("io.read_complex_csv",),
    "io.write_complex_csv": ("io.write_complex_csv",),
    "io.sinogram": ("io.read_sinogram", "io.write_sinogram"),
    "io.image": ("io.read_image", "io.write_image"),
    "verify.run_checks": ("verify.run_checks",),
}

# Computed counts and numeric-health maxima, per job:
# metric name -> (span name, count key, unit).
COUNT_METRICS = {
    "quadrature.coefficient_matrix.calls": ("quadrature.coefficient_matrix", "calls", "count"),
    "quadrature.coefficient_matrix.weights": ("quadrature.coefficient_matrix", "weights", "count"),
    "quadrature.coefficient_matrix.bytes_computed":
        ("quadrature.coefficient_matrix", "bytes_computed", "bytes"),
    "quadrature.monomial_fourier_integral.calls":
        ("quadrature.monomial_fourier_integral", "calls", "count"),
    "ct.fbp.backproject.samples": ("ct.fbp.backproject", "samples", "count"),
    "ct.fbp.max_imag": ("ct.fbp.filter_projections", "max_imag", "1"),
    "oracle.solve_coefficient_system.calls": ("oracle.solve_coefficient_system", "calls", "count"),
    "oracle.solve_coefficient_system.max_condition":
        ("oracle.solve_coefficient_system", "max_condition", "1"),
}


@dataclass
class Job:
    index: int
    seconds: float
    traced: bool
    failures: list[str]
    ref_seconds: float = 0.0
    values: dict = field(default_factory=dict)
    self_times: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    spans: int = 0


def bootstrap() -> None:
    """Import oqf from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "oqf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no oqf package under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import oqf

    if Path(oqf.__file__).resolve().parent != src / "oqf":
        sys.exit(f"perfbench: imported oqf from {oqf.__file__}, not from {src}")


def run_jobs(workload, seed: int, seconds: float, workdir: Path,
             tracer=None, min_jobs: int = 1, probes: Probes | None = None,
             reference_reps: int = 0) -> list[Job]:
    """Closed loop: jobs back to back until ``seconds`` and ``min_jobs`` are met.

    With a tracer, even-numbered jobs are traced and odd ones are not.
    With ``reference_reps``, the reference kernel runs that many times right
    before and right after each untraced job, and the mean of the two times
    is kept with the job.  The run after one job is the run before the next,
    unless a probe came between them.
    ``probes`` run between jobs, evenly spread over ``seconds``; the time
    they take does not count against ``seconds``.
    """
    import numpy as np
    import reference
    from spans import Instrumented

    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    loop_start, paused, probed = time.perf_counter(), 0.0, 0
    before = None  # the reference's time just before the next job
    while len(jobs) < min_jobs or time.perf_counter() - loop_start - paused < seconds:
        index = len(jobs)
        traced = tracer is not None and index % 2 == 0
        job = Job(index, 0.0, traced, [])
        try:
            inp = workload.make_input(index, rng, workdir)
            if traced:
                tracer.reset()
                with Instrumented(tracer):
                    start = time.perf_counter()
                    root = tracer.open("job")
                    out = workload.run(inp, workdir)
                    tracer.close(root)
                    job.seconds = time.perf_counter() - start
                job.self_times = tracer.self_times()
                job.counts = tracer.counts
                job.spans = len(tracer.spans)
            else:
                if reference_reps and before is None:
                    before = reference.run(reference_reps)
                start = time.perf_counter()
                out = workload.run(inp, workdir)
                job.seconds = time.perf_counter() - start
                if reference_reps:
                    after = reference.run(reference_reps)
                    job.ref_seconds = (before + after) / (2 * reference_reps)
                    before = after
            job.failures, job.values = workload.check(index, inp, out)
        except Exception as exc:  # a failed job is counted, and the loop goes on
            traceback.print_exc()
            job.failures = [f"{type(exc).__name__}: {exc}"]
            before = None
        for failure in job.failures:
            print(f"perfbench: job {index} failed: {failure}", file=sys.stderr)
        jobs.append(job)
        while probes is not None and probed < PROBES and (
            time.perf_counter() - loop_start - paused >= probed * seconds / PROBES
        ):
            began = time.perf_counter()
            probes.run(probed, jobs)
            paused += time.perf_counter() - began
            probed += 1
            before = None
    if probes is not None:
        for k in range(probed, PROBES):
            probes.run(k, jobs)
    return jobs


def fastest_tenth(times: list[float]) -> float:
    """10th percentile (nearest rank): the minimum below ten samples."""
    ordered = sorted(times)
    return ordered[math.ceil(0.1 * len(ordered)) - 1]


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 jobs beyond it."""
    ordered = sorted(times)
    i = len(ordered) - 11
    return None if i < 0 else (100.0 * (i + 1) / len(ordered), ordered[i])


class Probes:
    """Fresh benchmark processes that time set-up and the cold job.

    Every probe times its process from start to ready.  Cold probes then
    run job 0 and report its time; they are spread evenly among the others,
    as many as make their jobs take COLD_SHARE of the run by the main loop's
    first job, at least MIN_COLD.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.setups: list[float] = []
        self.colds: list[Job] = []

    def run(self, k: int, jobs: list[Job]) -> None:
        wanted = int(COLD_SHARE * self.seconds / max(jobs[0].seconds, 1e-3))
        wanted = min(PROBES, max(MIN_COLD, wanted))
        cold = k % (PROBES // wanted) == 0 and len(self.colds) < wanted
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--probe", "cold" if cold else "setup"]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait(timeout=120)
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"{self.workload} probe exited with {proc.returncode}")
        self.setups.append(setup)
        if cold:
            record = json.loads(rest)
            self.colds.append(Job(0, record["seconds"], False, record["failures"]))


def end_to_end(jobs: list[Job], probes: Probes) -> tuple[dict, dict]:
    """The end-to-end metrics, and a fuller report of the run."""
    warm_jobs = jobs[1:] or jobs
    warm = [j.seconds for j in warm_jobs]
    cold = [j.seconds for j in probes.colds]
    # A job that raised has no reference time; if every one did, the run is
    # incorrect anyway.
    rel = [j.seconds / j.ref_seconds for j in warm_jobs if j.ref_seconds] or [math.inf]
    metrics = {
        "setup_s": (statistics.median(probes.setups), "s"),
        "job_rel": (statistics.median(rel), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = dict(metrics)
    report["job_s"] = (statistics.median(warm), "s")
    report["job_s_p10"] = (fastest_tenth(warm), "s")
    report["ref_s"] = (statistics.median(j.ref_seconds for j in warm_jobs), "s")
    report["warm_jobs"] = (len(warm), "count")
    report["cold_job_s"] = (statistics.median(cold), "s")
    report["cold_job_s_p10"] = (fastest_tenth(cold), "s")
    report["cold_jobs"] = (len(cold), "count")
    found = tail(warm)
    if found is not None:
        report["job_s_tail"] = (found[1], "s")
        report["job_s_tail_percentile"] = (found[0], "%")
    attempted = jobs + probes.colds
    report["fail_ratio"] = (sum(bool(j.failures) for j in attempted) / len(attempted), "1")
    report.update(jobs[0].values)
    return metrics, report


@contextlib.contextmanager
def scratch_dir(workload: str):
    """A per-process directory in the checkout for the files a job writes."""
    path = ROOT / ".bench_build" / "perfbench" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def per_layer(jobs: list[Job]) -> dict:
    traced = [j for j in jobs if j.traced]
    warm_traced = [j for j in traced if j.index > 0] or traced
    warm_plain = [j for j in jobs if not j.traced and j.index > 0]
    first = traced[0]
    metrics = {}
    for prefix, names in SELF_TIME_METRICS.items():
        per_job = [sum(j.self_times.get(n, 0.0) for n in names) for j in warm_traced]
        metrics[f"{prefix}.self_s"] = (statistics.median(per_job), "s")
    for name, (span, key, unit) in COUNT_METRICS.items():
        metrics[name] = (first.counts.get(span, {}).get(key, 0), unit)
    traced_s = statistics.median(j.seconds for j in warm_traced)
    plain_s = statistics.median(j.seconds for j in warm_plain)
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.spans"] = (first.spans, "count")
    return metrics


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oqf benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "cold"),
                        help="set up, print 'ready', run job 0 if 'cold', and exit")
    args = parser.parse_args(argv)

    bootstrap()
    import oqf.ct  # noqa: F401  (the CLI's imports: oqf, oqf.ct, oqf.io)
    import oqf.io  # noqa: F401
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.probe:
        print("ready", flush=True)
        if args.probe == "cold":
            with scratch_dir(args.workload) as workdir:
                job = run_jobs(workload, args.seed, 0, workdir)[0]
            print(json.dumps({"seconds": job.seconds, "failures": job.failures}))
        return 0

    with scratch_dir(args.workload) as workdir:
        if args.trace:
            jobs = run_jobs(workload, args.seed, args.seconds, workdir, Tracer(), min_jobs=3)
            metrics = report = per_layer(jobs)
            attempted = jobs
        else:
            probes = Probes(args.workload, args.seed, args.seconds)
            jobs = run_jobs(workload, args.seed, args.seconds, workdir, probes=probes,
                            reference_reps=workload.reference_reps)
            metrics, report = end_to_end(jobs, probes)
            attempted = jobs + probes.colds

    failed = sum(bool(j.failures) for j in attempted)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} cold_probes={len(attempted) - len(jobs)} failed={failed}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for name, (value, unit) in report.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # One BLAS thread (<= nproc anywhere): the closed loop then occupies one
    # CPU, which keeps run-to-run spread lower on a shared machine.  Set
    # before numpy loads; the probe processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
