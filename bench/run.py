"""Cold-start benchmark of the realgw calculator.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of jobs (workloads.py).  Each job is a fresh
interpreter (job.py), run one at a time, so every memo table starts empty,
as it does for a user who runs one command per query.  ``--seed`` only
permutes the job order.

With ``--trace 0`` the run cycles through the job list for about
``--seconds``: every job runs at least once, and after that a job starts only
while its last duration says it will end within ``--seconds``.  A set-up probe
(interpreter start plus ``import realgw``) runs before every job and five run
after the last one.  The run reports the end-to-end metrics of BENCHMARK.json
from outside the jobs: the sum over the jobs of each job's median wall time,
the same for the CPU time of the job processes, the median set-up time over
the probes and the jobs, and the largest max-RSS of any job process.

The times are in reference seconds: each job times a fixed chunk of work
while it runs (reference.py), and run.py scales the job's wall time less the
chunks, and its set-up time, by reference.CHUNK_S over the job's mean chunk
wall time, and its CPU time less the chunks by CHUNK_S over the mean chunk
CPU time.  So a time reads as it would on a machine on which a chunk
takes CHUNK_S, and the minutes in which a shared machine runs slower do not
move it.  The raw times and the chunk times are in the record line.

With ``--trace 1`` the run makes one untraced pass and then one traced pass,
in which tracer.Tracer wraps realgw's layer boundaries inside each job, and
reports the per-layer metrics: counts and times summed over the jobs, the
tracing overhead (traced minus untraced pass wall time) and the share of the
traced wall time spent in the workload's heavy layers.

Every job's stdout must equal its expected bytes and its exit status must be
0; anything else counts as a failed job.  A traced run also fails when a
heavy layer records no call.  The last stdout line is the JSON result; the
line before it records the run: seed, job order, Python version, CPUs, load
average at start, per-job raw times, the reference times and, when traced,
the share of the traced wall time that each span name spent in its own code
(self time).  Job processes run without REALGW_CACHE_DIR, PYTHONOPTIMIZE and
PYTHONDONTWRITEBYTECODE, so no pickle cache warms them, the import-time
self-validation runs, and the bytecode caches are written once (by an
untimed first import) and then used.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference
from workloads import JOBS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up probes after the last job; one more runs before every job.
SETUP_PROBES = 5
# A run must end within 180 s; jobs still running at this point are killed.
RUN_DEADLINE_S = 170.0


@dataclass
class JobRun:
    name: str
    ok: bool
    wall_s: float
    cpu_s: float
    max_rss_kb: int
    setup_s: float | None
    report: dict

    def scaled(self, seconds: float, clock: int = 0) -> float:
        """``seconds`` of this job in reference seconds (reference.py), by
        the chunks' wall (``clock`` 0) or CPU (``clock`` 1) times."""
        chunks = [times[clock] for times in self.report["refs"]]
        return seconds * reference.CHUNK_S / statistics.mean(chunks)

    def chunk_seconds(self, clock: int = 0) -> float:
        return sum(times[clock] for times in self.report.get("refs", ()))


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    # No pickle cache and no -O: self_validate runs on import, as by default.
    # Bytecode caches stay on, as an installed package has them.
    for var in ("REALGW_CACHE_DIR", "PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing, so the traced counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(name: str, deadline: float, heavy=None) -> JobRun:
    """Run one job to completion (or kill it at ``deadline``) and measure it."""
    argv = [sys.executable, str(BENCH / "job.py"), name]
    read_fd, write_fd = os.pipe()
    argv.append(str(write_fd))
    if heavy is not None:
        argv += ["--trace", *heavy]
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=job_env(), stdout=subprocess.PIPE, pass_fds=(write_fd,)
        )
    finally:
        os.close(write_fd)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        with proc.stdout, os.fdopen(read_fd, "rb") as report_pipe:
            stdout = proc.stdout.read()
            raw_report = report_pipe.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(raw_report)
    except ValueError:
        report = {}
    expected = None if name == "setup" else JOBS[name].expected.encode()
    ok = proc.returncode == 0 and "ready" in report and (
        expected is None or stdout == expected
    )
    if not ok:
        print(f"job {name} failed: exit {proc.returncode}, stdout {stdout!r}", file=sys.stderr)
    return JobRun(
        name,
        ok,
        end - start,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        report["ready"] - start if "ready" in report else None,
        report,
    )


def run_pass(order, deadline: float, heavy=None) -> tuple[float, list[JobRun]]:
    start = time.monotonic()
    runs = [run_job(name, deadline, heavy) for name in order]
    return time.monotonic() - start, runs


def sample_jobs(order, seconds: float, deadline: float):
    """Run the jobs round-robin in ``order`` for about ``seconds``.

    Every job runs at least once.  After that a job starts only while its
    last wall time says it will end within ``seconds``; the first job that
    would not ends the run.  A set-up probe runs before every job, so the
    probes spread over the run, and SETUP_PROBES more run at the end.
    """
    probes, runs = [], []
    last: dict[str, float] = {}
    start = time.monotonic()
    for name in itertools.cycle(order):
        if name in last and time.monotonic() - start + last[name] > seconds:
            break
        probes.append(run_job("setup", deadline))
        runs.append(run_job(name, deadline))
        last[name] = runs[-1].wall_s
    probes += [run_job("setup", deadline) for _ in range(SETUP_PROBES)]
    return probes, runs


def layer_metrics(traced: list[JobRun], traced_wall: float, untraced_wall: float) -> dict:
    totals = summed(traced, "trace")
    found = totals.get("localization.classes", 0)
    wasted = totals.get("localization.iso_matches", 0)
    totals["localization.class_yield"] = found / (found + wasted) if found else 0.0
    totals["trace.overhead_s"] = traced_wall - untraced_wall
    heavy_s = sum(run.report.get("heavy_s", 0.0) for run in traced)
    totals["trace.heavy_share"] = heavy_s / traced_wall
    return totals


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summed(traced: list[JobRun], key: str) -> dict[str, float]:
    """Sum one per-name field of the traced job reports over the jobs."""
    totals: dict[str, float] = {}
    for run in traced:
        for name, value in run.report.get(key, {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "realgw" / "__init__.py").is_file():
        print(f"error: no realgw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    order = list(workload.jobs)
    random.Random(args.seed).shuffle(order)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "job_order": order,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }

    # Untimed first import: writes the bytecode caches.
    if not run_job("setup", deadline).ok:
        print("error: import realgw failed", file=sys.stderr)
        return 1

    if args.trace:
        untraced_wall, untraced = run_pass(order, deadline)
        # Untraced jobs also time reference chunks; traced ones do not.
        untraced_wall -= sum(run.chunk_seconds() for run in untraced)
        traced_wall, traced = run_pass(order, deadline, workload.heavy)
        runs = untraced + traced
        values = layer_metrics(traced, traced_wall, untraced_wall)
        calls = summed(traced, "heavy_calls")
        record["heavy_calls"] = calls
        record["self_share"] = {
            name: seconds / traced_wall
            for name, seconds in sorted(summed(traced, "self_s").items())
        }
        correct = all(calls.get(layer, 0) > 0 for layer in workload.heavy)
        wanted = spec["per_layer"]
    else:
        probes, runs = sample_jobs(order, args.seconds, deadline)
        walls = {name: [] for name in order}
        cpu_times = {name: [] for name in order}
        for run in runs:
            if "refs" in run.report:
                wall = run.wall_s - run.chunk_seconds()
                cpu = run.cpu_s - run.chunk_seconds(1)
                walls[run.name].append(run.scaled(wall))
                cpu_times[run.name].append(run.scaled(cpu, 1))
        setups = [
            run.scaled(run.setup_s) for run in probes + runs if "refs" in run.report
        ]
        # A failed job reports no chunks; the run then reads as not correct.
        values = {
            "wall_s": sum(median(walls[name]) for name in order),
            "cpu_s": sum(median(cpu_times[name]) for name in order),
            "setup_s": median(setups),
            "peak_rss_mb": max(run.max_rss_kb for run in runs) / 1024,
        }
        record["samples"] = {name: len(walls[name]) for name in order}
        correct = all(probe.ok for probe in probes)
        wanted = spec["end_to_end"]

    record["jobs"] = [
        {
            "job": run.name,
            "ok": run.ok,
            "wall_s": run.wall_s,
            "cpu_s": run.cpu_s,
            "setup_s": run.setup_s,
            "refs": run.report.get("refs"),
        }
        for run in runs
    ]
    failed = sum(not run.ok for run in runs)
    print(json.dumps(record))
    result = {
        "correct": correct and failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
