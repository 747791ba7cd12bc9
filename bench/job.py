"""One benchmark job in a fresh interpreter; started by run.py.

Usage: python3 bench/job.py JOB REPORT_FD [--trace HEAVY_LAYER ...]

JOB names an entry of workloads.JOBS, or is ``setup`` to stop right after
``import realgw``.  The job's output goes to stdout and its exit status is
the command's.  When it ends, the job writes one JSON object to the file
descriptor REPORT_FD: ``ready`` is the CLOCK_MONOTONIC time at which
``import realgw`` had finished (the end of set-up), and with ``--trace`` the
per-layer metrics of tracer.Tracer, the self time of every span name, and the
time and calls of the heavy layers.  Without ``--trace`` it also holds
``refs``, the wall and CPU times of the reference chunks (reference.py) the
job ran: three
right after set-up for ``setup``, and for a job one when it starts, one every
reference.INTERVAL_S seconds while it runs and one when it ends.
"""

import sys
import time

import realgw

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
from fractions import Fraction  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def _gw_real(genus: int, degree: int) -> int:
    print(realgw.gw_real(genus, degree))
    return 0


def _enumerate_pairs(genus: int, degree: int) -> int:
    pairs = realgw.enumerate_pairs(genus, degree)
    print(len(pairs), sum(Fraction(1, p.aut_order) for p in pairs))
    return 0


LIBRARY = {"gw_real": _gw_real, "enumerate_pairs": _enumerate_pairs}


def main(argv: list[str]) -> int:
    job, report_fd = argv[1], int(argv[2])
    heavy = argv[4:] if argv[3:4] == ["--trace"] else None
    report: dict = {"ready": READY}
    status = 0
    if job == "setup":
        report["refs"] = [reference.chunk() for _ in range(3)]
    else:
        program, *args = workloads.JOBS[job].command
        if program == "realgw":
            from realgw.cli import main as cli_main

            def call() -> int:
                return cli_main(args)
        else:
            def call() -> int:
                return LIBRARY[program](*map(int, args))
        tracer = sampler = None
        if heavy is not None:
            from tracer import Tracer

            tracer = Tracer(heavy).install()
        else:
            sampler = reference.Sampler().start()
        status = call()
        if sampler is not None:
            report["refs"] = sampler.stop()
        if tracer is not None:
            report["self_s"] = dict(tracer.self_seconds)
            report["trace"] = tracer.metrics()
            report["heavy_s"] = tracer.heavy_seconds
            report["heavy_calls"] = {name: tracer.calls[name] for name in heavy}
    sys.stdout.flush()
    with os.fdopen(report_fd, "w") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
