"""Self-test of the benchmark.

Usage (from the repository root):

    python3 bench/selftest.py [--write] [WORKLOAD ...]

1. Checks the expected outputs in workloads.py against the bundled
   ``table2_real.csv``, read here with its own parser.
2. Makes two traced passes of each workload (all of them by default) and
   fails unless every count of BENCHMARK.json's per-layer metrics is
   identical between the two, and unless both passes give correct outputs.
3. Compares the counts with the record in counters.json and prints every
   difference; ``--write`` records the counts instead.  A difference is not
   a failure: a change to an algorithm moves its counts by design.

Exit status 0 when the checks of 1 and 2 pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import workloads
from run import BENCH, ROOT, layer_metrics, run_pass, summed

RECORD = BENCH / "counters.json"


def bundled_real_table() -> dict[tuple[str, int, int], Fraction]:
    values = {}
    kind = None
    path = ROOT / "src" / "realgw" / "data" / "table2_real.csv"
    for line in path.read_text().splitlines():
        fields = line.strip().split(",")
        if fields[0] == "real":
            kind = fields[1]
        elif len(fields) == 3 and kind is not None:
            g, d, value = fields
            values[(kind, int(g), int(d))] = Fraction(value)
    return values


def check_oracles() -> list[str]:
    table = bundled_real_table()
    problems = []
    for g, value in workloads.E_DEGREE4.items():
        if table[("E", g, 4)] != value:
            problems.append(f"E({g},4): table has {table[('E', g, 4)]}, oracle {value}")
    for (g, d), text in (((4, 3), workloads.GW_4_3), ((0, 5), workloads.GW_0_5)):
        if table[("GW", g, d)] != Fraction(text):
            problems.append(f"GW({g},{d}): table has {table[('GW', g, d)]}, oracle {text}")
    for (kind, g, d), value in table.items():
        if kind == "E" and d == 1 and value != workloads.E_DEGREE1[g]:
            problems.append(f"E({g},1): table has {value}, oracle {workloads.E_DEGREE1[g]}")
    return problems


def traced_counts(name: str, count_names: list[str]) -> tuple[bool, dict]:
    workload = workloads.WORKLOADS[name]
    deadline = time.monotonic() + 600
    wall, runs = run_pass(workload.jobs, deadline, workload.heavy)
    values = layer_metrics(runs, wall, wall)
    calls = summed(runs, "heavy_calls")
    ok = all(run.ok for run in runs) and all(calls.get(h, 0) for h in workload.heavy)
    return ok, {key: values[key] for key in count_names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="record the counts")
    parser.add_argument("workloads", nargs="*", help="default: all")
    args = parser.parse_args(argv)
    names = args.workloads or list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}

    failures = check_oracles()
    for name in names:
        ok_first, first = traced_counts(name, count_names)
        ok_second, second = traced_counts(name, count_names)
        if not (ok_first and ok_second):
            failures.append(f"{name}: a traced pass failed")
        for key in count_names:
            if first[key] != second[key]:
                failures.append(f"{name}: {key} is {first[key]}, then {second[key]}")
            recorded = record.get(name, {}).get(key)
            if not args.write and recorded != first[key]:
                print(f"{name}: {key} = {first[key]}, recorded {recorded}")
        print(f"{name}: traced counts {'repeat' if first == second else 'differ'}")
        record[name] = first
    if args.write and not failures:
        RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
