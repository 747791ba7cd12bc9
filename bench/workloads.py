"""Workloads of the cold-start benchmark: fixed job lists and their oracles.

Every job runs in a fresh interpreter, so memo tables start empty, as they
do for a user who runs one ``realgw`` command per query.  A job is a
``realgw`` command line, or a library call (``gw_real``,
``enumerate_pairs``) that ``job.py`` prints.  The expected stdout of every
job comes from data the timed code does not compute: the real E and GW
columns of ``src/realgw/data/table2_real.csv`` (``selftest.py`` checks the
copies below against that file), the degree-1 counts (one line, then
zeros), the seed's class count and automorphism sum for (2,5), and the
all-PASS report of the identity suite.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    command: tuple[str, ...]
    expected: str


@dataclass(frozen=True)
class Workload:
    jobs: tuple[str, ...]
    # Layers (tracer span names) that should take most of the traced time.
    heavy: tuple[str, ...]


def _enum_text(degree: int, counts: dict[int, int]) -> str:
    """``realgw enum`` output; real GW-invariants vanish for degree - genus even."""
    lines = [f"real enumerative counts, degree {degree}, genus 0..{max(counts)}"]
    for g, value in sorted(counts.items()):
        note = "via localization" if (degree - g) % 2 else "parity"
        lines.append(f"g={g}: {value} [{note}]")
    return "\n".join(lines) + "\n"


# table2_real.csv, section real,E, rows (g, 4) for g = 0..3.
E_DEGREE4 = {0: 0, 1: -1, 2: 0, 3: 0}
# table2_real.csv, section real,GW, rows (4, 3) and (0, 5).
GW_4_3 = "-23/1152"
GW_0_5 = "5"
# One real line through a conjugate pair of points, none in higher genus.
E_DEGREE1 = {g: int(g == 0) for g in range(9)}

VERIFY_ORDER6 = """\
PASS  F1  to t^6
PASS  F12  to t^6
PASS  F2  to t^6
PASS  F1sq  to t^6  3 rational weight triples
PASS  hat_eq_tilde  to t^6  h <= 2, c1B in {4,8,12,16}
PASS  alpha_exp  to t^6
PASS  F1_dep  to t^6 (conjecture)  4 pairs with equal u2+u3
PASS  F2_prod  to t^6 (conjecture)
"""

JOBS = {
    "enum-d4": Job(
        ("realgw", "enum", "--degree", "4", "--max-genus", "3"),
        _enum_text(4, E_DEGREE4),
    ),
    "gw-g4-d3": Job(("realgw", "gw", "--genus", "4", "--degree", "3"), GW_4_3 + "\n"),
    "enum-d1": Job(
        ("realgw", "enum", "--degree", "1", "--max-genus", "8"),
        _enum_text(1, E_DEGREE1),
    ),
    "gw-real-0-5": Job(("gw_real", "0", "5"), GW_0_5 + "\n"),
    # The seed's 470 classes, with 1/|Aut| summing to 1376/3.
    "enumerate-pairs-2-5": Job(("enumerate_pairs", "2", "5"), "470 1376/3\n"),
    "verify-6": Job(
        ("realgw", "verify", "--suite", "all", "--order", "6"), VERIFY_ORDER6
    ),
}

WORKLOADS = {
    "deg4-column": Workload(
        ("enum-d4", "gw-g4-d3"), ("exact_arith.gcd", "hodge.lambda_product")
    ),
    "deg1-high-genus": Workload(("enum-d1",), ("hodge.hodge_integral", "psi_kappa")),
    "many-classes": Workload(
        ("gw-real-0-5", "enumerate-pairs-2-5"), ("localization.enumerate",)
    ),
    "verify-order6": Workload(("verify-6",), ("hodge.lambda_product",)),
}
