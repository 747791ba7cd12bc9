"""Command-line interface.

Subcommands:

* ``gw``      one real GW-invariant (localization for degree <= 4, bundled
              data beyond)
* ``enum``    a column of enumerative counts obtained from the GW column
* ``convert`` apply the GW <-> enumerative transform to a CSV table file
* ``hodge``   one psi-lambda Hodge integral
* ``verify``  run the identity / conjecture suites order by order
* ``tables``  emit the bundled invariant tables as CSV or Markdown

All rationals print in lowest terms as ``p/q`` (or a bare integer), matching
the bundled table encoding; identical invocations produce identical bytes.

The commands and the library raise on bad input and bad state; ``main`` is
the one place that reports it.  A ``ValueError`` (a malformed or non-UTF-8
table, a real entry that breaks the parity rule, a non-integer count in
``enum``), a ``KeyError`` (a missing lower-genus entry, a query outside the
bundled data), an ``OSError``, an ``ArithmeticError`` or a ``RecursionError``
becomes one line on stderr and exit status 2; argparse usage errors also
exit 2.  Exit status 1 is a failed non-conjecture identity in ``verify``; 0
otherwise.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import gw_convert, localization, series_ids
from .hodge import hodge_integral

MAX_LOCALIZATION_DEGREE = 4


def _parse_int_list(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realgw",
        description=(
            "Exact real GW- and enumerative invariants of projective 3-space "
            "with conjugate point-pair constraints."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gw = sub.add_parser("gw", help="one real GW-invariant")
    p_gw.add_argument("--genus", type=int, required=True)
    p_gw.add_argument("--degree", type=int, required=True)

    p_enum = sub.add_parser("enum", help="enumerative counts of one degree")
    p_enum.add_argument("--degree", type=int, required=True)
    p_enum.add_argument("--max-genus", type=int, required=True)

    p_conv = sub.add_parser("convert", help="transform a CSV table file")
    p_conv.add_argument("--input", required=True)
    p_conv.add_argument(
        "--direction", choices=("e-from-gw", "gw-from-e"), required=True
    )
    p_conv.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_conv.add_argument("--output", default=None, help="write here instead of stdout")

    p_hodge = sub.add_parser("hodge", help="one psi-lambda Hodge integral")
    p_hodge.add_argument("--g", type=int, required=True, help="genus")
    p_hodge.add_argument("--n", type=int, required=True, help="number of points")
    p_hodge.add_argument("--psi", type=_parse_int_list, default=[],
                         nargs="?", const=[],
                         help="comma-separated psi exponents (rest are 0)")
    p_hodge.add_argument("--lambda", dest="lam", type=_parse_int_list, default=[],
                         nargs="?", const=[],
                         help="comma-separated lambda indices")

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument(
        "--suite", choices=("identities", "conjectures", "all"), default="all"
    )
    p_verify.add_argument("--order", type=int, default=6)

    p_tables = sub.add_parser("tables", help="emit a bundled invariant table")
    p_tables.add_argument("--which", type=int, choices=(1, 2), required=True)
    p_tables.add_argument("--format", choices=("csv", "markdown"), default="csv")

    return parser


def _gw_value(genus: int, degree: int) -> tuple[Fraction, str]:
    """Value and provenance; raises KeyError outside the bundled range,
    naming the degree when the bundled data has no such column and the
    genus otherwise."""
    if degree <= MAX_LOCALIZATION_DEGREE:
        return localization.gw_real(genus, degree), "localization"
    table = gw_convert.bundled_table(2, "GW")
    try:
        return table.value(genus, degree), "bundled"
    except KeyError:
        degrees = {d for _, d in table.entries}
        if degree in degrees:
            missing = f"g={genus} is outside the bundled data"
        else:
            missing = f"the bundled data covers degrees {min(degrees)}..{max(degrees)}"
        raise KeyError(
            f"degree {degree} exceeds the localization range and {missing}"
        ) from None


def _cmd_gw(args) -> int:
    value, _ = _gw_value(args.genus, args.degree)
    print(value)
    return 0


def _cmd_enum(args) -> int:
    d, max_g = args.degree, args.max_genus
    if d < 1 or max_g < 0:
        raise ValueError("need degree >= 1 and max-genus >= 0")
    gw_table = gw_convert.InvariantTable("real", "GW")
    sources: dict[int, str] = {}
    for g in range(max_g + 1):
        if (d - g) % 2 == 0:
            gw_table.entries[(g, d)] = Fraction(0)
            sources[g] = "parity"
        else:
            gw_table.entries[(g, d)], sources[g] = _gw_value(g, d)
    e_table = gw_convert.e_from_gw(gw_table)
    bad = gw_convert.integrality_check(e_table)
    if bad:
        entries = ", ".join(f"g={g}: {v}" for g, _, v in bad)
        raise ValueError(f"non-integer enumerative counts in degree {d}: {entries}")
    print(f"real enumerative counts, degree {d}, genus 0..{max_g}")
    for g in range(max_g + 1):
        note = sources[g] if sources[g] == "parity" else f"via {sources[g]}"
        print(f"g={g}: {e_table.entries[(g, d)]} [{note}]")
    return 0


def _cmd_convert(args) -> int:
    wanted = "GW" if args.direction == "e-from-gw" else "E"
    transform = (
        gw_convert.e_from_gw if args.direction == "e-from-gw" else gw_convert.gw_from_e
    )
    selected = [t for t in gw_convert.load_tables(args.input) if t.kind == wanted]
    if not selected:
        raise ValueError(f"no {wanted} section in {args.input}")
    out = gw_convert.emit_tables([transform(t) for t in selected], args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_hodge(args) -> int:
    if args.g < 0 or args.n < 0:
        raise ValueError("need --g >= 0 and --n >= 0")
    if len(args.psi) > args.n:
        raise ValueError("more psi exponents than points")
    exponents = list(args.psi) + [0] * (args.n - len(args.psi))
    print(hodge_integral(args.g, exponents, args.lam))
    return 0


def _cmd_verify(args) -> int:
    series_ids.check_order(args.order)
    if args.order >= 16:
        print(
            f"note: order {args.order} needs Hodge integrals through genus "
            f"{args.order // 2} and can take much longer than the default t^6",
            file=sys.stderr,
        )
    failed = False
    if args.suite in ("identities", "all"):
        for name in series_ids.IDENTITY_NAMES:
            report = series_ids.verify_identity(name, args.order)
            print(report)
            failed = failed or not report.passed
    if args.suite in ("conjectures", "all"):
        for name in series_ids.CONJECTURE_NAMES:
            print(series_ids.check_conjecture(name, args.order))
    return 1 if failed else 0


def _cmd_tables(args) -> int:
    if args.format == "csv":
        sys.stdout.write(gw_convert.bundled_text(args.which))
    else:
        sys.stdout.write(
            gw_convert.emit_tables(gw_convert.bundled_tables(args.which), "markdown")
        )
    return 0


_COMMANDS = {
    "gw": _cmd_gw,
    "enum": _cmd_enum,
    "convert": _cmd_convert,
    "hodge": _cmd_hodge,
    "verify": _cmd_verify,
    "tables": _cmd_tables,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text (byte {exc.start})"
    except KeyError as exc:
        message = exc.args[0]
    except RecursionError:
        # The GRR and DVV recursions go one level deeper about once per point.
        message = "too many points or too high a genus for the recursive evaluation"
    except (ValueError, OSError, ArithmeticError) as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
