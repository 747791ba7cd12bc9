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
Exit status: 2 for usage errors, for an unreadable, non-UTF-8 or malformed
input table, a missing lower-genus entry, a real entry that breaks the parity
rule or an unwritable output in ``convert``, and for a non-integer count in
``enum``; 1 for a failed non-conjecture identity in ``verify``; 0
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
    p_conv.add_argument("--kind", choices=gw_convert.KINDS, default=None,
                        help="section to transform in a multi-section file")
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
    """Value and provenance; raises KeyError outside the bundled range."""
    if degree <= MAX_LOCALIZATION_DEGREE:
        return localization.gw_real(genus, degree), "localization"
    return gw_convert.bundled_table(2, "GW").value(genus, degree), "bundled"


def _out_of_range(genus: int, degree: int) -> int:
    print(
        f"error: degree {degree} exceeds the localization range and "
        f"g={genus} is outside the bundled data",
        file=sys.stderr,
    )
    return 2


def _cmd_gw(args) -> int:
    if args.degree < 1 or args.genus < 0:
        print("error: need degree >= 1 and genus >= 0", file=sys.stderr)
        return 2
    try:
        value, _ = _gw_value(args.genus, args.degree)
    except KeyError:
        return _out_of_range(args.genus, args.degree)
    print(value)
    return 0


def _cmd_enum(args) -> int:
    d, max_g = args.degree, args.max_genus
    if d < 1 or max_g < 0:
        print("error: need degree >= 1 and max-genus >= 0", file=sys.stderr)
        return 2
    gw_table = gw_convert.InvariantTable("real", "GW")
    sources: dict[int, str] = {}
    for g in range(max_g + 1):
        if (d - g) % 2 == 0:
            gw_table.entries[(g, d)] = Fraction(0)
            sources[g] = "parity"
        else:
            try:
                value, src = _gw_value(g, d)
            except KeyError:
                return _out_of_range(g, d)
            gw_table.entries[(g, d)] = value
            sources[g] = src
    e_table = gw_convert.e_from_gw(gw_table)
    bad = gw_convert.integrality_check(e_table)
    if bad:
        entries = ", ".join(f"g={g}: {v}" for g, _, v in bad)
        print(
            f"error: non-integer enumerative counts in degree {d}: {entries}",
            file=sys.stderr,
        )
        return 2
    print(f"real enumerative counts, degree {d}, genus 0..{max_g}")
    for g in range(max_g + 1):
        note = sources[g] if sources[g] == "parity" else f"via {sources[g]}"
        print(f"g={g}: {e_table.entries[(g, d)]} [{note}]")
    return 0


def _cmd_convert(args) -> int:
    try:
        tables = gw_convert.load_tables(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.input}: not UTF-8 text (byte {exc.start})", file=sys.stderr)
        return 2
    except gw_convert.TableParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    if args.kind is not None:
        tables = [t for t in tables if t.kind == args.kind]
    wanted = "GW" if args.direction == "e-from-gw" else "E"
    transform = (
        gw_convert.e_from_gw if args.direction == "e-from-gw" else gw_convert.gw_from_e
    )
    selected = [t for t in tables if t.kind == wanted]
    if not selected:
        print(f"error: no {wanted} section in {args.input}", file=sys.stderr)
        return 2
    for t in selected:
        bad = gw_convert.parity_check(t) if t.flavor == "real" else []
        if bad:
            entries = "; ".join(f"g={g} d={d}: {v}" for g, d, v in bad)
            print(
                f"error: {args.input}: real {t.kind} entries with d - g even "
                f"must be 0: {entries}",
                file=sys.stderr,
            )
            return 2
    try:
        out = gw_convert.emit_tables([transform(t) for t in selected], args.format)
    except KeyError as exc:
        print(f"error: {args.input}: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return 0


def _cmd_hodge(args) -> int:
    if args.g < 0 or args.n < 0:
        print("error: need --g >= 0 and --n >= 0", file=sys.stderr)
        return 2
    if any(a < 0 for a in args.psi) or any(r < 0 for r in args.lam):
        print("error: --psi and --lambda entries must be nonnegative", file=sys.stderr)
        return 2
    if len(args.psi) > args.n:
        print("error: more psi exponents than points", file=sys.stderr)
        return 2
    exponents = list(args.psi) + [0] * (args.n - len(args.psi))
    try:
        print(hodge_integral(args.g, exponents, args.lam))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # The string, dilaton and DVV reductions recurse about once per point.
        print(
            f"error: {args.n} points is too many for the recursive evaluation",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_verify(args) -> int:
    if args.order % 2 or args.order < 2:
        print("error: --order must be even and >= 2", file=sys.stderr)
        return 2
    if args.order >= 10:
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
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
