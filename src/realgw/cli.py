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

``COMMANDS`` is the one table of commands and options; ``parse_args`` reads
``argv`` against it and the help text is built from it.  The grammar is
``realgw COMMAND [--opt VALUE | --opt=VALUE ...]``:

* the token after an option is its value, even when it starts with ``-``
  (so ``--genus -1`` reaches the range check), and a repeated option keeps
  its last value;
* ``--psi`` and ``--lambda`` take comma-separated integers; with no value
  (at the end of ``argv`` or before a token starting with ``--``) or with
  an empty one they give the empty list;
* ``-h`` or ``--help``, alone or after a command, prints the usage on
  stdout and exits 0;
* options are spelled out in full: a prefix such as ``--deg`` is unknown.

The commands and the library raise on bad input and bad state; ``main`` is
the one place that reports it.  A ``ValueError`` (a usage error, a
malformed or non-UTF-8 table, a real entry that breaks the parity rule, a
non-integer count in ``enum``), a ``KeyError`` (a missing lower-genus entry,
a query outside the bundled data), an ``OSError``, an ``ArithmeticError`` or
a ``RecursionError`` becomes one line on stderr and exit status 2.  Exit
status 1 is a failed non-conjecture identity in ``verify``; 0 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from types import SimpleNamespace

from . import gw_convert, localization, series_ids
from .hodge import hodge_integral

MAX_LOCALIZATION_DEGREE = 4


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


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")] if text else []


# Metavariable and expected-value phrase of each converter that is a
# function; a tuple converter lists its choices.  Only a list option may
# go without a value.
_KINDS = {
    int: ("N", "an integer"),
    _int_list: ("[N,N,...]", "comma-separated integers"),
    str: ("PATH", "a path"),
}
_REQUIRED = object()
_FORMAT = ("--format", "format", ("csv", "markdown"), "csv", "output format")

# command -> (handler, help, options); an option is
# (flag, attribute, converter, default or _REQUIRED, help).
COMMANDS = {
    "gw": (_cmd_gw, "one real GW-invariant", (
        ("--genus", "genus", int, _REQUIRED, "genus g >= 0"),
        ("--degree", "degree", int, _REQUIRED, "degree d >= 1"),
    )),
    "enum": (_cmd_enum, "enumerative counts of one degree", (
        ("--degree", "degree", int, _REQUIRED, "degree d >= 1"),
        ("--max-genus", "max_genus", int, _REQUIRED, "last genus of the column"),
    )),
    "convert": (_cmd_convert, "transform a CSV table file", (
        ("--input", "input", str, _REQUIRED, "CSV table file to read"),
        ("--direction", "direction", ("e-from-gw", "gw-from-e"), _REQUIRED,
         "which transform, and so which sections of the input"),
        _FORMAT,
        ("--output", "output", str, None, "write here instead of stdout"),
    )),
    "hodge": (_cmd_hodge, "one psi-lambda Hodge integral", (
        ("--g", "g", int, _REQUIRED, "genus"),
        ("--n", "n", int, _REQUIRED, "number of points"),
        ("--psi", "psi", _int_list, [], "comma-separated psi exponents (rest are 0)"),
        ("--lambda", "lam", _int_list, [], "comma-separated lambda indices"),
    )),
    "verify": (_cmd_verify, "run identity suites", (
        ("--suite", "suite", ("identities", "conjectures", "all"), "all",
         "which suites to run"),
        ("--order", "order", int, 6, "even truncation order in t"),
    )),
    "tables": (_cmd_tables, "emit a bundled invariant table", (
        ("--which", "which", (1, 2), _REQUIRED, "table 1 (complex) or 2 (real)"),
        _FORMAT,
    )),
}

_DESCRIPTION = (
    "Exact real GW- and enumerative invariants of projective 3-space\n"
    "with conjugate point-pair constraints."
)
_HELP = ("-h", "--help")


def _metavar(convert) -> str:
    if isinstance(convert, tuple):
        return "{" + ",".join(map(str, convert)) + "}"
    return _KINDS[convert][0]


def _usage(command: str | None = None) -> str:
    """The help text of one command, or of the program when ``command`` is
    None."""
    if command is None:
        lines = [
            "usage: realgw COMMAND [--OPTION VALUE ...]",
            "       realgw COMMAND --help",
            "",
            _DESCRIPTION,
            "",
            "commands:",
        ]
        lines += [f"  {name:<9}{row[1]}" for name, row in COMMANDS.items()]
        return "\n".join(lines) + "\n"
    _, summary, options = COMMANDS[command]
    words = []
    rows = []
    for flag, _, convert, default, text in options:
        spec = f"{flag} {_metavar(convert)}"
        words.append(spec if default is _REQUIRED else f"[{spec}]")
        if default is _REQUIRED:
            text += " (required)"
        elif default not in (None, []):
            text += f" (default: {default})"
        rows.append((spec, text))
    width = max(len(spec) for spec, _ in rows) + 2
    lines = [f"usage: realgw {command} " + " ".join(words), "", summary, "", "options:"]
    lines += [f"  {spec:<{width}}{text}" for spec, text in rows]
    lines.append(f"  {'-h, --help':<{width}}show this help and exit")
    return "\n".join(lines) + "\n"


def _cmd_help(args) -> int:
    sys.stdout.write(_usage(args.command))
    return 0


def _convert(flag: str, convert, text: str):
    if isinstance(convert, tuple):
        for choice in convert:
            if text == str(choice):
                return choice
        expected = "one of " + ", ".join(map(str, convert))
    else:
        try:
            return convert(text)
        except ValueError:
            expected = _KINDS[convert][1]
    raise ValueError(f"{flag} expects {expected}, not {text!r}")


def parse_args(argv: list[str]):
    """(handler, args) for one command line; raises ValueError on a usage
    error.  ``args`` has one attribute per option of the command, plus
    ``command``."""
    names = ", ".join(COMMANDS)
    if not argv:
        raise ValueError(f"no command given; expected one of {names}")
    command, tokens = argv[0], argv[1:]
    if command in _HELP:
        return _cmd_help, SimpleNamespace(command=None)
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {names}")
    handler, _, options = COMMANDS[command]
    by_flag = {option[0]: option for option in options}
    values = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token in _HELP:
            return _cmd_help, SimpleNamespace(command=command)
        flag, eq, text = token.partition("=")
        if flag not in by_flag:
            known = ", ".join(by_flag)
            raise ValueError(f"{command} has no option {token!r}; it takes {known}")
        _, dest, convert, _, _ = by_flag[flag]
        bare = convert is _int_list and (i == len(tokens) or tokens[i].startswith("--"))
        if not eq and not bare:
            if i == len(tokens):
                raise ValueError(f"{flag} needs a value")
            text = tokens[i]
            i += 1
        values[dest] = _convert(flag, convert, text)
    missing = [
        flag for flag, dest, _, default, _ in options
        if default is _REQUIRED and dest not in values
    ]
    if missing:
        raise ValueError(f"{command} needs {', '.join(missing)}")
    for _, dest, _, default, _ in options:
        values.setdefault(dest, default)
    return handler, SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(args)
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
