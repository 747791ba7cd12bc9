"""End-to-end tests of the command-line interface."""

import math
from fractions import Fraction

import pytest

from realgw import cli, localization, series_ids
from realgw.cli import main
from realgw.gw_convert import bundled_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gw_command(capsys):
    code, out, _ = run(capsys, "gw", "--genus", "2", "--degree", "3")
    assert code == 0 and out == "-5/24\n"


def test_gw_command_bundled_degrees(capsys):
    code, out, _ = run(capsys, "gw", "--genus", "2", "--degree", "7")
    assert code == 0 and out == "-1345/24\n"


def test_gw_command_out_of_range(capsys):
    code, _, err = run(capsys, "gw", "--genus", "7", "--degree", "8")
    assert code == 2 and "bundled" in err


def test_gw_command_bad_arguments(capsys):
    code, _, err = run(capsys, "gw", "--genus", "-1", "--degree", "1")
    assert code == 2 and err


def _not_constant(g, d):
    raise ArithmeticError(f"localization sum for (g={g}, d={d}) is not constant: z")


def _too_deep(genus, psi, lam):
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "argv, callee, message",
    [
        (("gw", "--genus", "-1", "--degree", "1"), None, "genus must be nonnegative"),
        (("enum", "--degree", "0", "--max-genus", "2"), None,
         "need degree >= 1 and max-genus >= 0"),
        (("enum", "--degree", "1", "--max-genus", "-1"), None,
         "need degree >= 1 and max-genus >= 0"),
        (("gw", "--genus", "7", "--degree", "8"), None, "g=7 is outside the bundled data"),
        (("gw", "--genus", "-1", "--degree", "5"), None, "g=-1 is outside the bundled data"),
        (("enum", "--degree", "9", "--max-genus", "3"), None,
         "degree 9 exceeds the localization range and the bundled data covers degrees 1..8"),
        (("gw", "--genus", "0", "--degree", "9"), None,
         "and the bundled data covers degrees 1..8"),
        (("convert", "--input", "{tmp}/missing.csv", "--direction", "e-from-gw"), None,
         "No such file"),
        (("convert", "--input", "{tmp}/latin1.csv", "--direction", "e-from-gw"), None,
         "not UTF-8 text (byte 17)"),
        (("gw", "--genus", "2", "--degree", "3"), (localization, "gw_real", _not_constant),
         "is not constant: z"),
        (("hodge", "--g", "0", "--n", "2000", "--psi", "1997"),
         (cli, "hodge_integral", _too_deep), "too many"),
    ],
    ids=[
        "value", "value-enum-degree", "value-enum-max-genus", "key",
        "key-negative-genus", "key-missing-degree-enum", "key-missing-degree-gw",
        "os", "unicode", "arithmetic", "recursion",
    ],
)
def test_main_reports_each_exception_family(tmp_path, capsys, monkeypatch, argv, callee, message):
    # main is the one error boundary: each family becomes one stderr line.
    # A (module, name, function) callee replaces a library function, for
    # the families that no real input reaches.
    (tmp_path / "latin1.csv").write_bytes("real,GW\n0,1,1 # g\xe9nus\n".encode("latin-1"))
    if callee is not None:
        monkeypatch.setattr(*callee)
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and not err.startswith("error: '")


def test_gw_reports_unsplittable_vertex_integral(capsys, monkeypatch):
    # A vertex integral whose denominator does not split over its psi forms
    # is bad state: one error line and exit 2, with every cache bypassed.
    localization.vertex_contribution.cache_clear()
    z = localization.ALPHA[3]
    monkeypatch.setattr(localization, "lambda_product_integral", lambda *args: 1 / (z * z + 1))
    monkeypatch.setattr(localization, "gw_real", localization.gw_real.__wrapped__)
    code, out, err = run(capsys, "gw", "--genus", "2", "--degree", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "does not split over the linear forms" in err


def test_hodge_command(capsys):
    code, out, _ = run(capsys, "hodge", "--g", "1", "--n", "1", "--psi", "1", "--lambda")
    assert code == 0 and out == "1/24\n"


def test_hodge_command_lambda_list(capsys):
    code, out, _ = run(capsys, "hodge", "--g", "2", "--n", "1", "--psi", "", "--lambda", "2,2")
    assert code == 0 and out == "0\n"


def test_hodge_command_too_many_exponents(capsys):
    code, _, err = run(capsys, "hodge", "--g", "1", "--n", "1", "--psi", "1,2")
    assert code == 2 and err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--g", "1", "--n", "1", "--psi=-1"), "nonnegative"),
        (("--g", "1", "--n", "2", "--psi", "1,-1"), "nonnegative"),
        (("--g", "1", "--n", "1", "--lambda=-1"), "nonnegative"),
        (("--g", "1", "--n", "-2"), "--n >= 0"),
        (("--g", "-1", "--n", "1"), "--g >= 0"),
    ],
)
def test_hodge_command_rejects_negative_input(capsys, argv, message):
    code, out, err = run(capsys, "hodge", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, value",
    [
        # The iterated string step removes the 1,997 removable psi^0 points
        # in one call: <tau_0^1999 tau_1997>_0 = <tau_0^3>_0.
        (("--g", "0", "--n", "2000", "--psi", "1997"), 1),
        # The dilaton step removes the 1,197 psi^1 points in one call, for
        # the factors 1197, 1196, ..., 1.
        (("--g", "0", "--n", "1200", "--psi", ",".join(["1"] * 1197)),
         math.factorial(1197)),
    ],
    ids=["string", "dilaton"],
)
def test_hodge_command_too_deep_exits_2(capsys, argv, value):
    # These queries exited 2 when each reduction recursed once per point;
    # the point removals no longer recurse, so they have their values.
    code, out, err = run(capsys, "hodge", *argv)
    assert (code, out, err) == (0, f"{value}\n", "")


def test_enum_command(capsys):
    code, out, _ = run(capsys, "enum", "--degree", "4", "--max-genus", "3")
    assert code == 0
    assert out.splitlines() == [
        "real enumerative counts, degree 4, genus 0..3",
        "g=0: 0 [parity]",
        "g=1: -1 [via localization]",
        "g=2: 0 [parity]",
        "g=3: 0 [via localization]",
    ]


def test_enum_command_bundled(capsys):
    code, out, _ = run(capsys, "enum", "--degree", "7", "--max-genus", "4")
    assert code == 0
    assert "g=2: -10 [via bundled]" in out
    assert "g=4: -1 [via bundled]" in out


def test_enum_rejects_non_integer_count(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_gw_value", lambda g, d: (Fraction(1, 2), "localization"))
    code, out, err = run(capsys, "enum", "--degree", "1", "--max-genus", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: non-integer") and err.count("\n") == 1
    assert "g=0: 1/2" in err


def test_tables_byte_identical_to_bundled(capsys):
    for which in ("1", "2"):
        code, out, _ = run(capsys, "tables", "--which", which, "--format", "csv")
        assert code == 0 and out == bundled_text(int(which))


def test_tables_markdown(capsys):
    code, out, _ = run(capsys, "tables", "--which", "2", "--format", "markdown")
    assert code == 0 and out.startswith("| d | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 |")
    # The bundled grids are complete: no empty cell.
    assert "|  |" not in out


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "complex,GW\n0,1,1\n0,2,2\n1,1,3\n",
            "| d | 1 | 2 |\n|---|---|---|\n| E[0,d] | 1 | 2 |\n| E[1,d] | 37/12 |  |\n",
        ),
        (
            # Parity-implied real zeros are values, not holes.
            "real,GW\n0,1,1\n1,2,3\n",
            "| d | 1 | 2 |\n|---|---|---|\n| E^phi[0,d] | 1 | 0 |\n| E^phi[1,d] | 0 | 3 |\n",
        ),
    ],
    ids=["complex-hole", "real-parity-zeros"],
)
def test_convert_markdown_grid_with_holes(tmp_path, capsys, text, expected):
    src = tmp_path / "gw.csv"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "convert", "--input", str(src), "--direction", "e-from-gw",
        "--format", "markdown",
    )
    assert (code, out, err) == (0, expected, "")


def test_deterministic_output(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "enum", "--degree", "3", "--max-genus", "4")
        outputs.add(out)
    assert len(outputs) == 1


def test_verify_identities_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--order", "2")
    assert code == 0
    assert out.count("PASS") == 6


def test_verify_all_includes_conjectures(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--order", "2")
    assert code == 0
    assert "(conjecture)" in out


def test_verify_runtime_note_from_order_16(capsys, monkeypatch):
    # Empty suites: only the stderr note is left to look at.  Order 14 takes
    # about 2 s cold and gets no note; order 16 takes several seconds.
    monkeypatch.setattr(series_ids, "IDENTITY_NAMES", ())
    monkeypatch.setattr(series_ids, "CONJECTURE_NAMES", ())
    assert run(capsys, "verify", "--order", "14") == (0, "", "")
    code, out, err = run(capsys, "verify", "--order", "16")
    assert code == 0 and out == ""
    assert err.startswith("note: order 16 ") and err.count("\n") == 1


def test_verify_rejects_odd_order(capsys):
    code, _, err = run(capsys, "verify", "--order", "3")
    assert code == 2 and err


def test_convert_round_trip(tmp_path, capsys):
    src = tmp_path / "e.csv"
    src.write_text("real,E\n0,3,-1\n1,3,0\n2,3,0\n3,3,0\n4,3,0\n", encoding="utf-8")
    code, out, _ = run(capsys, "convert", "--input", str(src), "--direction", "gw-from-e")
    assert code == 0
    assert "2,3,-5/24" in out
    assert "4,3,-23/1152" in out


def test_convert_selects_section(tmp_path, capsys):
    src = tmp_path / "both.csv"
    src.write_text(bundled_text(2), encoding="utf-8")
    code, out, _ = run(
        capsys, "convert", "--input", str(src), "--direction", "e-from-gw"
    )
    assert code == 0 and out.startswith("real,E\n")
    assert "2,7,-10" in out


def test_convert_missing_section(tmp_path, capsys):
    src = tmp_path / "e.csv"
    src.write_text("real,E\n0,3,-1\n", encoding="utf-8")
    code, _, err = run(capsys, "convert", "--input", str(src), "--direction", "e-from-gw")
    assert code == 2 and "no GW section" in err


def test_convert_parse_error(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("real,GW\n0,1\n", encoding="utf-8")
    code, _, err = run(capsys, "convert", "--input", str(src), "--direction", "e-from-gw")
    assert code == 2 and "line 2" in err


def test_convert_missing_file(capsys):
    code, _, err = run(capsys, "convert", "--input", "/nonexistent.csv", "--direction", "e-from-gw")
    assert code == 2 and err


def test_convert_rejects_non_utf8_input(tmp_path, capsys):
    src = tmp_path / "latin1.csv"
    src.write_bytes("real,GW\n0,1,1 # g\xe9nus\n".encode("latin-1"))
    code, out, err = run(capsys, "convert", "--input", str(src), "--direction", "e-from-gw")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "UTF-8" in err and err.count("\n") == 1


def test_convert_output_in_missing_directory(tmp_path, capsys):
    src = tmp_path / "gw.csv"
    src.write_text("real,GW\n0,1,1\n", encoding="utf-8")
    target = tmp_path / "missing" / "e.csv"
    code, out, err = run(
        capsys, "convert", "--input", str(src), "--direction", "e-from-gw",
        "--output", str(target),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("row", ["-1,1,1", "0,0,1", "2,-3,1"])
def test_convert_rejects_out_of_range_rows(tmp_path, capsys, row):
    src = tmp_path / "gw.csv"
    src.write_text(f"real,GW\n{row}\n", encoding="utf-8")
    code, out, err = run(capsys, "convert", "--input", str(src), "--direction", "e-from-gw")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "line 2" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, direction, missing",
    [
        ("complex,E\n2,1,5\n", "gw-from-e", "complex E entry at g=1, d=1"),
        # The message names the missing entry of the input, not of the output.
        ("real,GW\n3,2,1\n", "e-from-gw", "real GW entry at g=1, d=2"),
    ],
    ids=["complex-e", "real-gw"],
)
def test_convert_missing_lower_genus_entry(tmp_path, capsys, text, direction, missing):
    src = tmp_path / "table.csv"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "convert", "--input", str(src), "--direction", direction)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and missing in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, direction, named",
    [
        ("real,GW\n3,1,5\n", "e-from-gw", "g=3 d=1: 5"),
        ("real,E\n0,1,1\n1,1,2\n1,3,1/2\n", "gw-from-e", "g=1 d=1: 2; g=1 d=3: 1/2"),
    ],
    ids=["gw", "e"],
)
def test_convert_rejects_real_parity_violation(tmp_path, capsys, text, direction, named):
    # Real entries with d - g even vanish, so a nonzero one is bad input.
    src = tmp_path / "table.csv"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "convert", "--input", str(src), "--direction", direction)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err and err.count("\n") == 1


@pytest.mark.parametrize("direction", ["e-from-gw", "gw-from-e"])
def test_convert_accepts_bundled_real_table(tmp_path, capsys, direction):
    src = tmp_path / "real.csv"
    src.write_text(bundled_text(2), encoding="utf-8")
    code, out, err = run(capsys, "convert", "--input", str(src), "--direction", direction)
    assert (code, err) == (0, "") and out


def test_usage_error_exit_code(capsys):
    for argv in (
        ["gw", "--genus", "two", "--degree", "1"],
        # Conjectures are reported, never asserted: no option makes them gate.
        ["verify", "--strict-conjectures"],
        # convert has no --kind: the direction picks the section.
        ["convert", "--input", "t.csv", "--direction", "e-from-gw", "--kind", "GW"],
        # A psi list that is not comma-separated integers is a usage error.
        ["hodge", "--g", "1", "--n", "1", "--psi", "x"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve"], "unknown command 'solve'"),
        ([], "no command"),
        (["gw", "--genus", "1", "--degree", "1", "--color", "red"], "no option '--color'"),
        # Options are spelled out in full: a prefix is unknown.
        (["gw", "--genus", "1", "--deg", "1"], "no option '--deg'"),
        (["gw", "--degree", "1", "--genus"], "--genus needs a value"),
        (["enum", "--degree", "4"], "enum needs --max-genus"),
        (["gw", "--genus=1.5", "--degree", "1"], "--genus expects an integer, not '1.5'"),
        (["tables", "--which", "3"], "--which expects one of 1, 2, not '3'"),
        (["hodge", "--g", "1", "--n", "1", "--psi", "1,"], "comma-separated integers"),
    ],
    ids=[
        "unknown-command", "no-command", "unknown-option", "prefix", "missing-value",
        "missing-required", "non-integer", "bad-choice", "malformed-list",
    ],
)
def test_usage_errors_are_one_error_line(capsys, argv, message):
    # Usage errors go through main's one boundary like every other error.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, attrs",
    [
        # The token after an option is its value, even with a leading "-".
        (["gw", "--genus", "-1", "--degree=2"], {"genus": -1, "degree": 2}),
        # A repeated option keeps its last value.
        (["gw", "--genus", "1", "--degree", "3", "--genus", "2"], {"genus": 2}),
        # A bare list option, or an empty one, is the empty list.
        (["hodge", "--g", "1", "--n", "1", "--psi", "--lambda"], {"psi": [], "lam": []}),
        (["hodge", "--g", "1", "--n", "1", "--psi=", "--lambda", ""], {"psi": [], "lam": []}),
        (["hodge", "--g", "1", "--n", "2", "--psi", "-1,2"], {"psi": [-1, 2], "lam": []}),
        (["tables", "--which", "2"], {"which": 2, "format": "csv"}),
        (["convert", "--input", "t.csv", "--direction", "gw-from-e"], {"output": None}),
        (["verify"], {"suite": "all", "order": 6}),
    ],
)
def test_parse_args_grammar(argv, attrs):
    handler, args = cli.parse_args(argv)
    assert handler is cli.COMMANDS[argv[0]][0] and args.command == argv[0]
    assert {name: getattr(args, name) for name in attrs} == attrs


def _help_argvs():
    yield ["-h"]
    yield ["--help"]
    for command in cli.COMMANDS:
        yield [command, "--help"]
        # Help wins over the missing required options.
        yield [command, "-h"]


@pytest.mark.parametrize("argv", list(_help_argvs()), ids=" ".join)
def test_help_names_every_command_and_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: realgw ")
    if argv[0] in cli.COMMANDS:
        for flag, *_ in cli.COMMANDS[argv[0]][2]:
            assert flag in out
    else:
        for command, (_, summary, _) in cli.COMMANDS.items():
            assert f"  {command} " in out and summary in out


def test_cache_dir_is_ignored(tmp_path, capsys, monkeypatch):
    # No cache layer reads REALGW_CACHE_DIR, so a truncated file there
    # changes neither the output nor the exit code.
    (tmp_path / "realgw-memo.pickle").write_bytes(b"\x80\x04\x95")
    monkeypatch.setenv("REALGW_CACHE_DIR", str(tmp_path))
    code, out, err = run(capsys, "hodge", "--g", "1", "--n", "1", "--psi", "1")
    assert (code, out, err) == (0, "1/24\n", "")
