"""End-to-end tests of the command-line interface."""

import pytest

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


def test_tables_byte_identical_to_bundled(capsys):
    for which in ("1", "2"):
        code, out, _ = run(capsys, "tables", "--which", which, "--format", "csv")
        assert code == 0 and out == bundled_text(int(which))


def test_tables_markdown(capsys):
    code, out, _ = run(capsys, "tables", "--which", "2", "--format", "markdown")
    assert code == 0 and out.startswith("| d | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 |")


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["gw", "--genus", "two", "--degree", "1"])
    assert err.value.code == 2


def test_cache_dir_is_ignored(tmp_path, capsys, monkeypatch):
    # No cache layer reads REALGW_CACHE_DIR, so a truncated file there
    # changes neither the output nor the exit code.
    (tmp_path / "realgw-memo.pickle").write_bytes(b"\x80\x04\x95")
    monkeypatch.setenv("REALGW_CACHE_DIR", str(tmp_path))
    code, out, err = run(capsys, "hodge", "--g", "1", "--n", "1", "--psi", "1")
    assert (code, out, err) == (0, "1/24\n", "")
