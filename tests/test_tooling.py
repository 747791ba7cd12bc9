"""Checks on the package source itself rather than on its values."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "realgw"


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so a real check in the package
    # must raise instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert found == []


def test_cli_reports_errors_only_in_main():
    # cli.main is the one error boundary: the commands raise, and only main
    # prints an "error:" line and returns 2.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    main = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    inside = {id(node) for node in ast.walk(main)}

    def sites(root):
        return [
            node for node in ast.walk(root)
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "error:" in node.value)
            or (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                and node.value.value == 2)
        ]

    assert len(sites(main)) == 2
    assert sorted(node.lineno for node in sites(tree) if id(node) not in inside) == []


def test_psi_kappa_imports_no_higher_layer():
    # hodge reads psi correlators and the shared boundary pushforward from
    # psi_kappa, so the dependency runs one way only.
    higher = {"hodge", "localization", "series_ids", "gw_convert", "cli"}
    tree = ast.parse((SRC / "psi_kappa.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported |= {f"{module}.{alias.name}" for alias in node.names}
    names = {part for name in imported for part in name.split(".")}
    assert "exact_arith" in names
    assert names & higher == set()


def test_hodge_reads_psi_through_kappa_value_only():
    # hodge takes six names from psi_kappa: psi correlators come only through
    # _kappa_value, the binding the bench tracer wraps.  The kappa
    # pushforward and the cache reset are test references
    # (tests/hodge_reference.py), which no module defines or exports.
    tree = ast.parse((SRC / "hodge.py").read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if getattr(n, "module", "") == "psi_kappa"]
    want = "_ZERO _boundary_terms _dilaton _expand _kappa_value _pad_to_stable"
    assert [alias.name for node in imports for alias in node.names] == want.split()
    for name in ["realgw"] + [f"realgw.{p.stem}" for p in SRC.glob("[!_]*.py")]:
        module = importlib.import_module(name)
        assert not hasattr(module, "kappa_psi") and not hasattr(module, "clear_caches")


def _callers(name):
    # (module file, enclosing function) of every call to ``name`` in src.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == name
                    or getattr(node.func, "attr", None) == name
                ):
                    found.add((path.name, fn.name))
    return found


def test_one_expansion_step_for_the_memoized_layers():
    # The stability and dimension check and the iterated string step are
    # written once, in psi_kappa._expand, and each memoized layer calls it.
    assert _callers("_string_lowerings") == {("psi_kappa.py", "_expand")}
    assert _callers("_expand") == {
        ("psi_kappa.py", "_psi_value"),
        ("hodge.py", "_ch_integral"),
        ("hodge.py", "hodge_integral"),
    }


def test_one_power_sum_for_the_lambda_integral_and_the_class_sum():
    # Taking factors out at their least exponents and multiplying their
    # powers out is written once, in exact_arith: the Lambda integral goes
    # through power_quotient, and hodge keeps no polynomial arithmetic of
    # its own.
    assert _callers("_kronecker_sum") == {
        ("exact_arith.py", "factored_sum"),
        ("exact_arith.py", "power_quotient"),
    }
    tree = ast.parse((SRC / "hodge.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "power_quotient" in imported
    assert imported & {"Polynomial", "linear_combination"} == set()


def test_one_exact_division_in_exact_arith():
    # Dividing a polynomial exactly is written once, in _divide_out on the
    # pseudo-division that the gcd also uses; no other division is left.
    assert _callers("_pseudo_divmod") == {
        ("exact_arith.py", "poly_gcd"),
        ("exact_arith.py", "_divide_out"),
    }
    assert _callers("_divide_out") == {
        ("exact_arith.py", "__init__"),
        ("exact_arith.py", "split"),
        ("exact_arith.py", "factored_sum"),
    }
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "_divide_linear" in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_tracer_boundaries_resolve():
    # bench/tracer.py wraps these functions and reads these memos by name,
    # so deleting or renaming one breaks `bench/run.py --trace 1`.  The file
    # is loaded as a plain module; no tracer is installed.
    spec = importlib.util.spec_from_file_location(
        "_bench_tracer", ROOT / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BOUNDARIES
    for _, module_name, attr, _ in tracer.BOUNDARIES:
        assert callable(getattr(importlib.import_module(module_name), attr))
    hodge = importlib.import_module("realgw.hodge")
    psi_kappa = importlib.import_module("realgw.psi_kappa")
    localization = importlib.import_module("realgw.localization")
    for memo in (
        hodge._ch_memo,
        hodge._hodge_memo,
        psi_kappa._psi_memo,
        psi_kappa._kappa_memo,
    ):
        assert isinstance(memo, dict)
    # The psi_kappa span wraps hodge's binding of _kappa_value, so hodge
    # must reach psi correlators through it.
    assert hodge._kappa_value is psi_kappa._kappa_value
    for cached in (localization.vertex_contribution, hodge.I1, hodge.I2):
        assert cached.cache_info().misses >= 0


def test_import_loads_no_dataclasses_or_inspect():
    # ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    # most of the package's cold import time, so the value classes are plain
    # __slots__ classes.  ``typing`` and ``importlib.resources`` are the
    # next largest: the annotations use ``collections.abc`` and ``|`` unions,
    # and only reading a bundled table imports ``importlib.resources``.
    # Checked in a fresh interpreter without ``site``, so only the package's
    # own imports count.
    probe = (
        "import sys\n"
        "import realgw, realgw.cli\n"
        "heavy = ('dataclasses', 'inspect', 'typing', 'importlib.resources')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_loads_no_argparse_gettext_or_locale():
    # One command through the CLI, in a fresh interpreter without ``site``:
    # the option table parser loads none of argparse's start-up imports.
    probe = (
        "import sys\n"
        "import realgw.cli\n"
        "code = realgw.cli.main(['gw', '--genus', '4', '--degree', '3'])\n"
        "print(code, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "-23/1152\n0 []\n"


def test_only_exact_arith_reads_factored_internals():
    # A Factored value's packed key, integer scalar and height, a
    # polynomial's stored numerators and denominator, and the form registry
    # are exact_arith's own: every other module goes through the public
    # methods, so the packing can change in one place.
    fields = {"_key", "_num", "_den", "_height", "_ints"}
    registry = {"_UNITS", "_FORMS", "_unit", "_digits", "_offset"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exact_arith.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            found += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name in fields or name in registry
            ]
    assert found == []
