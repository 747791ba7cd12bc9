"""Checks on the package source itself rather than on its values."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "realgw"


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
