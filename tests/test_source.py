"""Properties of the package source itself."""

import ast
from pathlib import Path

import cl8

SRC = Path(cl8.__file__).resolve().parent


def test_no_check_rests_on_assert():
    # python -O strips assert statements, so a check written as one would
    # silently stop checking; every check raises instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
