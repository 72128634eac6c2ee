"""Bad input fails with a typed error, never a bare `assert`: `python -O`
strips assert statements, so a check written as one would not run there
(`bounds.SelfCheckError` exists for the checks a certificate makes)."""

import ast
from pathlib import Path

import threshq

SOURCES = sorted(Path(threshq.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert_statement():
    assert len(SOURCES) >= 8
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
