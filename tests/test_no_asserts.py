"""Runtime invariants must survive `python -O`, which strips assert."""

import ast
from pathlib import Path

import ap3lab

SRC = Path(ap3lab.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"use InvariantError, not assert: {found}"
