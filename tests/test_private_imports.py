"""Private names cross module boundaries only out of cyclic, which owns
the transforms and the exact sum counts that the other modules share."""

import ast
from pathlib import Path

import ap3lab

SRC = Path(ap3lab.__file__).resolve().parent


def test_only_cyclic_lends_private_names():
    found = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module != "cyclic"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == [], f"private names imported from outside cyclic: {found}"
