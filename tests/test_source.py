"""Checks on the package's source text, made with the standard library so
that they need no linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stickslip"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.  A read is any name in the
    module's code, annotations included, or the root of an attribute chain;
    ``from __future__`` imports are directives."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_annotations_and_attributes():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from typing import Any, TextIO\n"
              "def f(x: TextIO) -> None:\n    return os.path.join(np.pi)\n")
    assert unused_imports(source) == ["line 4: Any"]
