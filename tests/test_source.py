"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "treeval"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports and never references; __future__ imports are exempt."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_import_check_sees_leftovers():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from dataclasses import dataclass, field as f\nimport numpy as np\n"
                     "np.zeros(1)\n")
    assert _unused_imports(tree) == ["os", "dataclass", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_names_they_use(path):
    assert MODULES, SRC
    assert _unused_imports(ast.parse(path.read_text())) == [], path.name
