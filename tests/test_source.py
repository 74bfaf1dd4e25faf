"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import lorastamp

SOURCES = sorted(Path(lorastamp.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_flags_an_unused_import():
    tree = ast.parse("from dataclasses import dataclass, replace\nimport numpy as np\n"
                     "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(tree) == ["replace (line 1)"]
