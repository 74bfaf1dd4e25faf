"""Static checks over the package source."""

import ast
import sys
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


def foreign_imports(tree: ast.Module) -> list[str]:
    """Top-level packages imported from outside the standard library, numpy
    and lorastamp: the package depends on numpy alone."""
    allowed = sys.stdlib_module_names | {"numpy", "lorastamp"}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.module, node.lineno))
    return [f"{name} (line {line})" for name, line in names
            if name.split(".")[0] not in allowed]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_stdlib_numpy_only(path):
    assert foreign_imports(ast.parse(path.read_text(), str(path))) == []


def test_flags_a_foreign_import():
    tree = ast.parse("import math, scipy.signal\nfrom numpy import fft\n"
                     "from lorastamp.phy import IQTrace\nfrom hypothesis import given\n")
    assert foreign_imports(tree) == ["scipy.signal (line 1)", "hypothesis (line 4)"]


def test_flags_an_unused_import():
    tree = ast.parse("from dataclasses import dataclass, replace\nimport numpy as np\n"
                     "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(tree) == ["replace (line 1)"]
