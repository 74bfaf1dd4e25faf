"""Static checks over the package source."""

import ast
import re
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


def print_calls(tree: ast.Module) -> list[tuple[str, str, int]]:
    """Every ``print`` call as (enclosing function, stream, line): the
    stream is the source of its ``file=`` argument, "stdout" without one,
    and the function "<module>" at module level."""
    calls = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "print"):
                stream = next((ast.unparse(k.value) for k in child.keywords if k.arg == "file"),
                              "stdout")
                calls.append((owner, stream, child.lineno))
            visit(child, owner)

    visit(tree, "<module>")
    return calls


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_prints_only_through_cli_log_and_emit(path):
    # stdout carries the CLI's JSON lines alone: library modules print
    # nothing, and cli.py prints through _log (stderr) and _emit (stdout)
    allowed = {("_log", "sys.stderr"), ("_emit", "stdout")} if path.name == "cli.py" else set()
    calls = print_calls(ast.parse(path.read_text(), str(path)))
    assert [c for c in calls if c[:2] not in allowed] == []


def test_flags_a_stray_print():
    tree = ast.parse("import sys\nprint('x')\ndef _log(m):\n    print(m, file=sys.stderr)\n"
                     "def _emit(d):\n    print(d)\n    def inner():\n        print(d)\n")
    assert print_calls(tree) == [("<module>", "stdout", 2), ("_log", "sys.stderr", 4),
                                 ("_emit", "stdout", 6), ("inner", "stdout", 8)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_stdlib_numpy_only(path):
    assert foreign_imports(ast.parse(path.read_text(), str(path))) == []


def package_imports(tree: ast.Module) -> list[str]:
    """Modules of lorastamp the module imports, a relative import among them."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return [name for name in names if name.split(".")[0] in ("lorastamp", "")]


def test_phy_imports_no_package_module():
    # phy is the bottom layer: fbest and demod read its chirp_windows and
    # tables, never the reverse
    [phy] = [path for path in SOURCES if path.name == "phy.py"]
    assert package_imports(ast.parse(phy.read_text(), str(phy))) == []
    tree = ast.parse("import lorastamp.demod\nfrom lorastamp import fbest\nfrom . import onset\n"
                     "from __future__ import annotations\nimport numpy as np\n")
    assert package_imports(tree) == ["lorastamp.demod", "lorastamp", "."]


def imports_of(tree: ast.Module, module: str) -> list[int]:
    """Lines that import ``module`` or a name from it."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == module for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == module]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "phy.py"], ids=lambda p: p.name)
def test_only_phy_imports_numbers(path):
    # phy.is_real, is_finite_real and is_int alone decide what a number read
    # from a file is; a numbers ABC test elsewhere would be a second rule
    assert imports_of(ast.parse(path.read_text(), str(path)), "numbers") == []


def test_flags_a_numbers_import():
    tree = ast.parse("import math, numbers\nfrom numbers import Real\nimport numbers.abc\n"
                     "from . import numbers\nimport numpy as np\n")
    assert imports_of(tree, "numbers") == [1, 2, 3]


def test_flags_a_foreign_import():
    tree = ast.parse("import math, scipy.signal\nfrom numpy import fft\n"
                     "from lorastamp.phy import IQTrace\nfrom hypothesis import given\n")
    assert foreign_imports(tree) == ["scipy.signal (line 1)", "hypothesis (line 4)"]


def test_flags_an_unused_import():
    tree = ast.parse("from dataclasses import dataclass, replace\nimport numpy as np\n"
                     "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(tree) == ["replace (line 1)"]


CACHE_DECORATORS = {"functools.lru_cache", "functools.cache", "lru_cache", "cache"}
EMPTY_DICTS = {"{}", "dict()", "OrderedDict()", "collections.OrderedDict()"}


def evicted_dicts(tree: ast.Module) -> set[str]:
    """Names that a ``while len(name) > TABLE_CACHE_SIZE:`` loop evicts from:
    a statement of its body deletes ``name[...]`` or calls ``name.pop`` or
    ``name.popitem``."""
    names = set()
    for loop in ast.walk(tree):
        bound = isinstance(loop, ast.While) and re.fullmatch(r"len\((\w+)\) > TABLE_CACHE_SIZE", ast.unparse(loop.test))
        if bound and any(ast.unparse(stmt).startswith((f"del {bound[1]}[", f"{bound[1]}.pop(", f"{bound[1]}.popitem("))
                         for stmt in loop.body):
            names.add(bound[1])
    return names


def unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines that name functools' ``lru_cache`` or ``cache`` other than as
    ``lru_cache(maxsize=TABLE_CACHE_SIZE)``, and lines that bind a module-level
    name to an empty dict or OrderedDict, a hand-rolled cache, that no
    ``while len(name) > TABLE_CACHE_SIZE:`` loop evicts from: a cache with no
    bound, or another one, holds tables the package does not count."""
    bounded = {id(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and not node.args
               and [(k.arg, ast.unparse(k.value)) for k in node.keywords] == [("maxsize", "TABLE_CACHE_SIZE")]}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name)) and ast.unparse(node) in CACHE_DECORATORS
             and id(node) not in bounded]
    evicted = evicted_dicts(tree)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and ast.unparse(node.value) in EMPTY_DICTS:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            lines += [node.lineno for t in targets if not (isinstance(t, ast.Name) and t.id in evicted)]
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_cache_keeps_table_cache_size_entries(path):
    # every cached builder keeps the tables of at most TABLE_CACHE_SIZE keys,
    # so table memory stays bounded whatever geometries a caller asks for
    assert unbounded_caches(ast.parse(path.read_text(), str(path))) == []


def test_flags_an_unbounded_cache():
    tree = ast.parse("import functools\nfrom functools import lru_cache, cache\n"
                     "@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)\ndef a(): pass\n"
                     "@functools.lru_cache(maxsize=None)\ndef b(): pass\n"
                     "@functools.lru_cache\ndef c(): pass\n@lru_cache(TABLE_CACHE_SIZE)\ndef d(): pass\n"
                     "@cache\ndef e(): pass\nf = functools.cache(len)\n"
                     "@functools.lru_cache(maxsize=TABLE_CACHE_SIZE, typed=True)\ndef g(): pass\n")
    assert unbounded_caches(tree) == [5, 7, 9, 11, 13, 14]


def test_flags_an_unbounded_dict_cache():
    # module-level empty dicts are caches: bounded by an evicting while loop
    # on TABLE_CACHE_SIZE, or flagged; a dict with entries is a table
    tree = ast.parse("import collections\nfrom collections import OrderedDict\n"
                     "A = {}\nB: dict = {}\nC = collections.OrderedDict()\nD = OrderedDict()\n"
                     "E = dict()\nF = {}\nG = {}\nH = {'x': 1}\n"
                     "def put(key, value):\n"
                     "    A[key] = B[key] = C[key] = D[key] = E[key] = F[key] = G[key] = value\n"
                     "    while len(A) > TABLE_CACHE_SIZE:\n        del A[next(iter(A))]\n"
                     "    while len(B) > TABLE_CACHE_SIZE:\n        B.pop(next(iter(B)))\n"
                     "    while len(C) > TABLE_CACHE_SIZE:\n        C.popitem(last=False)\n"
                     "    while len(D) > 16:\n        D.popitem(last=False)\n"
                     "    while len(E) > TABLE_CACHE_SIZE:\n        del A[next(iter(E))]\n"
                     "    while len(F) >= TABLE_CACHE_SIZE:\n        del F[next(iter(F))]\n"
                     "    if len(G) > TABLE_CACHE_SIZE:\n        del G[next(iter(G))]\n")
    assert unbounded_caches(tree) == [6, 7, 8, 9]


def as_strided_uses(tree: ast.Module) -> list[int]:
    """Lines that name numpy's ``as_strided``, as a call, an attribute or an
    import: a view it makes can read past the end of its array, where
    ``sliding_window_view`` cannot."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id == "as_strided"
                   or isinstance(node, ast.Attribute) and node.attr == "as_strided"
                   or isinstance(node, ast.ImportFrom)
                   and any(a.name == "as_strided" for a in node.names)})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_as_strided(path):
    assert as_strided_uses(ast.parse(path.read_text(), str(path))) == []


def test_flags_as_strided():
    tree = ast.parse("import numpy as np\nfrom numpy.lib.stride_tricks import as_strided as view\n"
                     "from numpy.lib.stride_tricks import sliding_window_view\n"
                     "a = np.lib.stride_tricks.as_strided(x, (3,), (8,))\n"
                     "b = sliding_window_view(x, 3)\nc = as_strided(x)\n"
                     "f = np.lib.stride_tricks.as_strided\n")
    assert as_strided_uses(tree) == [2, 4, 6, 7]


def fft_uses(tree: ast.Module) -> list[int]:
    """Lines that name numpy's ``fft`` module, as ``np.fft``/``numpy.fft``
    or an import of it: ``phy.spectrum`` alone decides how a spectrum on a
    grid is taken."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "fft"
                   and ast.unparse(node.value) in ("np", "numpy")
                   or isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names)
                   or isinstance(node, ast.ImportFrom) and node.level == 0
                   and (node.module.startswith("numpy.fft")
                        or node.module == "numpy" and any(a.name == "fft" for a in node.names))})


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "phy.py"], ids=lambda p: p.name)
def test_only_phy_calls_numpy_fft(path):
    assert fft_uses(ast.parse(path.read_text(), str(path))) == []


def test_flags_numpy_fft():
    tree = ast.parse("import numpy as np\nimport numpy.fft\nfrom numpy import fft as f, pi\n"
                     "from numpy.fft import rfft\na = np.fft.fft(x)\nb = numpy.fft.ifft(x)\n"
                     "c = spectrum(x, fs, 0.0, step, m)\nd = self.fft(x)\ng = np.fft\n")
    assert fft_uses(tree) == [2, 3, 4, 5, 6, 9]
