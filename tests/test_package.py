"""The package's top-level surface, and no unused import in the repository's
Python files (``src/``, ``tests/`` and ``bench/``, which are only read)."""

import ast
import importlib
import pkgutil
from pathlib import Path

import angleset
from angleset import admissible, classify, configurations

ROOT = Path(__file__).resolve().parent.parent


def test_every_fixed_cut_is_exported():
    from angleset import INDEX_TOL, PSD_TOL, VERIFY_TOL

    assert PSD_TOL is admissible.PSD_TOL
    assert INDEX_TOL is classify.INDEX_TOL
    assert VERIFY_TOL is configurations.VERIFY_TOL
    assert {"PSD_TOL", "INDEX_TOL", "VERIFY_TOL"} <= set(angleset.__all__)


def test_every_all_entry_exists():
    # A name left in __all__ after its definition is gone breaks
    # ``from angleset.<module> import *`` for users.
    modules = [angleset] + [
        importlib.import_module(f"angleset.{info.name}")
        for info in pkgutil.iter_modules(angleset.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name an import binds that the module never
    reads. A name counts as read when it is loaded or deleted, listed in
    ``__all__``, or used in a string annotation."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                expr = ast.parse(sub.value, mode="eval")
                read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_checker_sees_reads_and_misses():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import sys\n"
        "from json import dumps, loads as _loads\n"
        "from typing import Mapping\n"
        "from pathlib import Path\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Mapping[str, int]') -> list['Path']:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (4, "_loads")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in ("src", "tests", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
