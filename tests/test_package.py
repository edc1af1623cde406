"""The package's top-level surface, the README's library example, and no
unused import in the repository's Python files (``src/``, ``tests/`` and
``bench/``, which are only read)."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import angleset
from angleset import admissible, configurations

ROOT = Path(__file__).resolve().parent.parent
MODULES = [angleset] + [
    importlib.import_module(f"angleset.{info.name}")
    for info in pkgutil.iter_modules(angleset.__path__)
]


def test_every_fixed_cut_is_exported():
    from angleset import PSD_TOL, VERIFY_TOL

    assert PSD_TOL is admissible.PSD_TOL
    assert VERIFY_TOL is configurations.VERIFY_TOL
    # The index class needs no cut: the exact shapes decide it.
    assert {name for name in angleset.__all__ if name.endswith("_TOL")} == {
        "PSD_TOL", "VERIFY_TOL"}


def test_every_all_entry_exists():
    # A name left in __all__ after its definition is gone breaks
    # ``from angleset.<module> import *`` for users.
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def names_read_in_library_and_benchmark() -> set[str]:
    """Every name and attribute that ``src/`` or ``bench/`` loads."""
    read = set()
    for top in ("src", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return read


def test_every_export_has_a_caller():
    # An export that nothing in the library or the benchmark reads, as a
    # name or an attribute, is kept alive only by its own tests.
    read = names_read_in_library_and_benchmark()
    unread = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if name not in read
    ]
    assert unread == []


def test_every_public_member_has_a_caller():
    # The same scan over the public methods, properties, classmethods, enum
    # members and fields of every exported class. Fields are read from the
    # class annotations: Graph keeps its in each instance's __dict__, so
    # vars(cls) does not list them.
    read = names_read_in_library_and_benchmark()
    classes = {
        obj
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if isinstance(obj := getattr(module, name), type)
    }
    unread = sorted(
        f"{cls.__name__}.{member}"
        for cls in classes
        for member in {*vars(cls), *vars(cls).get("__annotations__", ())}
        if not member.startswith("_") and member not in read
    )
    assert unread == []


def test_every_traced_target_resolves():
    # The per-layer benchmark run wraps these by name and would otherwise
    # fail on a rename only when run with tracing on. The tracer is parsed,
    # not imported, so this runs none of the benchmark's code.
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    ]
    missing = []
    for module_name, attr in targets.values():
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert targets and missing == []


# Imports the package afresh three times, as the benchmark's set-up and
# ``importlib.reload`` do, then counts the classes that survive collection.
FRESH_IMPORTS = """
import gc, importlib, sys
for _ in range(3):
    for name in [m for m in sys.modules if m.partition(".")[0] == "angleset"]:
        del sys.modules[name]
    importlib.import_module("angleset")
gc.collect()
print(sum(isinstance(o, type) and o.__name__ == "TauWeighting" for o in gc.get_objects()))
"""


def test_a_fresh_import_frees_the_previous_one():
    # A typing.Union over TauWeighting is memoised by typing, and through the
    # class it kept every earlier import's functions and module dicts alive.
    # A child interpreter leaves this process's own import untouched.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORTS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


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


def same_token(want: str, got: str) -> bool:
    """Equal as numbers to 10 significant digits, or else as text."""
    try:
        return f"{float(want):.10g}" == f"{float(got):.10g}"
    except ValueError:
        return want == got


def test_readme_library_example(capsys):
    # Each print in the block writes one line; a ``# ...`` comment on it
    # states what that line says.
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)
    claims = [line.partition("#")[2].split() for line in code.splitlines()
              if line.startswith("print(")]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(claims)
    checked = [(want, got.split()) for want, got in zip(claims, printed) if want]
    assert checked
    for want, got in checked:
        assert len(want) == len(got) and all(map(same_token, want, got)), (want, got)
