"""Every name a package or test module imports is used in that module.

A stdlib ``ast`` scan standing in for a linter's unused-import rule, over
the package and the test modules.  Names are matched per module, not per
scope; ``__init__.py`` is skipped because its imports are the package's
re-exports.  Also: importing the CLI does not load ``scipy.sparse``, which
only the DPs use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import oscillax

MODULES = sorted(p for p in Path(oscillax.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nsep\n") == [
        "line 1: math", "line 2: path"]


def test_no_unused_imports():
    assert MODULES and TEST_MODULES
    found = {str(p.relative_to(p.parent.parent)): unused_imports(p.read_text())
             for p in MODULES + TEST_MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_cli_import_leaves_scipy_sparse_unloaded():
    # the DPs import scipy.sparse when they build their operator, so the
    # start-up of every command is not charged for it
    src = str(Path(oscillax.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, oscillax.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
