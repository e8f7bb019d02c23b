"""Import structure of the timemg package: every import sits at module level,
and each submodule imports cleanly when it is the first one loaded, so an
import cycle cannot hide behind an import deferred into a function."""

import ast
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "timemg"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# registers a bare ``timemg`` package so that the named submodule, not
# ``timemg/__init__``, decides the import order
_IMPORT_FIRST = """
import importlib, sys, types
pkg = types.ModuleType("timemg")
pkg.__path__ = [sys.argv[1]]
sys.modules["timemg"] = pkg
importlib.import_module("timemg." + sys.argv[2])
"""


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_functions(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    nested = [f"{fn.name} (line {node.lineno})" for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


@pytest.mark.parametrize("module", MODULES)
def test_imports_when_loaded_first(module):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FIRST, str(PACKAGE), module],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
