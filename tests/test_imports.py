"""Import structure of the timemg package: every import sits at module level,
and each submodule imports cleanly when it is the first one loaded, so an
import cycle cannot hide behind an import deferred into a function.  The
import itself builds no quadrature tables: every cache starts empty.  Neither
the import nor building a basis's tables loads scipy: numpy is the only
runtime dependency.  The README's module table lists exactly the package's
modules.  No module imports another module's private name.  No module names
an extended-precision type, whose width depends on the platform."""

import ast
import json
import pathlib
import re
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "timemg"
README = PACKAGE.parents[1] / "README.md"
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

# prints {module.function: cache size} for every cached function of the package
_CACHES_AFTER_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import timemg
print(json.dumps({f"{name}.{attr}": fn.cache_info().currsize
                  for name, module in sys.modules.items() if name.startswith("timemg.")
                  for attr, fn in vars(module).items()
                  if hasattr(fn, "cache_info") and fn.__module__ == name}))
"""

# imports the package, builds a basis's tables and one right-hand side, then
# prints every scipy module that any of it loaded
_SCIPY_AFTER_USE = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import timemg
from timemg.dg import BasisSpec, reference_tables, rhs_moments
reference_tables(BasisSpec(3))
rhs_moments(np.sin, BasisSpec(3), 0.1, 4)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
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


def test_import_leaves_caches_empty():
    proc = subprocess.run([sys.executable, "-c", _CACHES_AFTER_IMPORT, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    assert "timemg.dg.reference_tables" in sizes
    assert all(size == 0 for size in sizes.values()), sizes


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; the calls catch an import made
    # inside a third-party function, which the module-level rule cannot see
    proc = subprocess.run([sys.executable, "-c", _SCIPY_AFTER_USE, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_readme_module_table_names_every_module():
    # the "What is inside" table has one row per module, so a module added or
    # deleted without its row fails here
    section = README.read_text().split("## What is inside\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `timemg\.(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(rows) == MODULES


def test_no_private_name_imported_across_modules():
    # a name with a leading underscore belongs to its module; one that
    # another module needs is made public where it lives
    imports = [(path.name, node) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "timemg")]
    private = [f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for name, node in imports for alias in node.names if alias.name.startswith("_")]
    assert imports
    assert private == []


@pytest.mark.parametrize("module", MODULES)
def test_no_extended_precision(module):
    # np.longdouble is 80-bit x87 on x86-64 Linux, float64 under MSVC and on
    # arm64 macOS and software binary128 on aarch64 Linux, so a result that
    # rounds through it differs between platforms; a dtype string counts too
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    named = [node.lineno for node in ast.walk(tree)
             if "longdouble" in (getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "value", None))]
    assert named == []
