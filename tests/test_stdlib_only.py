"""The LDC layer needs only the standard library: gf2.py and ldc.py
import nothing but stdlib modules and each other, and gf2 defines only
the four functions the LDC code calls.  A stdlib ast check, since the
toolchain ships no linter, and a fresh interpreter for what an import
loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cifc_cms"
STDLIB_ONLY = ("gf2", "ldc")


def outside_imports(source: str) -> list[str]:
    """The imports of a module of the package that are neither standard
    library modules nor gf2 or ldc."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            mods = [node.module] if node.module else [
                a.name for a in node.names]
            found += ["." + m for m in mods
                      if m.split(".")[0] not in STDLIB_ONLY]
        elif (isinstance(node, ast.ImportFrom)
              and node.module.split(".")[0] not in sys.stdlib_module_names):
            found.append(node.module)
    return found


def public_names(source: str) -> set[str]:
    """The names a module binds at its top level without an underscore,
    imports excluded."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def test_checkers_find_what_they_look_for():
    src = ("from __future__ import annotations\n"
           "import math, numpy as np\n"
           "import scipy.optimize\n"
           "from itertools import accumulate\n"
           "from numpy.linalg import qr\n"
           "from . import gf2, gaussian\n"
           "from .ldc import LdcGains\n"
           "from .gdof import curve_sweep\n"
           "def f(): import cmath\n"
           "def _g(): pass\n"
           "class C: pass\n"
           "X, _y = 1, 2\n")
    assert outside_imports(src) == ["numpy", "scipy.optimize",
                                    "numpy.linalg", ".gaussian", ".gdof"]
    assert public_names(src) == {"f", "C", "X"}


@pytest.mark.parametrize("name", STDLIB_ONLY)
def test_imports_only_the_standard_library(name):
    assert outside_imports((PACKAGE / f"{name}.py").read_text()) == []


def test_gf2_defines_the_four_functions_ldc_calls():
    assert public_names((PACKAGE / "gf2.py").read_text()) \
        == {"eye", "mul", "solve", "independent"}


def fresh_import(*modules: str) -> dict:
    """Import modules in a fresh interpreter; report which of numpy and
    scipy it loaded and which public names the package root binds."""
    code = (f"import sys\nimport {', '.join(modules)}\n"
            "import json, cifc_cms\n"
            "print(json.dumps({'loaded': sorted({'numpy', 'scipy'} & "
            "set(sys.modules)), 'bound': sorted(n for n in vars(cifc_cms) "
            "if not n.startswith('_'))}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_ldc_half_imports_without_numpy():
    assert fresh_import("cifc_cms.gf2", "cifc_cms.ldc") == {
        "loaded": [], "bound": ["gf2", "ldc"]}


def test_cli_import_binds_every_layer():
    # cmsbench imports cifc_cms and then cifc_cms.cli, and reaches the
    # layers as attributes of the package
    assert fresh_import("cifc_cms", "cifc_cms.cli")["bound"] == [
        "cli", "gaussian", "gdof", "gf2", "ldc"]
