"""What importing the program costs, where scipy may be imported, and an
unused-import scan.

`import osnrprobe.cli` loads every module of the package, numpy and
scipy.fft, the split step's FFT engine; `fiberlink.py` is the one module
that imports scipy. scipy's signal, integrate and constants packages (the
first pulls in its stats package) would more than double the start-up
every CLI call and worker pays, for one Welch estimate, one trapezoid rule
and two numbers; its linalg package would be loaded for a rank check that
the fit's own singular values give. No linter runs in the test suite, so
the scan below stands in for one.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

from osnrprobe import fiberlink

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def test_import_leaves_heavy_scipy_packages_unloaded():
    heavy = ("scipy.signal", "scipy.integrate", "scipy.constants", "scipy.stats",
             "scipy.linalg")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = f"import sys, osnrprobe.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_si_constants_equal_scipy():
    assert fiberlink.C_M_PER_S == scipy.constants.c
    assert fiberlink.H_PLANCK_J_S == scipy.constants.h


def test_no_unused_imports():
    unused = []
    for path in SCANNED:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    name = bound if isinstance(node, ast.ImportFrom) else bound.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_scipy_only_under_the_split_step():
    importers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "fiberlink.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                importers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert importers == []
