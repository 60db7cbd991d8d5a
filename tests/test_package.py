"""The package's lazy exports, the command line's BLAS thread default, and a
guard that the sources call no BLAS routine.

The import checks run in a child process, where no earlier test has loaded
numpy or a tsmult submodule.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _child(code, **env):
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    old = base.get("PYTHONPATH")
    base["PYTHONPATH"] = str(SRC) if not old else f"{SRC}{os.pathsep}{old}"
    run = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_import_loads_no_numpy():
    assert _child("import json, sys, tsmult; print(json.dumps('numpy' in sys.modules))") is False


def test_every_export_resolves_to_its_defining_module():
    bad = _child("""
import json, sys, tsmult
bad = []
for name in tsmult.__all__:
    obj = getattr(tsmult, name)
    home = obj.__module__
    if home != tsmult._LAZY.get(name, "tsmult.errors") or vars(sys.modules[home])[name] is not obj:
        bad.append(name)
bad += [name for name in tsmult.__all__ if name not in dir(tsmult)]
star = {}
exec("from tsmult import *", star)
bad += [name for name in tsmult.__all__ if star.get(name) is not getattr(tsmult, name)]
print(json.dumps(bad))
""")
    assert bad == []


def test_unknown_name_raises_attribute_error_and_submodules_still_import():
    seen = _child("""
import json, tsmult
try:
    tsmult.no_such_name
    seen = "bound"
except AttributeError as exc:
    seen = str(exc)
from tsmult import germs, weights
tsmult.Germ = None  # an assignment shadows the export, and deleting it restores it
shadowed = tsmult.Germ is None
del tsmult.Germ
print(json.dumps([seen, weights.__name__, shadowed, tsmult.Germ is germs.Germ]))
""")
    assert seen == ["module 'tsmult' has no attribute 'no_such_name'", "tsmult.weights", True, True]


_THREADS = """
import json, os, tsmult.__main__
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"], tasks]))
"""


def test_main_module_pins_blas_to_one_thread():
    setting, tasks = _child(_THREADS)
    assert setting == "1"
    if tasks is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert tasks == 1


def test_main_module_keeps_a_preset_thread_count():
    setting, _ = _child(_THREADS, OPENBLAS_NUM_THREADS="2")
    assert setting == "2"


_BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}


def test_sources_call_no_blas_routine():
    # every invariant is exact integer arithmetic, so the command line can
    # run OpenBLAS on one thread; a BLAS call added later would fail here
    found = []
    for path in sorted((SRC / "tsmult").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES
                    or isinstance(node, ast.alias)
                    and node.name.rsplit(".", 1)[-1] in _BLAS_NAMES):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# position of the `usual` flag in each builder of a weight table; a true
# flag builds the Newton weight (nu_j + 1)/m_j
_USUAL_AT = {"diagonal_model": 2, "_one_var_scaled": 3}


class _UsualFlags(ast.NodeVisitor):
    """Calls of a weight-table builder whose `usual` flag may be true: any
    flag but a false constant, or the enclosing builder's own flag passed on."""

    def __init__(self, name):
        self.name, self.scope, self.found = name, None, []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if callee in _USUAL_AT:
            flags = [kw.value for kw in node.keywords if kw.arg == "usual"]
            flags += node.args[_USUAL_AT[callee]:_USUAL_AT[callee] + 1]
            for flag in flags:
                false = isinstance(flag, ast.Constant) and not flag.value
                passed_on = (self.scope in _USUAL_AT and isinstance(flag, ast.Name)
                             and flag.id == "usual")
                if not (false or passed_on):
                    self.found.append(f"{self.name}:{node.lineno}")
        self.generic_visit(node)


def test_only_the_oracles_build_the_newton_weight():
    # multiplier ideals below 1 are read off the microlocal model
    # (J(f^alpha) = V^{>alpha}); the Newton weight stays an independent check
    found = []
    for path in sorted((SRC / "tsmult").glob("*.py")):
        if path.name != "oracles.py":
            visitor = _UsualFlags(path.name)
            visitor.visit(ast.parse(path.read_text(), str(path)))
            found += visitor.found
    assert found == []


def test_only_the_frozen_base_defines_setattr_and_setstate():
    # the exact value types share monomial._Frozen for immutability and
    # pickling; a second copy of either method would fail here
    found = []
    for path in sorted((SRC / "tsmult").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name in ("__setattr__", "__setstate__")]
    assert found == ["monomial._Frozen.__setstate__", "monomial._Frozen.__setattr__"]
