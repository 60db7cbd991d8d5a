"""The package's lazy exports, the command line's BLAS thread default and
cold-start imports, guards that the sources call no BLAS routine and load
no oracle on import, and that every public rational parameter refuses a
float.

The import checks run in a child process, where no earlier test has loaded
numpy or a tsmult submodule.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _env(**env):
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    old = base.get("PYTHONPATH")
    base["PYTHONPATH"] = str(SRC) if not old else f"{SRC}{os.pathsep}{old}"
    return {**base, **env}


def _child(code, **env):
    run = subprocess.run([sys.executable, "-c", code], env=_env(**env),
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


# the tsmult modules a cold `python -m tsmult` call loads beyond what
# parsing needs (cli errors germs monomial); a malformed germ loads no more
_ENGINE = {
    ("lct", "x^2+y^3"): "",
    ("ideal", "--alpha", "1/2", "x^2+y^3"): "filtration weights",
    ("graded", "--alpha", "1/2", "x^2+y^3"): "filtration weights",
    ("spectrum", "x^2+y^3"): "spectral weights",
    ("eigen", "x^2+y^3"): "spectral weights",
    ("jc", "x^2+y^3"): "filtration spectral weights",
    ("irrationality", "x^2+y^3"): "convolution filtration spectral weights",
    ("verify",): "convolution filtration oracles spectral weights",
}
_ENGINE.update({(*argv[:-1], "x^"): "" for argv in _ENGINE if argv != ("verify",)})


@pytest.mark.parametrize("argv", _ENGINE, ids=" ".join)
def test_each_command_loads_only_its_engine(argv):
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "tsmult", *argv],
                         env=_env(), capture_output=True, text=True, timeout=60)
    assert run.returncode == (2 if argv[-1] == "x^" else 0), run.stderr
    # -X importtime writes "import time: self | cumulative | name" per first import
    names = (line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
             if line.startswith("import time:"))
    loaded = sorted(name[len("tsmult."):] for name in names if name.startswith("tsmult."))
    assert loaded == sorted(f"cli errors germs monomial {_ENGINE[argv]}".split())


def test_main_module_freezes_what_it_imports():
    # `python -m tsmult` moves the imported heap out of the collector's reach,
    # and a cycle made after it is still collected; importing cli freezes nothing
    frozen, collected = _child("""
import gc, json, tsmult.__main__
cycle = []
cycle.append(cycle)
del cycle
print(json.dumps([gc.get_freeze_count(), gc.collect()]))
""")
    assert frozen > 0 and collected >= 1
    assert _child("import gc, json, tsmult.cli; print(json.dumps(gc.get_freeze_count()))") == 0


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


def test_only_as_fraction_coerces_to_fraction():
    # Fraction(x) takes a float, 5/6 as 7505999378950827/9007199254740992;
    # monomial.as_fraction refuses it, so a parameter coerced any other way
    # would fail here
    found = []
    for path in sorted((SRC / "tsmult").glob("*.py")):
        stack = [ast.parse(path.read_text(), str(path))]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef) and node.name == "as_fraction":
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("Fraction", "Rat") and len(node.args) == 1
                    and isinstance(node.args[0], ast.Name)):
                found.append(f"{path.name}:{node.lineno}")
            stack.extend(ast.iter_child_nodes(node))
    assert found == []


def _float_calls():
    """One call per public rational parameter, each passing a float there."""
    from tsmult import cli, oracles
    from tsmult.convolution import (ts_convolve_chains, ts_graded, ts_jumpset, ts_lct,
                                    ts_multiplier)
    from tsmult.filtration import (JumpChain, JumpSet, graded_at, j_lookup, jumpset_of,
                                   periodic_extend, usual_jumpset, v_lookup, v_to_j)
    from tsmult.germs import Germ, diagonal_microlocal_chain, diagonal_usual_chain
    from tsmult.monomial import MonomialIdeal
    from tsmult.spectral import EigenTable, Spectrum

    cusp = Germ((2, 3))
    v = diagonal_microlocal_chain(cusp)
    j = v_to_j(v)
    jumps = jumpset_of(v)
    return {
        "JumpChain": lambda: JumpChain(v.model, "V", 1.0),
        "JumpSet": lambda: JumpSet(6, [5], 1.0),
        "v_lookup": lambda: v_lookup(v, 5 / 6),
        "j_lookup": lambda: j_lookup(j, 0.5),
        "graded_at": lambda: graded_at(v, 5 / 6),
        "usual_jumpset": lambda: usual_jumpset(jumps, 2.0),
        "periodic_extend": lambda: periodic_extend(j, 1.5),
        "ts_convolve_chains": lambda: ts_convolve_chains(v, v, 1.0),
        "ts_multiplier": lambda: ts_multiplier(v, v, 0.5),
        "ts_jumpset": lambda: ts_jumpset(jumps, jumps, 1.0),
        "ts_jumpset of an empty set": lambda: ts_jumpset(JumpSet(1, [], 1), jumps, 1.0),
        "ts_lct": lambda: ts_lct(0.5, 0.5),
        "ts_graded": lambda: ts_graded(v, v, 1.0),
        "diagonal_microlocal_chain": lambda: diagonal_microlocal_chain(cusp, 1.0),
        "diagonal_usual_chain": lambda: diagonal_usual_chain(cusp, 0.5),
        "Germ": lambda: Germ((2, 3), coefficients=(0.5, 1)),
        "Spectrum": lambda: Spectrum(2, [(5 / 6, 1)]),
        "EigenTable": lambda: EigenTable([(-1 / 6, 1)]),
        "one_var_integrable": lambda: oracles.one_var_integrable(0, 2, 0.5),
        "newton_membership": lambda: oracles.newton_membership(
            MonomialIdeal(2, [(2, 0), (0, 3)]), (0, 0), 0.5),
        "summation_path": lambda: oracles.summation_path(2, 3, 0.5),
        "exact_monomial_integrable": lambda: oracles.exact_monomial_integrable(cusp, (0, 0), 0.5),
        "monte_carlo_integrable": lambda: oracles.monte_carlo_integrable(cusp, (0, 0), 0.5),
        "cli._rat": lambda: cli._rat(0.5),
        "a bool window": lambda: diagonal_microlocal_chain(cusp, True),
    }


def test_every_public_rational_parameter_refuses_a_float():
    # v_lookup(x^2+y^3 chain, 5/6) read the float just below 5/6 and gave
    # ((0, 1), (1, 0)), and graded_at there the zero piece
    wrong = {}
    for name, call in _float_calls().items():
        try:
            call()
        except TypeError as exc:  # as_fraction's, not one of a wrong call
            if not re.match("expected an exact rational|bool is not", str(exc)):
                wrong[name] = repr(exc)
        else:
            wrong[name] = "accepted"
    assert wrong == {}


def _imported_on_load(tree):
    """The modules a source imports when it loads: every import outside a
    function body, relative ones resolved in the tsmult package."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # every source sits directly in the package
                base = f"tsmult.{base}".rstrip(".")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_loads_the_oracles_on_import():
    # the oracles are independent checks, imported only by the code that runs
    # one, so no command or library call but a check pays for loading them
    found = [f"{path.name}: {name}" for path in sorted((SRC / "tsmult").glob("*.py"))
             for name in _imported_on_load(ast.parse(path.read_text(), str(path)))
             if name == "tsmult.oracles"]
    assert found == []
