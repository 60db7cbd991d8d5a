"""The benchmark's traced runs and its numpy import probe, end to end.

Each case runs one child process as the benchmark does.  A break in the
tracing harness (the sizers that read arguments by name, the wrapped
`JumpChain.steps` property, the `-X importtime` report) fails here, and
not only on a full benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["chains", "verify"])
def test_traced_workload_exits_correct(workload):
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "0.3", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True


def test_import_time_report_names_numpy():
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not old else f"{src}{os.pathsep}{old}")
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "tsmult", "lct", "x^2+y^3"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    # the line bench/workloads.py::numpy_import_ms reads: "import time: self | cumulative | numpy"
    names = [line.split("|")[2].strip() for line in run.stderr.splitlines()
             if line.count("|") == 2]
    assert "numpy" in names
