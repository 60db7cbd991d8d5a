"""The benchmark's traced runs and its numpy import probe, end to end.

Each case runs one child process as the benchmark does.  A break in the
tracing harness (the sizers that read arguments by name, the wrapped
`JumpChain.steps` property, the traced CLI child, the `-X importtime`
report) fails here, and not only on a full benchmark run.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["chains", "spectra", "verify"])
def test_traced_workload_exits_correct(workload):
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "0.3", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True


def _env():
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not old else f"{src}{os.pathsep}{old}")


@pytest.mark.parametrize("argv", [
    ["jc", "--window", "2", "--json", "a^4+b^5"],
    ["irrationality", "a^4+b^5"],
    ["ideal", "--alpha", "1/2", "x^24000+y^24000"],
], ids=["jc", "irrationality", "oversized ideal"])
def test_traced_cli_child_exits_with_one_trace_line(argv):
    # the child the traced cli-cold run starts in place of `python -m tsmult`:
    # a catalogued query prints its recorded output and exit code, and the
    # oversized one, which the catalogue leaves out, is refused with exit 2
    recorded = json.loads((ROOT / "bench" / "cli_expected.json").read_text())
    refused = {"exit": 2, "stdout_sha256": hashlib.sha256(b"").hexdigest()}
    want = recorded.get(json.dumps(argv), refused)
    run = subprocess.run([sys.executable, "bench/cli_child.py", *argv], cwd=ROOT, env=_env(),
                         capture_output=True, timeout=120)
    stderr = run.stderr.decode()
    assert run.returncode == want["exit"], stderr
    assert hashlib.sha256(run.stdout).hexdigest() == want["stdout_sha256"]
    assert "Traceback" not in stderr
    traces = [line for line in stderr.splitlines() if line.startswith("BENCH_TRACE ")]
    assert len(traces) == 1, stderr
    report = json.loads(traces[0][len("BENCH_TRACE "):])
    assert report["command_s"] > 0 and report["import_s"] > 0


def test_import_time_report_names_numpy():
    env = _env()
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "tsmult", "lct", "x^2+y^3"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    # the line bench/workloads.py::numpy_import_ms reads: "import time: self | cumulative | numpy"
    names = [line.split("|")[2].strip() for line in run.stderr.splitlines()
             if line.count("|") == 2]
    assert "numpy" in names
