"""Run the tsmult command line once with tracing installed.

Used in place of ``python -m tsmult`` by the traced run of the cli-cold
workload.  Arguments are passed to ``tsmult.cli.main`` unchanged; the
trace goes to stderr as one line starting with the workloads' TRACE_MARK.
"""

import json
import sys
import time

started = time.perf_counter()

import_start = time.perf_counter()
import tsmult.cli  # noqa: E402  (timed: the import is what this measures)

import_s = time.perf_counter() - import_start

from measure import Tracer, install_tracing  # noqa: E402
from workloads import TRACE_MARK  # noqa: E402

tracer = Tracer()
install_tracing(tracer)
code = 1
command_start = time.perf_counter()
try:
    code = tsmult.cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse reports usage errors this way
    code = exc.code
finally:
    done = time.perf_counter()
    sys.stdout.flush()
    report = {"import_s": import_s, "command_s": done - command_start,
              "child_s": done - started, **tracer.snapshot()}
    sys.stderr.write(TRACE_MARK + json.dumps(report) + "\n")
    sys.stderr.flush()
sys.exit(code)
