"""Record the expected exit code and stdout digest of every cli-cold command.

    python3 bench/record_cli_expected.py

Run it only on a commit whose command-line output is the accepted
reference: the cli-cold workload then requires byte-identical output from
every later commit.  Writes bench/cli_expected.json.
"""

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = workloads.cli_env(ROOT)
    expected = {}
    for argv in workloads.cli_catalogue():
        child = workloads.run_child([sys.executable, "-m", "tsmult", *argv], env)
        if child.code not in (0, 2) or b"Traceback" in child.stderr:
            print(f"refusing to record {argv}: exit {child.code}", file=sys.stderr)
            return 1
        expected[json.dumps(argv)] = {"exit": child.code,
                                      "stdout_sha256": workloads.stdout_digest(child.stdout)}
    workloads.CLI_EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} commands in {workloads.CLI_EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
