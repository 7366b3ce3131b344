"""Record the stdout and exit code of every FIXTURE_COMMANDS entry.

    PYTHONPATH=src python tests/record_fixture_goldens.py

Writes tests/goldens/fixture_outputs.json, which
test_acceptance.test_fixture_outputs_match_goldens compares byte for
byte.  Re-record only for an intended change of printed output, and say
in CHANGES.md which outputs changed and why.
"""

import json
import os
import subprocess
import sys

from conftest import FIXTURE_COMMANDS, fixture_argv

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "goldens", "fixture_outputs.json")


def run_fixture(command):
    return subprocess.run([sys.executable, "-m", "wsmc.cli"] + fixture_argv(command),
                          capture_output=True)


def main():
    entries = []
    for command in FIXTURE_COMMANDS:
        proc = run_fixture(command)
        entries.append({"command": command, "exit": proc.returncode,
                        "stdout": proc.stdout.decode("utf-8")})
    with open(GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, ensure_ascii=False)
        handle.write("\n")


if __name__ == "__main__":
    main()
