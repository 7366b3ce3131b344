"""Record the stdout and exit code of the FIXTURE_COMMANDS entries that
have none yet.

    PYTHONPATH=src python tests/record_fixture_goldens.py

Writes tests/goldens/fixture_outputs.json, which
test_acceptance.test_fixture_outputs_match_goldens compares byte for
byte.  Entries already recorded there are kept as they are, so a run
after a source change cannot silently re-baseline a changed output;
entries of commands no longer in FIXTURE_COMMANDS are dropped.  To
re-record an entry, delete it from the file first, and only for an
intended change of printed output; say in CHANGES.md which outputs
changed and why.
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
    recorded = {}
    if os.path.exists(GOLDENS):
        with open(GOLDENS, encoding="utf-8") as handle:
            recorded = {tuple(entry["command"]): entry for entry in json.load(handle)}
    entries = []
    for command in FIXTURE_COMMANDS:
        entry = recorded.get(tuple(command))
        if entry is None:
            proc = run_fixture(command)
            entry = {"command": command, "exit": proc.returncode,
                     "stdout": proc.stdout.decode("utf-8")}
        entries.append(entry)
    with open(GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, ensure_ascii=False)
        handle.write("\n")


if __name__ == "__main__":
    main()
