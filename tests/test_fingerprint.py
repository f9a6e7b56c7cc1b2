"""``.github/scripts/fingerprint.py --diff`` names the runs whose records
differ between two reports and counts them against every run either
report names.

The script runs as a subprocess, because importing it puts ``src/`` and
``perfbench/`` at the front of ``sys.path``.
"""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "fingerprint.py"
LIBRARY = {"P1/0/ma-tr": {"status": "converged", "iterations": 2}}


def report(entries):
    return {"run_list": {"combined": "-", "entries": entries},
            "library": {"statuses": {}, "plant_probes": 0, "runs": LIBRARY}}


def run_diff(tmp_path, old, new):
    paths = []
    for name, data in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(data), encoding="utf-8")
    return subprocess.run([sys.executable, str(SCRIPT), "--diff", *map(str, paths)],
                          capture_output=True, text=True)


def test_identical_reports_differ_nowhere(tmp_path):
    old = report({"a": "1", "b": "2", "c": "3"})
    done = run_diff(tmp_path, old, old)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["run_list: 0 of 3 differ", "library: 0 of 1 differ"]


def test_a_changed_and_a_missing_entry_are_named_and_counted(tmp_path):
    done = run_diff(tmp_path, report({"a": "1", "b": "2", "c": "3"}), report({"a": "1", "b": "4"}))
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == [
        "run_list b: 2 -> 4",
        "run_list c: 3 -> None",
        "run_list: 2 of 3 differ",
        "library: 0 of 1 differ",
    ]
