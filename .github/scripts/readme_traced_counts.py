"""Check the traced benchmark passes against the README's table of counts.

Usage (from the repository root), after one traced pass per workload has
written its output to DIR/traced-<workload>.txt:

    python .github/scripts/readme_traced_counts.py DIR

Each pass's iterations, model calls and input checks, which are exact on
every machine, must equal the README's table of them: a change to a count
edits the README and the tier-1 pins, not a copy here.  No pass may make
a Cauchy override: every catalog model declares a Hessian, and its exact
step needs no Cauchy point.  The last line of each pass's output is its
JSON report.  Exits 1 when any count differs.
"""

import json
import re
import sys

text = open("README.md", encoding="utf-8").read()
rows = re.findall(r"^\| `([a-z-]+)` \| ([\d,]+) \| ([\d,]+) \| [\d.]+ \| ([\d,]+) \| [\d.]+ \|$",
                  text, re.M)
if sorted(w for w, *_ in rows) != ["converge", "noisy", "rosenbrock-cap"]:
    sys.exit(f"README.md has no table of traced counts for the three workloads: {rows}")
failed = False
for workload, *counts in rows:
    iterations, model_calls, checks = (int(c.replace(",", "")) for c in counts)
    want = {
        "drivers.iterations": iterations,
        "problems.model_calls_per_iter": model_calls / iterations,
        "problems.as_input_vector.calls_per_iter": checks / iterations,
        "subproblem.override_ratio": 0.0,
    }
    with open(f"{sys.argv[1]}/traced-{workload}.txt", encoding="utf-8") as fh:
        report = json.loads(fh.read().splitlines()[-1])
    got = {k: report["metrics"][k]["value"] for k in want}
    if got != want:
        failed = True
        print(f"{workload}: traced counts differ from the README {want}: {got}")
sys.exit(1 if failed else 0)
