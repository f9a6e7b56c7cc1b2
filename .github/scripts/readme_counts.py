"""Check the benchmark's exact counts against the README's own figures.

Usage (from the repository root):

    python3 perfbench/baseline.py | python .github/scripts/readme_counts.py baseline
    python .github/scripts/readme_counts.py traced DIR

``baseline`` reads ``perfbench/baseline.py``'s JSON report on stdin and
compares its ``P3`` counts, the input checks among them, with the
README's baseline sentences.  ``traced`` reads the output of one traced
pass per workload from DIR/traced-<workload>.txt, whose last line is the
pass's JSON report, and compares each pass's iterations, model calls and
input checks with the README's table of them; no pass may make a Cauchy
override: every catalog model declares a Hessian, and its exact step
needs no Cauchy point.

The counts are exact on every machine: a change to a count edits the
README and the tier-1 pins, not a copy here.  Exits non-zero when any
count differs or the README lacks its figures.
"""

import json
import re
import sys


def baseline(text: str) -> None:
    words = " ".join(text.split())
    found = re.search(r"It takes ([\d,]+) model values, ([\d,]+) model gradients"
                      r" \(one per reference it solved from\) and ([\d,]+) plant probes", words)
    if found is None:
        sys.exit("README.md has no baseline sentence")
    checks = re.search(r"baseline run.s ([\d,]+) `as_input_vector` calls?", words)
    if checks is None:
        sys.exit("README.md has no baseline input-check sentence")
    names = ("model_values", "model_gradients", "plant_probes", "as_input_vector_calls")
    counts = found.groups() + checks.groups()
    want = {k: int(v.replace(",", "")) for k, v in zip(names, counts)}
    want["tracer_counts_equal_oracle_counters"] = True
    got = json.load(sys.stdin)
    wrong = {k: got[k] for k in want if got[k] != want[k]}
    if wrong:
        sys.exit(f"baseline counts differ from the README {want}: {wrong}")


def traced(text: str, directory: str) -> None:
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
        with open(f"{directory}/traced-{workload}.txt", encoding="utf-8") as fh:
            report = json.loads(fh.read().splitlines()[-1])
        got = {k: report["metrics"][k]["value"] for k in want}
        if got != want:
            failed = True
            print(f"{workload}: traced counts differ from the README {want}: {got}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:] or [""]
    readme = open("README.md", encoding="utf-8").read()
    if mode == "baseline" and not rest:
        baseline(readme)
    elif mode == "traced" and len(rest) == 1:
        traced(readme, rest[0])
    else:
        sys.exit(__doc__)
