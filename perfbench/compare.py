"""Compare two benchmark records metric by metric.

    python3 perfbench/compare.py OLD NEW

Each argument is a record written by run.py (perfbench/out/*.json) or
perfbench/trajectory.jsonl, of which the last line is used
(``trajectory.jsonl:K`` picks line K, counting from 1).  Records made
with different scalar backends are not comparable, because the backend
changes the cost of every operation, so the comparison is refused with
exit code 2.  For end-to-end metrics the bound from BENCHMARK.json is
shown; a single pair of records is not enough to claim a gain.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg):
    path, _, line = arg.partition(":")
    text = Path(path).read_text()
    if path.endswith(".jsonl"):
        lines = text.splitlines()
        return json.loads(lines[int(line) - 1] if line else lines[-1])
    return json.loads(text)


def flatten(record):
    """{(workload, metric): value} for a single-workload or an all-workloads record."""
    if "workloads" in record:
        runs = [run for traces in record["workloads"].values() for run in traces.values()]
    else:
        runs = [record]
    return {(run["workload"], name): m["value"] for run in runs for name, m in run["metrics"].items()}


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (load(a) for a in argv)
    if old["backend"] != new["backend"]:
        print(f"refused: backends differ ({old['backend']} vs {new['backend']})", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = flatten(old), flatten(new)
    print(f"backend {new['backend']}; revisions {old.get('revision')} -> {new.get('revision')}")
    for key in sorted(a.keys() & b.keys()):
        m = metrics.get(key[1], {})
        before, after = a[key], b[key]
        change = (after - before) / abs(before) if before else float("nan")
        worse = change if m.get("better") == "lower" else -change
        verdict = ""
        if "bound" in m:
            verdict = "WORSE than bound" if worse > m["bound"] else "within bound"
        print(f"{key[0]:10s} {key[1]:40s} {before:14.6g} {after:14.6g} {change:+8.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
