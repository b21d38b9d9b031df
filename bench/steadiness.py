"""Regenerate the baseline: two sets of ten runs per workload, and their agreement.

    python3 bench/steadiness.py

Runs ``bench/run.py`` once per (workload, seed), one run after another:
first set 1 (seeds 0-9 on every workload), then set 2 (seeds 10-19),
then one traced run per workload at seed 0.  The workloads and the run
length come from ``BENCHMARK.json``.  Writes every run's result and
metadata to ``bench/baseline/steadiness.json`` with, per set, workload and
end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median, and the change of set 2's median from set 1's.
Prints the same as a Markdown table, the one in ``bench/README.md``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "baseline" / "steadiness.json"
RUNS = 10   # runs per workload in each set
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / mid}


def worse_by(metric: dict, before: float, after: float) -> float:
    """Relative change of a median, positive when it got worse."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def table(record: dict, spec: dict) -> list[str]:
    metrics = spec["end_to_end"]
    rows = ["| workload | metric | set 1 median | set 1 IQR/median | set 2 median | set 2 IQR/median "
            "| set 2 worse by | bound |", "|---|---|---|---|---|---|---|---|"]
    for workload in record["sets"][0]:
        first, second = (s[workload]["summary"] for s in record["sets"])
        for metric in metrics:
            a, b = first[metric["name"]], second[metric["name"]]
            rows.append(f"| `{workload}` | `{metric['name']}` | {a['median']:.4g} | {a['iqr_share']:.3f} "
                        f"| {b['median']:.4g} | {b['iqr_share']:.3f} "
                        f"| {worse_by(metric, a['median'], b['median']):+.3f} | {metric['bound']} |")
    return rows


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    record = {"run_seconds": seconds, "sets": [], "traced": {}}
    for number in range(SETS):
        entries = {}
        for workload in names:
            runs = []
            for seed in range(number * RUNS, (number + 1) * RUNS):
                runs.append(run_once(workload, seed, seconds, 0))
                print(f"set {number + 1} {workload} seed={seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["result"]["metrics"].items()),
                      file=sys.stderr, flush=True)
            summary = {m["name"]: spread([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                       for m in spec["end_to_end"]}
            errors = [r["result"]["failed"] / r["result"]["attempted"] for r in runs]
            entries[workload] = {"summary": summary, "error_rate_max": max(errors), "runs": runs}
        record["sets"].append(entries)
    for workload in names:
        record["traced"][workload] = run_once(workload, 0, seconds, 1)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(table(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
