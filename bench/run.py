"""detsum benchmark: one seeded workload, end to end or traced per layer.

    python3 bench/run.py --workload scan --seed 0 --seconds 25 --trace 0

Runs the workload in its own fresh process (``bench/worker.py``), which
also times fresh interpreter starts for the set-up metric.  Prints a line of run
metadata, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
Exits nonzero without a result when the detsum sources are missing or
the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170    # whole run, below the 180 s a run may take

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def run_worker(args, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("the workload process ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"the workload process failed (exit {proc.returncode}): {proc.stderr.strip()[-600:]}")
    return json.loads(lines[-1])


def git_sha() -> str | None:
    """HEAD of a git checkout at the root, read without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    try:
        run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench: error: cannot read run_seconds from BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    deadline = started + TIME_LIMIT_S
    try:
        if not (ROOT / "src" / "detsum" / "cli.py").is_file():
            raise BenchError(f"no detsum sources under {ROOT / 'src'}")
        summary = run_worker(args, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2

    values = summary["metrics"]
    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(values) != set(units):
        print(f"bench: error: metrics {sorted(set(values) ^ set(units))} do not match the list",
              file=sys.stderr)
        return 2

    info = dict(summary["info"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, python=sys.version,
                nproc=os.cpu_count(), git_sha=git_sha(), problems=summary["problems"], run_wall_s=perf_counter() - started)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
