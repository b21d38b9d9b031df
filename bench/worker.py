"""One workload in a fresh process: a closed loop with a single client.

The client calls ``detsum.cli.main(argv)`` in-process, captures the one
JSON report, checks it against the oracle (untimed), and only then issues
the next call.  Prints one JSON summary line for ``run.py``.

    python3 bench/worker.py --workload scan --seed 0 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from detsum.cli import main as detsum_main  # noqa: E402

MIN_CYCLES = 5     # every template is timed at least this often
SETUP_STARTS = 9   # at least this many measured fresh starts per run
PROBLEMS_KEPT = 5

# Machine-speed probe: a fixed stdlib Fraction loop, timed in a helper
# process of its own between operations.  The shared host has slow phases
# lasting from a second to minutes (CPU time equals wall time, so this is
# not scheduling); latencies are scaled to the speed at which the probe
# takes REFERENCE_PROBE_S, the fastest probe seen on a 2-vCPU x86-64 host
# running CPython 3.11.  The helper shares no heap, allocator or garbage
# collector with detsum, so detsum's state cannot reach the divisor
# (``neutrality.py`` checks that scaled and raw times move alike).  A
# Fraction loop follows the slow phases more closely than a plain integer
# loop.
PROBE_ITERATIONS = 700
REFERENCE_PROBE_S = 0.0032
PROBE_EVERY_S = 0.1

PROBE_PROGRAM = f"""
import sys
from fractions import Fraction
from time import perf_counter
for _ in sys.stdin:
    start = perf_counter()
    acc = Fraction(1)
    for i in range(1, {PROBE_ITERATIONS}):
        acc = (acc + Fraction(i, i + 1)) * Fraction(i + 2, i + 3)
        if acc.denominator > 1 << 256:
            acc = Fraction(1)
    print(repr(perf_counter() - start), flush=True)
"""

# A fresh interpreter imports detsum.cli and prints one trivial report.
SETUP_PROGRAM = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import detsum.cli
imported = time.perf_counter()
code = detsum.cli.main(["example8"])
sys.stderr.write(repr(imported - start))
sys.exit(code)
"""


def pin_to_one_cpu() -> None:
    """Keep this process and the ones it starts on one CPU.

    The host's vCPUs go through slow phases independently, so the probe
    follows the workload's speed only when both run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Probe:
    """The calibration loop in its helper process; calling it returns seconds."""

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen([sys.executable, "-c", PROBE_PROGRAM], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self()  # warm-up
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the probe process ended (exit {self.proc.wait()})")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class SpeedScale:
    """Scales latencies by the machine speed probed before and after them.

    A probe runs once at least PROBE_EVERY_S has passed since the last one;
    every latency recorded in between is multiplied by REFERENCE_PROBE_S
    over the mean of the two probes that bracket it.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.probes = [probe()]
        self.last_at = perf_counter()
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []

    def add(self, elapsed: float) -> None:
        self._pending.append(elapsed)
        if perf_counter() - self.last_at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        self.probes.append(self.probe())
        factor = REFERENCE_PROBE_S / ((self.probes[-2] + self.probes[-1]) / 2)
        self.raw += self._pending
        self.scaled += [elapsed * factor for elapsed in self._pending]
        self._pending = []
        self.last_at = perf_counter()

    def total(self) -> float:
        self.flush()
        return sum(self.scaled)


def fresh_start() -> tuple[float, float]:
    """(seconds to start, import detsum.cli and report, import seconds)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROGRAM, str(ROOT / "src")], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - start
    try:
        holds = json.loads(proc.stdout)["status"] == "holds"
    except (ValueError, KeyError, TypeError):
        holds = False
    if proc.returncode != 0 or not holds:
        raise RuntimeError(f"set-up run failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
    return elapsed, float(proc.stderr.strip().splitlines()[-1])


class Setup:
    """Fresh starts spread over the run, speed-scaled like the operations.

    The first, cold start (which may compile bytecode) is discarded.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        fresh_start()
        self.samples: list[tuple[float, float]] = []

    def measure(self) -> None:
        before = self.probe()
        elapsed, imported = fresh_start()
        factor = REFERENCE_PROBE_S / ((before + self.probe()) / 2)
        self.samples.append((elapsed * factor, imported * factor))

    def medians(self) -> tuple[float, float]:
        while len(self.samples) < SETUP_STARTS:
            self.measure()
        return (statistics.median(s[0] for s in self.samples),
                statistics.median(s[1] for s in self.samples))


def call(argv, wrap=None) -> tuple[int | None, str, float, str | None]:
    """(exit code, captured report, seconds, exception) for one CLI call."""
    buf = io.StringIO()
    code, crash = None, None
    with contextlib.redirect_stdout(buf):
        start = perf_counter()
        try:
            code = wrap(detsum_main, argv) if wrap else detsum_main(list(argv))
        except Exception:  # a traceback is a failed operation, not a benchmark crash
            crash = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
    return code, buf.getvalue(), elapsed, crash


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < PROBLEMS_KEPT:
                self.problems.append(problem)


def checked(op, code, out, crash) -> str | None:
    if crash is not None:
        return f"{op.label}: raised {crash.strip().splitlines()[-1]}"
    try:
        report = json.loads(out)
    except ValueError:
        report = None
    return oracles.check(op, code, report)


def percentiles(latencies: list[float]) -> tuple[float, float]:
    """(p50, p90) with the inclusive method of ``statistics.quantiles``."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[4], deciles[8]


def untraced_loop(workload: str, seed: int, seconds: float, probe: Probe) -> dict:
    """Whole cycles until ``seconds`` have passed; one fresh start after each."""
    if tracing.installed():
        raise RuntimeError(f"wrappers installed before the untraced run: {tracing.installed()}")
    tally = Tally()
    setup = Setup(probe)
    scale = SpeedScale(probe)
    started = perf_counter()
    cycle = 0
    while cycle < MIN_CYCLES or perf_counter() - started < seconds:
        for op in workloads.make_cycle(workload, seed, cycle):
            code, out, elapsed, crash = call(op.argv)
            scale.add(elapsed)
            tally.record(checked(op, code, out, crash))
        scale.flush()
        setup.measure()
        cycle += 1
    wall = perf_counter() - started
    if tracing.installed():
        raise RuntimeError(f"wrappers installed during the untraced run: {tracing.installed()}")
    scaled, raw = scale.scaled, scale.raw
    p50, p90 = percentiles(scaled)
    raw_p50, raw_p90 = percentiles(raw)
    setup_s, import_s = setup.medians()
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {
            "setup_s": setup_s,
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "info": {
            "cycles": cycle,
            "samples": len(scaled),
            "samples_beyond_p90": sum(1 for x in scaled if x > p90),
            "setup_starts": len(setup.samples),
            "import_s": import_s,
            "unscaled": {"ops_per_s": len(raw) / sum(raw), "op_p50_ms": raw_p50 * 1e3,
                         "op_p90_ms": raw_p90 * 1e3},
            "probe_s": {"count": len(scale.probes), "min": min(scale.probes),
                        "median": statistics.median(scale.probes), "reference": REFERENCE_PROBE_S},
            "loop_wall_s": wall,
            "error_rate": tally.failed / tally.attempted,
        },
    }


def traced_passes(workload: str, seed: int, spans_path: Path, probe: Probe) -> dict:
    """Per-layer metrics over one fixed cycle of operations.

    Pass 1 runs every op untraced and checks it against the oracle; it also
    warms caches.  Pass 2 runs each op untraced and then traced, back to
    back, so the overhead ratio compares calls made in the same machine
    phase.  Pass 3 counts ring arithmetic.  Passes 2 and 3 must reproduce
    the pass-1 reports byte for byte.
    """
    ops = workloads.make_cycle(workload, seed, 0)
    tally = Tally()

    def untraced(op):
        if tracing.installed():
            raise RuntimeError(f"wrappers installed around an untraced call: {tracing.installed()}")
        return call(op.argv)

    reports = []
    for op in ops:
        code, out, _, crash = untraced(op)
        reports.append(out)
        tally.record(checked(op, code, out, crash))

    def same_report(op, index, out, crash):
        if crash is not None:
            return f"{op.label}: raised {crash.strip().splitlines()[-1]}"
        return None if out == reports[index] else f"{op.label}: report changed under tracing"

    tracer = tracing.Tracer()
    base, traced = SpeedScale(probe), SpeedScale(probe)
    input_bytes = report_bytes = 0
    for index, op in enumerate(ops):
        _, out, elapsed, crash = untraced(op)
        base.add(elapsed)
        tally.record(same_report(op, index, out, crash))
        tracer.op = index
        with tracer:
            _, out, elapsed, crash = call(
                op.argv, lambda fn, argv: tracer.span("cli.main", fn, (list(argv),), {}))
        traced.add(elapsed)
        tally.record(same_report(op, index, out, crash))
        input_bytes += sum(len(a.encode()) for a, prev in zip(op.argv[1:], op.argv) if prev == "--input")
        report_bytes += len(out.encode())
    with tracing.RingCounter() as counter:
        for index, op in enumerate(ops):
            _, out, _, crash = call(op.argv)
            tally.record(same_report(op, index, out, crash))
    if tracing.installed():
        raise RuntimeError(f"wrappers left installed: {tracing.installed()}")

    tracer.dump(spans_path)
    metrics = dict.fromkeys(tracing.PER_LAYER_UNITS, 0)
    metrics.update(tracer.layer_metrics())
    metrics.update(counter.counts)
    metrics["jsonio.input_bytes"] = input_bytes
    metrics["jsonio.report_bytes"] = report_bytes
    metrics["trace.overhead_ratio"] = traced.total() / base.total()
    setup = Setup(probe)
    metrics["cli.import_s"] = setup.medians()[1]
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
        "info": {"ops": len(ops), "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
                 "unlisted_spans": sorted(tracer.unlisted),
                 "untraced_s": base.total(), "traced_s": traced.total()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    with Probe() as probe:
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            summary = traced_passes(args.workload, args.seed,
                                    out_dir / f"spans-{args.workload}-{args.seed}.json", probe)
        else:
            summary = untraced_loop(args.workload, args.seed, args.seconds, probe)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
