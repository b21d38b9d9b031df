"""Check that the machine-speed scaling moves with detsum as the raw times do.

    python3 bench/neutrality.py

Makes detsum slower on purpose and measures the slow-down twice, from raw
and from scaled latencies.  The slow version replaces the ``det_rows``
bindings in ``detsum.identities`` and ``detsum.search`` by a wrapper that
computes every determinant twice.  Each block takes one cycle of a
workload and measures the factor (slowed total over plain total) three
ways:

- paired: every op runs plain and then slowed, back to back, so a slow
  phase of the host hits both alike; raw times; the reference;
- raw: the whole cycle runs plain, then the whole cycle slowed (the order
  alternates between blocks), as two benchmark runs would; raw times;
- scaled: the same two cycles, with the probe's scaling.

If the scaling is neutral, the scaled factor agrees with the paired one,
and spreads less than the raw one.  Prints every block, and per workload
the median and quartile spread of each factor.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("gray", "det_large")
BLOCKS = 8
SLOWED_SITES = ("identities", "search")


def doubled(fn):
    def wrapper(*args, **kwargs):
        fn(*args, **kwargs)
        return fn(*args, **kwargs)
    return wrapper


def run_op(op, slowed: bool) -> float:
    patches = tracing._Patches()
    if slowed:
        for site in SLOWED_SITES:
            patches.wrap(tracing._detsum(site), "det_rows", doubled)
    try:
        code, out, elapsed, crash = worker.call(op.argv)
    finally:
        patches.restore()
    problem = worker.checked(op, code, out, crash)
    if problem:
        raise RuntimeError(problem)
    return elapsed


def block_total(ops, probe: worker.Probe, slowed: bool) -> tuple[float, float]:
    """(raw, scaled) summed latency of the ops, run plain or slowed."""
    scale = worker.SpeedScale(probe)
    for op in ops:
        scale.add(run_op(op, slowed))
    scaled = scale.total()  # flushes the last latencies into scale.raw
    return sum(scale.raw), scaled


def spread(values: list[float]) -> str:
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return f"median {mid:.3f}, IQR/median {(q3 - q1) / mid:.3f}"


def main() -> int:
    worker.pin_to_one_cpu()
    with worker.Probe() as probe:
        for workload in WORKLOADS:
            paired, raw, scaled = [], [], []
            for block in range(BLOCKS):
                ops = workloads.make_cycle(workload, 0, block)
                times = [(run_op(op, False), run_op(op, True)) for op in ops]
                paired.append(sum(t[1] for t in times) / sum(t[0] for t in times))
                order = (False, True) if block % 2 == 0 else (True, False)
                totals = {slowed: block_total(ops, probe, slowed) for slowed in order}
                raw.append(totals[True][0] / totals[False][0])
                scaled.append(totals[True][1] / totals[False][1])
                print(f"{workload} block {block}: paired {paired[-1]:.3f} raw {raw[-1]:.3f} "
                      f"scaled {scaled[-1]:.3f}", flush=True)
            print(f"{workload} factor: paired {spread(paired)}; raw {spread(raw)}; scaled {spread(scaled)}")
    if tracing.installed():
        raise RuntimeError(f"wrappers left installed: {tracing.installed()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
