"""Time the ROADMAP sanity cases through ``detsum.cli.main``.

    python3 bench/sanity.py

The cases are the all-singular search (m, n, bound) = (64, 3, 3) over
F_101, the ideal chain over Z with m = 16, n = 3, and the (F2, F3, F5)
miner with m = 4, bound 3.  Checks each report against its oracle and
prints the best of three calls.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from worker import call  # noqa: E402

CASES = (
    ("search-subsum F101 (64, 3, 3), all singular", wl.search_subsum(wl.F101, 3, 64, 3)),
    ("ideal-chain Z m=16 n=3", wl.ideal_chain(wl.Z, 3, 16)),
    ("mine-mixed-char 2,3,5 m=4 bound=3", wl.mine_mixed_char()),
)


def main() -> int:
    for label, template in CASES:
        op = template(random.Random(label))
        times = []
        for _ in range(3):
            code, out, elapsed, crash = call(op.argv)
            problem = crash or oracles.check(op, code, json.loads(out))
            if problem:
                print(f"{label}: {problem}", file=sys.stderr)
                return 1
            times.append(elapsed)
        status = json.loads(out)["status"]
        print(f"{label}: best {min(times):.3f} s of {[round(t, 3) for t in times]} ({status})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
