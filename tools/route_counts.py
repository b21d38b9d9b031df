"""Which lifts, determinant routes and engines the benchmark's operations take.

    python3 tools/route_counts.py --seed 0

Runs every operation of cycles 0 and 1 of each workload of
``bench/workloads.py`` through an in-process ``detsum.cli.main``, as
``report_digest.py`` does, and prints per workload:

* ``lift``: the outcomes of ``lift_family`` by (family ring kind, walk
  ring kind, ``int`` for a packed or plain int walk, ``array`` for an
  array walk), with the determinants taken per lift.  These are counted
  on each returned ``Lift``'s ``det``, since a lift runs the route that
  it picked once without calling ``det_rows``;
* ``route``: the picks of ``matrices.det_route`` by (ring kind,
  algorithm), the algorithm being the name of the picked function:
  ``laplace`` and ``bareiss`` compiled, the loops ``det_bareiss``,
  ``det_elimination_mod`` and ``berkowitz``, and ``rational`` and
  ``product``, which pick their integer or components' routes too.
  ``det_rows`` picks once per call, a lift once per family;
* ``engine``: the calls to the alternating-sum engines, by determinant
  ring kind and n, so that a product summed per component counts its
  components' calls, and to the homogeneous engines, by ring kind.

``detsum`` is imported from the ``src`` directory beside this script, so a
copy of the script in another checkout counts that checkout.  ``bench/``
is only read.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter

from report_digest import CYCLES, run, workloads

from detsum import identities, matrices

ALT_SUM_ENGINES = ("_walk_alternating_sum", "_recurrence_alternating_sum")
HOMOGENEOUS_ENGINES = ("_recurrence_homogeneous_sum", "_ring_alternating_sum")


def instrument(counts: Counter) -> None:
    """Count into ``counts`` every lift, determinant, route and engine call."""
    lift_family = matrices.lift_family

    def counted_lift(ring, members, size):
        lift = lift_family(ring, members, size)
        key = (ring.kind, lift.ring.kind, "array" if lift.width is None else "int")
        counts["lift", *key] += 1
        det = lift.det

        def counted_det(value):
            counts["det", *key] += 1
            return det(value)

        return lift._replace(det=counted_det)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("detsum") and getattr(module, "lift_family", None) is lift_family:
            module.lift_family = counted_lift

    det_route = matrices.det_route

    def counted_route(ring, n):
        route = det_route(ring, n)
        counts["route", ring.kind, getattr(route, "func", route).__name__.lstrip("_")] += 1
        return route

    matrices.det_route = counted_route

    def counted_engine(name, engine, key_of):
        def call(*args):
            counts["engine", name.lstrip("_"), key_of(*args)] += 1
            return engine(*args)

        return call

    def alt_sum_key(lift, *_):
        n = math.isqrt(len(lift.cells(lift.members[0])))
        return f"{lift.det_ring.kind} n={n}"

    for name in ALT_SUM_ENGINES:
        setattr(identities, name, counted_engine(name, getattr(identities, name), alt_sum_key))
    for name in HOMOGENEOUS_ENGINES:
        setattr(identities, name, counted_engine(name, getattr(identities, name), lambda poly, ring, vectors: ring.kind))


def report(workload: str, ops: int, counts: Counter) -> None:
    print(f"{workload}: {ops} operations")
    for (what, *key), count in sorted(counts.items()):
        if what == "lift":
            dets = counts["det", *key]
            print(f"  lift    {key[0]:<12} walks {key[1]:<12} as {key[2]:<6} lifts {count:>7}  dets {dets:>9}"
                  f"  ({dets / count:.1f} per lift)")
        elif what == "route":
            print(f"  route   {key[0]:<12} {key[1]:<20} picks {count:>7}")
        elif what == "engine":
            print(f"  engine  {key[0]:<28} {key[1]:<16} calls {count:>7}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    counts: Counter = Counter()
    instrument(counts)
    for workload in workloads.WORKLOADS:
        counts.clear()
        ops = 0
        for cycle in CYCLES:
            for op in workloads.make_cycle(workload, args.seed, cycle):
                run(list(op.argv))
                ops += 1
        report(workload, ops, counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
