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
* ``search``: the calls to ``find_invertible_subsum`` (the semilocal
  searches included) by engine: ``table`` for the table of distinct sums
  of ``subsets.first_residue_subsum``, ``walk`` for the batch walk;
* ``unit``: the values that the walks' batch tests
  (``matrices.batch_unit_test``) tested, up to the hit or all, by the
  lift's determinant ring kind (``mod`` for Z/N, F_p and the coprime
  products that a lift takes to Z/M), its walk ring kind and walk, the
  matrix size n, and the loop: ``compiled`` for the
  residue loop of ``_laplace_first_unit``, ``generic`` for ``det`` and
  ``is_unit`` mapped over the batch.  The compiled loop does not call
  the ``det`` counted above, so its determinants show only here; the
  generic one does, so its determinants count in both rows;
* ``floor``: per walking search, by the lift's determinant ring kind,
  what the floor of ``matrices.minor_floor`` did: ``fired`` (not a
  unit, so the search ended after the singles), ``not fired`` (a unit,
  so the walk went on), or ``not taken`` (a single was a unit, the
  bound was 1, or the lift has no floor);
* ``chain``: the ideal chains by where their walk ended: ``unit`` at
  the unit ideal, ``floor`` at the floor, ``full`` after every subset
  of at most n members;
* ``miner``: the calls to the miner and the families it found;
* ``route``: the picks of ``matrices.det_route`` by (ring kind,
  algorithm), the algorithm being the name of the picked function:
  ``laplace`` and ``bareiss`` compiled, the loops ``det_bareiss``,
  ``det_elimination_mod`` and ``berkowitz``, and ``rational`` and
  ``product``, which pick their integer or components' routes too.
  ``det_rows`` picks once per call, a lift once per family;
* ``engine``: the calls to the alternating-sum engines, by determinant
  ring kind and n, and to the homogeneous engines, by ring kind.  Both
  sums split a product into one family per component, so a product
  counts its components' calls, by their ring kinds;
* ``argv``: the argvs that ``cli._exact_args`` took, and those that
  argparse parsed, each through one ``build_parser()`` call.

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

from detsum import cli, identities, matrices, search

ALT_SUM_ENGINES = ("_walk_alternating_sum", "_recurrence_alternating_sum")
HOMOGENEOUS_ENGINES = ("_recurrence_homogeneous_sum", "_ring_alternating_sum")


def instrument(counts: Counter) -> None:
    """Count into ``counts`` every lift, determinant, search engine,
    floor, chain stop, batch unit test, miner call, route, engine call
    and argv read."""
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

    batch_unit_test, batch_search, table = search.batch_unit_test, search._batch_search, search.first_residue_subsum
    minor_floor, chain_walk, chain = search.minor_floor, search.search_order_sums, cli.ideal_chain

    def counted_test(lift, n):
        first_unit = batch_unit_test(lift, n)
        walk = "array" if lift.width is None else "int"
        loop = "compiled" if first_unit.__name__ == "laplace_first_unit" else "generic"
        row = ("unit", lift.det_ring.kind, lift.ring.kind, walk, f"n={n}", loop)

        def counted_first_unit(partial, values):
            j = first_unit(partial, values)
            counts[row] += len(values) if j < 0 else j + 1
            return j

        return counted_first_unit

    floors = []  # what the floor did in the current search

    def counted_floor(lift, n):
        floor = minor_floor(lift, n)
        floors.append("not taken" if floor is None else "not fired" if lift.is_unit(floor) else "fired")
        return floor

    def counted_walk(lift, n, bound):
        counts["search", "walk"] += 1
        floors.clear()
        found = batch_search(lift, n, bound)
        counts["floor", lift.det_ring.kind, floors[0] if floors else "not taken"] += 1
        return found

    def counted_table(*args):
        counts["search", "table"] += 1
        return table(*args)

    search.batch_unit_test, search._batch_search, search.first_residue_subsum = counted_test, counted_walk, counted_table
    search.minor_floor = counted_floor
    walked = [0]  # the sums that the current chain walked

    def counted_chain_walk(members, add, bound):
        for item in chain_walk(members, add, bound):
            walked[0] += 1
            yield item

    def counted_chain(matrices):
        walked[0] = 0
        found = chain(matrices)
        m, top = len(matrices), min(matrices[0].n, len(matrices))
        full = walked[0] == sum(math.comb(m, k) for k in range(1, top + 1))
        counts["chain", "full" if full else "unit" if found.generators[-1] == 1 else "floor"] += 1
        return found

    search.search_order_sums, cli.ideal_chain = counted_chain_walk, counted_chain
    miner = cli.mixed_char_counterexample_search

    def counted_miner(*args):
        found = miner(*args)
        counts["miner", "calls"] += 1
        counts["miner", "families"] += len(found)
        return found

    cli.mixed_char_counterexample_search = counted_miner
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

    exact_args, build_parser = cli._exact_args, cli.build_parser

    def counted_exact_args(name, tokens):
        args = exact_args(name, tokens)
        counts["argv", "exact"] += args is not None
        return args

    def counted_build_parser():
        counts["argv", "argparse"] += 1
        return build_parser()

    cli._exact_args, cli.build_parser = counted_exact_args, counted_build_parser


def report(workload: str, ops: int, counts: Counter) -> None:
    print(f"{workload}: {ops} operations")
    print(f"  argv    exact {counts['argv', 'exact']:>7}  argparse {counts['argv', 'argparse']:>7}")
    print(f"  search  table {counts['search', 'table']:>7}  walk {counts['search', 'walk']:>7}")
    if any(what == "chain" for what, *_ in counts):
        print(f"  chain   unit {counts['chain', 'unit']:>8}  floor {counts['chain', 'floor']:>7}"
              f"  full {counts['chain', 'full']:>7}")
    for kind in sorted({key[0] for what, *key in counts if what == "floor"}):
        fired, kept, skipped = (counts["floor", kind, outcome] for outcome in ("fired", "not fired", "not taken"))
        print(f"  floor   {kind:<12} fired {fired:>7}  not fired {kept:>7}  not taken {skipped:>7}")
    if counts["miner", "calls"]:
        print(f"  miner   calls {counts['miner', 'calls']:>7}  families {counts['miner', 'families']:>7}")
    for (what, *key), count in sorted(counts.items()):
        if what == "lift":
            dets = counts["det", *key]
            print(f"  lift    {key[0]:<12} walks {key[1]:<12} as {key[2]:<6} lifts {count:>7}  dets {dets:>9}"
                  f"  ({dets / count:.1f} per lift)")
        elif what == "unit":
            print(f"  unit    {key[0]:<12} walks {key[1]:<12} as {key[2]:<6} {key[3]:<5} {key[4]:<8} tested {count:>9}")
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
