"""Self-test of the benchmark's generators, oracles and span arithmetic.

    python3 bench/selftest.py

Checks, at small sizes, that every construction has the property its
oracle relies on, that a seed always gives the same argv, that the
oracles agree with a permutation-expansion determinant and with detsum's
reports (and reject a tampered report), that self time is computed right
on a synthetic span tree, and that the tracing wrappers come off again.
Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        FAILURES.append(message)


def leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += -term if inversions & 1 else term
    return total


def run_cli(argv) -> tuple[int, dict]:
    from detsum.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def test_determinants(rng) -> None:
    for n in range(1, 6):
        for _ in range(40):
            ints = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            expect(oracles.int_det(ints) == leibniz(ints), f"int_det {ints}")
            fracs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            expect(oracles.fraction_det(fracs) == leibniz(fracs), f"fraction_det {fracs}")


def test_search_order() -> None:
    for m in range(1, 7):
        for bound in range(1, m + 1):
            masks = list(oracles.search_order(m, bound))
            want = sorted((b for b in range(1, 1 << m) if b.bit_count() <= bound),
                          key=lambda b: (b.bit_count(), b))
            expect(masks == want, f"search order m={m} bound={bound}")


SMALL_RINGS = (wl.F101, wl.zmod(9), wl.zmod(10), wl.product(wl.zmod(4), wl.zmod(9)), wl.Z, wl.Q, wl.F2)


def test_constructions(rng) -> None:
    for desc in SMALL_RINGS:
        comps = oracles.components(desc)
        for size in ("small", "large") if desc in (wl.Z, wl.Q) else ("small",):
            for n in (3, 4):
                op = wl.search_subsum(desc, n, 5, 5, size=size)(rng)
                _, mats = oracles.family(op.facts["doc"])
                for bits in oracles.search_order(5, 5):
                    d = oracles.lifted_det(comps, oracles.subset_sum(mats, oracles.indices_of(bits)))
                    expect(oracles.is_zero(comps, d), f"{op.label}: subset {bits:b} not singular")
                for mat in mats:
                    expect(all(oracles.is_zero(comps, [c - a - b for a, b, c in zip(x, y, z)])
                               for x, y, z in zip(mat[0], mat[1], mat[-1])),
                           f"{op.label}: last row is not row0 + row1")
                if size == "large":
                    expect(all(abs(Fraction(e[0]).numerator).bit_length() >= 60
                               for mat in mats for row in mat[:-1] for e in row),
                           f"{op.label}: large entries below 2^59")
        if desc is not wl.F2:
            op = wl.search_subsum(desc, 3, 4, 3, singular=False)(rng)
            _, mats = oracles.family(op.facts["doc"])
            total = oracles.lifted_det(comps, oracles.subset_sum(mats, range(4)))
            expect(oracles.is_unit(comps, total), f"{op.label}: total not invertible")
    for shared in (True, False):
        op = wl.semilocal_search((2, 3, 5, 7), 8, 4, shared_zero=shared)(rng)
        elements = op.facts["doc"]["elements"]
        expect(all(0 in el for el in elements), f"{op.label}: a unit element")
        if shared:
            expect(any(all(el[c] == 0 for el in elements) for c in range(4)), f"{op.label}: no shared zero")
            expect(oracles.semilocal_first_unit((2, 3, 5, 7), elements, 8) is None,
                   f"{op.label}: a unit subsum exists")
    for name in wl.WORKLOADS:
        for op in wl.make_cycle(name, 3, 0):
            sub = op.argv[0]
            if sub in ("alt-sum",):
                doc = op.facts["doc"]
                expect(len(doc["matrices"]) > doc["n"], f"{op.label}: m <= n")
            if sub == "homogeneous":
                doc = op.facts["doc"]
                degrees = {sum(t[0]) for t in doc["poly"]["terms"]}
                expect(degrees == {op.facts["degree"]} and len(doc["vectors"]) > op.facts["degree"],
                       f"{op.label}: not homogeneous of the stated degree, or m <= degree")
            if "--input" in op.argv:
                text = op.argv[op.argv.index("--input") + 1]
                expect(json.loads(text) == op.facts["doc"], f"{op.label}: argv and facts differ")


def test_determinism() -> None:
    for name in wl.WORKLOADS:
        labels = [op.label for op in wl.make_cycle(name, 7, 0)]
        expect(len(set(labels)) == len(labels), f"{name}: template labels repeat within a cycle")
        first = [op.argv for op in wl.make_cycle(name, 7, 1)]
        again = [op.argv for op in wl.make_cycle(name, 7, 1)]
        other = [op.argv for op in wl.make_cycle(name, 8, 1)]
        expect(first == again, f"{name}: same seed gave different argv")
        expect(first != other, f"{name}: different seeds gave the same argv")
        expect(sorted(op.label for op in wl.make_cycle(name, 7, 1))
               == sorted(op.label for op in wl.make_cycle(name, 8, 2)), f"{name}: cycle mix depends on the seed")


def test_oracles_against_cli(rng) -> None:
    """Small ops of every subcommand pass their oracle; tampered reports fail it."""
    ops = [
        wl.search_subsum(wl.F101, 3, 6, 3)(rng),
        wl.search_subsum(wl.zmod(9), 3, 5, 3, singular=False)(rng),
        wl.ideal_chain(wl.zmod(12), 2, 5)(rng),
        wl.ideal_chain(wl.Z, 3, 5)(rng),
        wl.semilocal_search((2, 3, 5, 7), 8, 3, shared_zero=False)(rng),
        wl.semilocal_search((2, 3, 5, 7), 8, 3, shared_zero=True)(rng),
        wl.mine_mixed_char()(rng),
        wl.alt_sum(wl.product(wl.F2, wl.F3, wl.F5), 2, 4)(rng),
        wl.alt_sum(wl.Q, 3, 4, "large")(rng),
        wl.perturb(wl.Z, 3, "large")(rng),
        wl.perturb(wl.zmod(10), 3)(rng),
        wl.simplex(3)(rng),
        wl.homogeneous(wl.zmod(6), 3, 2, 4)(rng),
        wl.symbolic("verify-lemma3", 5, 2)(rng),
        wl.symbolic("verify-lemma2", 3, 2)(rng),
    ]
    ops += [wl.symbolic("certificate", m, n)(rng) for n in (1, 2, 3) for m in range(n + 1, 6)]
    for op in ops:
        code, report = run_cli(op.argv)
        expect(oracles.check(op, code, report) is None, f"oracle rejects a correct report: {oracles.check(op, code, report)}")
        tampered = json.loads(json.dumps(report))
        result = tampered["result"]
        for key in ("witness", "residual", "value", "count", "terms", "chain", "failing_subsets"):
            if key in result:
                result[key] = {"m": 99, "indices": [0]} if key == "witness" else 7
                break
        else:
            raise RuntimeError(f"no field to tamper in {op.label}")
        expect(oracles.check(op, code, tampered) is not None, f"oracle accepts a tampered {op.label}")


def test_certificate_closed_form() -> None:
    from detsum.identities import det_expansion_certificate

    for n in (1, 2, 3):
        for m in range(n + 1, 6):
            for mask, coeff in det_expansion_certificate(m, n):
                size = mask.cardinality()
                expect(1 <= size <= n and coeff == oracles.certificate_coefficient(m, n, size),
                       f"certificate ({m},{n}) mask {mask}: {coeff}")


def test_span_arithmetic() -> None:
    # root [0,10] has children a [1,4] and b [3,6] (overlapping on purpose);
    # a has child c [2,3].  Self: root 10-5, a 3-1, b 3, c 1.
    spans = [(0, 3, 1, "c", 2.0, 3.0), (0, 1, 0, "a", 1.0, 4.0), (0, 2, 0, "b", 3.0, 6.0),
             (0, 0, None, "root", 0.0, 10.0), (1, 4, None, "root", 20.0, 21.0)]
    got = tracing.aggregate(spans)
    want = {"root": (2, 11.0, 6.0), "a": (1, 3.0, 2.0), "b": (1, 3.0, 3.0), "c": (1, 1.0, 1.0)}
    expect(got == want, f"aggregate {got} != {want}")
    expect(tracing.covered([(5.0, 15.0)], 0.0, 10.0) == 5.0, "covered must clip to the parent")


def test_wrappers_restore() -> None:
    expect(tracing.installed() == [], f"wrappers before: {tracing.installed()}")
    with tracing.Tracer() as tracer:
        expect(len(tracing.installed()) > 20, "tracer installed too few wrappers")
        code, _ = run_cli(["alt-sum", "--input", '{"ring":{"kind":"integers"},"n":2,"matrices":'
                                                  '[[[1,2],[3,4]],[[0,1],[1,0]],[[2,2],[1,3]]]}'])
    expect(code == 0 and any(s[3] == "matrices.det_rows.integers.small" for s in tracer.spans),
           "no det_rows span recorded")
    expect(tracing.installed() == [], f"wrappers after Tracer: {tracing.installed()}")
    with tracing.RingCounter() as counter:
        run_cli(["verify-lemma2", "--m", "3", "--n", "2"])
    expect(counter.counts["rings.int_poly.mul"] > 0, "no int_poly multiplications counted")
    expect(tracing.installed() == [], f"wrappers after RingCounter: {tracing.installed()}")

    # A binding that detsum no longer has is skipped, not an error.
    import detsum.search

    saved = detsum.search.masks_of_cardinality
    del detsum.search.masks_of_cardinality
    try:
        with tracing.Tracer():
            expect("search.masks_of_cardinality" not in tracing.installed(), "wrapped a missing binding")
    finally:
        detsum.search.masks_of_cardinality = saved
    expect(tracing.installed() == [], f"wrappers after a missing binding: {tracing.installed()}")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(listed == tracing.PER_LAYER_UNITS, "BENCHMARK.json per_layer differs from tracing.per_layer_names()")
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(listed == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    expect([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS), "workload names differ")


def main() -> int:
    rng = random.Random(20160322)
    for test in (test_determinants, test_search_order, test_constructions, test_determinism,
                 test_oracles_against_cli, test_certificate_closed_form, test_span_arithmetic,
                 test_wrappers_restore, test_benchmark_json):
        before = len(FAILURES)
        if test.__code__.co_argcount:
            test(rng)
        else:
            test()
        print(f"{test.__name__}: {'ok' if len(FAILURES) == before else 'FAILED'}")
    for failure in FAILURES[:20]:
        print(f"  {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
