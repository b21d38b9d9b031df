"""Acceptance criteria, one test per criterion.

All identities here are exact, so every tolerance is exact zero (or exact
equality); the randomized sweeps must finish with zero failures at the
stated trial counts.  Each test prints one PASS line on success; pytest -v
adds the per-test verdicts.
"""

import math
import random
import time

from detsum import (
    INTEGERS,
    ModRing,
    PrimeField,
    SquareMatrix,
    SubsetMask,
    check_alternating_det_identity,
    check_alternating_product_identity,
    det,
    find_invertible_subsum,
    find_perturbing_subset,
    ideal_chain,
    is_invertible,
    local_counterexample_matrices,
    mixed_char_counterexample_search,
    perturbation_identity_residual,
    random_matrix,
    semilocal_counterexample_instances,
    semilocal_find_unit_subsum,
    subset_sum,
)
from detsum import fuzz
from detsum.fuzz import run_suite, zx_alternating_det_sum
from detsum.subsets import masks_in_search_order

from conftest import int_rows, ref_det, ref_subset_sum


def _report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_c01_product_identity_sweep():
    pairs = [(n, m) for n in range(1, 20) for m in range(n + 1, 21) if m * n <= 20]
    assert len(pairs) == 31
    started = time.perf_counter()
    for n, m in pairs:
        report = check_alternating_product_identity(m, n)
        assert report.holds, f"product identity failed at (n={n}, m={m})"
        assert report.residual.is_zero()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget is 10s"
    _report(1, f"product identity holds on all {len(pairs)} pairs in {elapsed:.2f}s")


def test_c02_det_identity_cases():
    cases = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]  # (n, m)
    started = time.perf_counter()
    for n, m in cases:
        report = check_alternating_det_identity(m, n)
        assert report.holds, f"determinant identity failed at (n={n}, m={m})"
        # The counts decide; the generic matrices expanded over Z[x] agree.
        expanded = zx_alternating_det_sum(m, n)
        assert expanded.is_zero() and expanded == report.residual, (n, m)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"symbolic checks took {elapsed:.2f}s, budget is 60s"
    _report(2, f"determinant identity holds on {cases} in {elapsed:.2f}s")


def test_c03_numeric_identity_sweep():
    result = run_suite("alt-sum-zero", seed=0, trials=200)
    # 7 rings x 9 (n, m) combinations x 200 instances
    assert result.checks == 7 * 9 * 200
    assert result.failures == 0, result.first_failure
    _report(3, f"{result.checks} alternating sums, all exactly zero")


def test_c04_field_bound_tightness():
    ring = PrimeField(101)
    rng = random.Random(4)
    n, m = 3, 7
    successes = 0
    for _ in range(500):
        fam = None
        while fam is None:
            cand = [random_matrix(ring, n, rng) for _ in range(m)]
            if is_invertible(subset_sum(cand, SubsetMask.full(m))):
                fam = cand
        witness = find_invertible_subsum(fam, bound=n)
        assert witness is not None and witness.cardinality() <= n
        assert is_invertible(subset_sum(fam, witness))
        successes += 1
    assert successes == 500

    eii = [
        SquareMatrix.diagonal(ring, [1 if j == i else 0 for j in range(n)])
        for i in range(n)
    ]
    assert find_invertible_subsum(eii, bound=n) == SubsetMask.full(n)
    assert find_invertible_subsum(eii, bound=n - 1) is None
    _report(4, "500/500 bound-3 searches succeeded over F_101; diagonal family needs all n")


def test_c05_local_nonlocal_dichotomy():
    rng = random.Random(5)
    for modulus in (4, 9, 25):
        ring = ModRing(modulus)
        for trial in range(500):
            n = trial % 3 + 1
            m = rng.randint(n + 1, 7)
            fam = None
            while fam is None:
                cand = [random_matrix(ring, n, rng) for _ in range(m)]
                if is_invertible(subset_sum(cand, SubsetMask.full(m))):
                    fam = cand
            witness = find_invertible_subsum(fam, bound=n)
            assert witness is not None, (modulus, n, m)
            assert is_invertible(subset_sum(fam, witness))

    for n in (1, 2, 3):
        fam = local_counterexample_matrices(6, 3, 4, n)
        assert subset_sum(fam, SubsetMask.full(n + 1)) == SquareMatrix.identity(
            ModRing(6), n
        )
        # Exhaustive: every nonempty subset of size <= n is non-invertible.
        for bits in masks_in_search_order(n + 1, max_cardinality=n):
            assert not is_invertible(subset_sum(fam, SubsetMask(bits, n + 1)))
        assert find_invertible_subsum(fam, bound=n) is None
    _report(5, "1500/1500 local-ring searches succeeded; Z/6 family defeats n in {1,2,3}")


def test_c06_ideal_chain_stabilization():
    rng = random.Random(6)
    for _ in range(200):
        fam = [random_matrix(INTEGERS, 3, rng) for _ in range(5)]
        chain = ideal_chain(fam)
        g = chain.generators
        assert g[4] == g[3] and g[5] == g[3]
        full = det(subset_sum(fam, SubsetMask.full(5))).value
        if g[3] == 0:
            assert full == 0
        else:
            assert full % g[3] == 0

    witness = [
        SquareMatrix.diagonal(INTEGERS, [1, 0]),
        SquareMatrix.diagonal(INTEGERS, [0, 1]),
    ]
    assert ideal_chain(witness).generators == (0, 0, 1)
    _report(6, "200 chains stabilized at position 3; strict-ascent witness gives (0, 0, 1)")


def test_c07_semilocal_instances_and_miner():
    inst_a, inst_b = semilocal_counterexample_instances()

    ring = inst_a.ring
    raw = inst_a.raw_elements()
    total = ring.zero
    for v in raw:
        total = ring.add(total, v)
    assert ring.is_unit(total)
    proper = 0
    for bits in range(1, (1 << 4) - 1):
        s = ring.zero
        for i in range(4):
            if bits >> i & 1:
                s = ring.add(s, raw[i])
        assert not ring.is_unit(s)
        proper += 1
    assert proper == 14
    assert semilocal_find_unit_subsum(inst_a, 3) is None

    assert len(set(inst_b.raw_elements())) == 5
    assert semilocal_find_unit_subsum(inst_b, 4) is None

    started = time.perf_counter()
    found = mixed_char_counterexample_search(
        [PrimeField(2), PrimeField(3), PrimeField(5)], 4, 3
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"miner took {elapsed:.2f}s, budget is 60s"
    target = tuple(sorted(inst_a.raw_elements()))
    assert any(tuple(sorted(inst.raw_elements())) == target for inst in found)

    equal_char = mixed_char_counterexample_search([PrimeField(3)] * 3, 4, 3)
    assert equal_char == []
    _report(
        7,
        f"built-in instances verified; miner found {len(found)} families "
        f"(target included) in {elapsed:.2f}s; equal-characteristic miner empty",
    )


def test_c08_two_maximal_ideal_bound():
    for m in range(1, 6):
        assert mixed_char_counterexample_search([PrimeField(2), PrimeField(3)], m, 2) == []
    result = run_suite("two-component-bound", seed=0)
    assert result.failures == 0, result.first_failure
    _report(8, f"no bound-2 counterexample over two components ({result.checks} unit totals checked)")


def test_c09_perturbation():
    rng = random.Random(9)
    for ring in (INTEGERS, ModRing(10)):
        for trial in range(500):
            n = trial % 3 + 1
            fam = [random_matrix(ring, n, rng) for _ in range(n)]
            b = random_matrix(ring, n, rng)
            assert perturbation_identity_residual(fam, b).is_zero()

            witness = find_perturbing_subset(fam, b)
            brute = None
            for bits in masks_in_search_order(n):
                mask = SubsetMask(bits, n)
                base = subset_sum(fam, mask)
                if det(base) != det(base + b):
                    brute = mask
                    break
            assert witness == brute
            if not det(b).is_zero():
                assert witness is not None
    _report(9, "1000 perturbation residuals exactly zero; witnesses match brute force")


def test_c10_geometry_and_homogeneous():
    simplex = run_suite("simplex", seed=0, trials=1000)
    assert simplex.failures == 0, simplex.first_failure
    homogeneous = run_suite("homogeneous-sum", seed=0, trials=100)
    assert homogeneous.failures == 0, homogeneous.first_failure
    assert homogeneous.checks == 200  # 100 polynomials, m = deg+1 and deg+2
    _report(
        10,
        f"{simplex.checks} simplex reports consistent (premise => centroid); "
        f"{homogeneous.checks} homogeneous sums exactly zero",
    )


def test_c11_determinant_cross_validation():
    result = run_suite("det-agreement", seed=0, trials=500)
    assert result.checks == 10 * 500
    assert result.failures == 0, result.first_failure
    _report(11, f"{result.checks} determinants agree across all applicable algorithms")


def test_every_fuzz_suite_passes():
    # A few trials of each registered suite, so that none goes unrun.
    results = fuzz.run_suites(seed=0, trials=3)
    assert [r.name for r in results] == list(fuzz.SUITES)
    failed = [(r.name, r.first_failure) for r in results if r.failures]
    assert not failed, failed
