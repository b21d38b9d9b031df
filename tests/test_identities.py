"""Identity engines against hand values and independent oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from detsum import (
    INTEGERS,
    RATIONALS,
    ArityMismatch,
    ContractViolation,
    HypothesisViolation,
    ModRing,
    NotHomogeneous,
    PrimeField,
    ProductRing,
    SizeLimit,
    SparsePoly,
    SquareMatrix,
    SubsetMask,
    UnsupportedRing,
    alternating_subset_det_sum,
    check_alternating_det_identity,
    check_alternating_product_identity,
    det,
    det_expansion_certificate,
    find_perturbing_subset,
    generic_matrix_family,
    homogeneous_alternating_sum,
    monomial_coefficient_check,
    perturbation_identity_residual,
    random_matrix,
    simplex_centroid_check,
    subset_sum,
)
from detsum import identities
from detsum.fuzz import run_suite, superset_sign_sums
from detsum.identities import DET_IDENTITY_CAPS, superset_sign_counts
from detsum.subsets import MAX_FAMILY

from conftest import int_rows, ref_alternating_det_sum, ref_det, ref_product_sum, ref_subset_sum

Z10 = ModRing(10)
Z6 = ModRing(6)


# -- alternating subset det sum ---------------------------------------------

def test_alt_sum_telescopes_for_one_by_one():
    a = SquareMatrix(INTEGERS, [[3]])
    b = SquareMatrix(INTEGERS, [[5]])
    assert alternating_subset_det_sum([a, b]).value == 0  # 0 - 3 - 5 + 8


def test_alt_sum_single_matrix_shows_hypothesis_matters():
    a = SquareMatrix(INTEGERS, [[3]])
    assert alternating_subset_det_sum([a]).value == -3


def test_alt_sum_matches_reference_over_z6():
    rng = random.Random(211)
    for _ in range(50):
        fam = [random_matrix(Z6, 2, rng) for _ in range(3)]
        got = alternating_subset_det_sum(fam).value
        assert got == ref_alternating_det_sum([int_rows(a) for a in fam]) % 6 == 0


def test_alt_sum_vanishes_across_rings():
    rng = random.Random(223)
    rings = (
        PrimeField(2),
        PrimeField(7),
        Z6,
        Z10,
        INTEGERS,
        RATIONALS,
        ProductRing([PrimeField(2), PrimeField(3), PrimeField(5)]),
    )
    for ring in rings:
        for n in (1, 2, 3):
            for m in (4, 6):
                fam = [random_matrix(ring, n, rng) for _ in range(m)]
                assert alternating_subset_det_sum(fam).is_zero()


def test_alt_sum_nonzero_below_threshold_over_z():
    rng = random.Random(227)
    hits = 0
    for _ in range(20):
        fam = [random_matrix(INTEGERS, 3, rng) for _ in range(2)]  # m = 2 <= n
        if not alternating_subset_det_sum(fam).is_zero():
            hits += 1
    assert hits > 0  # no vanishing contract below the threshold


# -- symbolic product identity ----------------------------------------------

def test_product_identity_holds():
    for m, n in ((2, 1), (4, 3), (3, 1), (5, 2)):
        report = check_alternating_product_identity(m, n)
        assert report.holds
        assert report.term_count == 1 << m
        assert report.residual.is_zero()


def test_product_identity_fails_without_hypothesis():
    report = check_alternating_product_identity(2, 2, enforce_hypothesis=False)
    assert not report.holds
    # Expansion by hand: (z00+z10)(z01+z11) - z00*z01 - z10*z11
    #                  = z00*z11 + z10*z01, with flat layout z_ij -> 2i+j.
    expected = SparsePoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1})
    assert report.residual.value == expected


@pytest.mark.parametrize(
    "m, n", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (3, 2), (5, 2)]
)
def test_product_identity_residual_matches_expansion(m, n):
    report = check_alternating_product_identity(m, n, enforce_hypothesis=False)
    assert report.residual.value == ref_product_sum(m, n)
    assert report.holds == (m > n)


def test_counted_coefficients_match_the_walk():
    # Every m <= 12 and size <= 4: the binomial count against the 2^m Gray walk.
    for m in range(1, 13):
        for size in range(1, 5):
            assert superset_sign_counts(m, size) == superset_sign_sums(m, size), (m, size)


def test_product_identity_validation():
    with pytest.raises(HypothesisViolation):
        check_alternating_product_identity(3, 3)
    with pytest.raises(HypothesisViolation):
        check_alternating_product_identity(2, 5)
    with pytest.raises(SizeLimit):
        check_alternating_product_identity(37, 1)
    # m*n is the only cap: the counts are closed-form, so no 2^m walk bounds m.
    report = check_alternating_product_identity(36, 1)
    assert report.holds and report.term_count == 1 << 36


# -- coefficient cancellation -----------------------------------------------

def test_monomial_coefficient_examples():
    assert monomial_coefficient_check(3, 1, [1]) == 0
    assert monomial_coefficient_check(4, 2, [0, 0]) == 0  # repeated index
    assert monomial_coefficient_check(5, 3, [0, 1, 2]) == 0


def test_monomial_coefficient_random_choices():
    rng = random.Random(229)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, 8)
        indices = [rng.randrange(m) for _ in range(n)]
        assert monomial_coefficient_check(m, n, indices) == 0


def test_monomial_coefficient_validation():
    with pytest.raises(HypothesisViolation):
        monomial_coefficient_check(2, 2, [0, 1])
    with pytest.raises(ArityMismatch):
        monomial_coefficient_check(4, 2, [0])
    with pytest.raises(Exception):
        monomial_coefficient_check(4, 2, [0, 4])


# -- symbolic determinant identity ------------------------------------------

def test_det_identity_holds():
    for m, n in ((2, 1), (3, 2), (4, 3)):
        report = check_alternating_det_identity(m, n)
        assert report.holds, (m, n)


def test_det_identity_validation():
    with pytest.raises(HypothesisViolation):
        check_alternating_det_identity(2, 2)
    with pytest.raises(SizeLimit):
        check_alternating_det_identity(6, 3)
    with pytest.raises(SizeLimit):
        check_alternating_det_identity(5, 4)


# -- expansion certificate ---------------------------------------------------

def test_certificate_two_one():
    cert = det_expansion_certificate(2, 1)
    assert [(tuple(mask), c) for mask, c in cert] == [((0,), 1), ((1,), 1)]


def test_certificate_three_two():
    cert = det_expansion_certificate(3, 2)
    expected = {
        (0,): -1,
        (1,): -1,
        (2,): -1,
        (0, 1): 1,
        (0, 2): 1,
        (1, 2): 1,
    }
    assert {tuple(mask): c for mask, c in cert} == expected


def test_certificate_four_two_needs_two_levels():
    cert = det_expansion_certificate(4, 2)
    got = {tuple(mask): c for mask, c in cert}
    for single in ((0,), (1,), (2,), (3,)):
        assert got[single] == -2
    for i in range(4):
        for j in range(i + 1, 4):
            assert got[(i, j)] == 1
    assert all(len(k) <= 2 for k in got)


def test_certificate_masks_sorted_in_search_order():
    cert = det_expansion_certificate(4, 2)
    keys = [mask.sort_key() for mask, _ in cert]
    assert keys == sorted(keys)


def test_certificate_reproduces_full_determinant_numerically():
    # Independent check: specialize to seeded integer matrices and compare
    # both sides with the plain permutation-expansion determinant.
    rng = random.Random(233)
    for m, n in ((3, 2), (4, 2), (4, 3)):
        cert = det_expansion_certificate(m, n)
        for _ in range(20):
            fam = [
                [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
                for _ in range(m)
            ]
            lhs = ref_det(ref_subset_sum(fam, range(m)))
            rhs = sum(
                c * ref_det(ref_subset_sum(fam, list(mask))) for mask, c in cert
            )
            assert lhs == rhs


_CERTIFICATE_SHAPES = [
    (m, n)
    for n in range(1, DET_IDENTITY_CAPS[0] + 1)
    for m in range(n + 1, DET_IDENTITY_CAPS[1] + 1)
]


@pytest.mark.parametrize("m, n", _CERTIFICATE_SHAPES)
def test_certificate_support_sums_at_every_allowed_shape(m, n):
    # det is multilinear in rows, so det(sum over S) is the sum, over maps
    # f from the n rows to S, of the determinant taking row j from member
    # f(j).  A term whose image is T occurs in det(sum over S) exactly when
    # S contains T.  So the expansion holds over every commutative ring iff,
    # for every T with 1 <= |T| <= n, the coefficients of the S ⊇ T sum to 1.
    cert = det_expansion_certificate(m, n)
    coeffs = {mask.bits: c for mask, c in cert}
    assert len(cert) == len(coeffs) == sum(math.comb(m, k) for k in range(1, n + 1))
    assert all(1 <= bits.bit_count() <= n for bits in coeffs)
    for t in range(1, 1 << m):
        if t.bit_count() <= n:
            assert sum(c for s, c in coeffs.items() if s & t == t) == 1, bin(t)


def _spoiled(cert, deltas):
    return [(mask, c + deltas.get(i, 0)) for i, (mask, c) in enumerate(cert)]


@pytest.mark.parametrize("m, n", [(3, 1), (4, 2), (5, 3)])
def test_certificate_check_refuses_a_tampered_list(m, n):
    cert = det_expansion_certificate(m, n)
    identities._check_certificate(m, n, cert)
    pair = [i for i, (mask, _) in enumerate(cert) if mask.cardinality() == n][:2]
    tampered = [
        _spoiled(cert, {len(cert) // 2: 1}),  # one coefficient off by one
        cert[:1] + cert[2:],  # one mask dropped
        _spoiled(cert, {pair[0]: 1, pair[1]: -1}),  # two n-set coefficients apart
    ]
    for spoiled in tampered:
        with pytest.raises(ContractViolation, match="failed symbolic verification"):
            identities._check_certificate(m, n, spoiled)


def test_det_identity_counts_suite():
    # The counts route of verify-lemma2 and certificate against the Z[x]
    # expansion at every shape within DET_IDENTITY_CAPS.
    result = run_suite("det-identity-counts", seed=0)
    shapes = len(_CERTIFICATE_SHAPES)
    assert result.checks == shapes * (2 + 8 * 5)
    assert result.failures == 0, result.first_failure


# -- perturbation -------------------------------------------------------------

def test_perturbation_residual_hand_cases():
    a = SquareMatrix(INTEGERS, [[5]])
    b = SquareMatrix(INTEGERS, [[7]])
    assert perturbation_identity_residual([a], b).is_zero()

    zero2 = SquareMatrix.zero(INTEGERS, 2)
    i2 = SquareMatrix.identity(INTEGERS, 2)
    assert perturbation_identity_residual([zero2, zero2], i2).is_zero()


def _wide_entry(rng):
    # An entry of ~2^64: a lifted family of them walks as int arrays.
    return rng.choice((-1, 1)) * ((1 << 63) + rng.getrandbits(63))


def test_perturbation_residual_seeded():
    rng = random.Random(239)
    for ring in (INTEGERS, Z10):
        for n in (1, 2, 3):
            for _ in range(40):
                fam = [random_matrix(ring, n, rng) for _ in range(n)]
                b = random_matrix(ring, n, rng)
                assert perturbation_identity_residual(fam, b).is_zero()
    # det_large sizes: Bareiss over Z with ~2^64 entries and over Z/10.
    for ring, draw in ((INTEGERS, _wide_entry), (Z10, lambda rng: rng.randrange(10))):
        for n in (5, 6, 7):
            for _ in range(3):
                fam = [
                    SquareMatrix(ring, [[draw(rng) for _ in range(n)] for _ in range(n)])
                    for _ in range(n + 1)
                ]
                assert perturbation_identity_residual(fam[:n], fam[n]).is_zero()


def test_perturbation_shape_validation():
    i2 = SquareMatrix.identity(INTEGERS, 2)
    from detsum import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        perturbation_identity_residual([i2], i2)  # needs two 2x2 family matrices


def test_find_perturbing_subset_hand_cases():
    zero2 = SquareMatrix.zero(INTEGERS, 2)
    i2 = SquareMatrix.identity(INTEGERS, 2)
    assert find_perturbing_subset([zero2, zero2], i2) == SubsetMask.from_indices(2, [0])
    assert find_perturbing_subset([zero2, zero2], zero2) is None


def _perturbing_subset_inputs(rng):
    # (ring, n, entry draw): small families over Z, then det_large sizes
    # over Z with ~2^64 entries and over Z/10.
    for _ in range(60):
        yield INTEGERS, rng.randint(1, 3), lambda: rng.randrange(-4, 5)
    for n in (5, 6, 7):
        for _ in range(2):
            yield INTEGERS, n, lambda: _wide_entry(rng)
            yield Z10, n, lambda: rng.randrange(10)


def test_find_perturbing_subset_matches_brute_force():
    rng = random.Random(241)
    for ring, n, draw in _perturbing_subset_inputs(rng):
        fam_rows = [
            [[draw() for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ]
        b_rows = [[draw() for _ in range(n)] for _ in range(n)]
        fam = [SquareMatrix(ring, rows) for rows in fam_rows]
        b = SquareMatrix(ring, b_rows)
        got = find_perturbing_subset(fam, b)

        brute = None
        for card in range(1, n + 1):
            candidates = [
                bits
                for bits in range(1, 1 << n)
                if bin(bits).count("1") == card
            ]
            for bits in sorted(candidates):
                ids = [i for i in range(n) if bits >> i & 1]
                base = ref_subset_sum(fam_rows, ids)
                moved = [
                    [base[i][j] + b_rows[i][j] for j in range(n)] for i in range(n)
                ]
                if ring.normalize(ref_det(base)) != ring.normalize(ref_det(moved)):
                    brute = SubsetMask(bits, n)
                    break
            if brute is not None:
                break
        assert got == brute
        if ring.normalize(ref_det(b_rows)) != 0:
            assert got is not None


# -- homogeneous alternating sum ----------------------------------------------

def test_homogeneous_sum_linear_case():
    f = SparsePoly(2, {(1, 0): 2, (0, 1): -3})
    vectors = [
        [INTEGERS.element(1), INTEGERS.element(4)],
        [INTEGERS.element(-2), INTEGERS.element(5)],
    ]
    assert homogeneous_alternating_sum(f, vectors).is_zero()


def test_homogeneous_sum_matches_det_engine():
    rng = random.Random(251)
    det_poly = det(generic_matrix_family(1, 2)[0]).value
    mats = [random_matrix(INTEGERS, 2, rng) for _ in range(3)]
    vectors = [
        [INTEGERS.element(v) for row in a.rows for v in row] for a in mats
    ]
    by_poly = homogeneous_alternating_sum(det_poly, vectors)
    by_dets = alternating_subset_det_sum(mats)
    assert by_poly == by_dets
    assert by_poly.is_zero()


def test_homogeneous_sum_quadratic_seeded():
    rng = random.Random(257)
    f = SparsePoly(2, {(2, 0): 1, (1, 1): 1})  # x0^2 + x0*x1
    for _ in range(40):
        vectors = [
            [INTEGERS.element(rng.randrange(-5, 6)) for _ in range(2)]
            for _ in range(3)
        ]
        assert homogeneous_alternating_sum(f, vectors).is_zero()


def test_homogeneous_sum_requires_homogeneous():
    mixed = SparsePoly(2, {(1, 0): 1, (0, 0): 1})
    vectors = [[INTEGERS.element(1), INTEGERS.element(2)]]
    with pytest.raises(NotHomogeneous):
        homogeneous_alternating_sum(mixed, vectors)


def test_homogeneous_sum_no_contract_at_degree():
    # m == deg: the sum may be nonzero; check a known case.
    f = SparsePoly(1, {(2,): 1})  # x^2, degree 2
    vectors = [[INTEGERS.element(1)], [INTEGERS.element(2)]]
    # f(0) - f(1) - f(2) + f(3) = 0 - 1 - 4 + 9 = 4
    assert homogeneous_alternating_sum(f, vectors).value == 4


def test_homogeneous_sum_over_q_divides_by_d_to_the_degree():
    # No lift runs over Q: the sum is taken on the Fractions themselves, so
    # with every denominator dividing D = 6 and d = 2 it is a multiple of 1/36.
    f = SparsePoly(1, {(2,): 1})  # x^2
    half, third = RATIONALS.element(Fraction(1, 2)), RATIONALS.element(Fraction(1, 3))
    # f(0) - f(1/2) - f(1/3) + f(5/6) = 0 - 1/4 - 1/9 + 25/36 = 1/3
    assert homogeneous_alternating_sum(f, [[half], [third]]).value == Fraction(1, 3)
    g = SparsePoly(2, {(1, 1): 1})  # x0*x1
    # g(0) - g(1/2, 1/3) = -1/6
    assert homogeneous_alternating_sum(g, [[half, third]]).value == Fraction(-1, 6)
    assert homogeneous_alternating_sum(g, [[half, third], [third, half], [half, half]]).is_zero()


def test_homogeneous_sum_over_a_non_coprime_product():
    # Z/4 x Z/6 is not Z/24 (4 and 6 share a factor); each component is summed on its own.
    ring = ProductRing([ModRing(4), Z6])
    f = SparsePoly(1, {(2,): 1})  # x^2: f(0) - f(a) - f(b) + f(a + b) = 2ab
    a, b = ring.element((1, 1)), ring.element((3, 2))
    # 2*1*3 = 6 = 2 mod 4, and 2*1*2 = 4 mod 6
    assert homogeneous_alternating_sum(f, [[a], [b]]).value == (2, 4)
    assert homogeneous_alternating_sum(f, [[a], [b], [ring.element((2, 5))]]).is_zero()


@pytest.mark.parametrize(
    "ring", [INTEGERS, RATIONALS, Z6, ProductRing([ModRing(4), Z6])], ids=repr
)
def test_homogeneous_sum_of_a_constant(ring):
    # f = 5 has degree 0.  The empty subset adds f(0) = 5, and every m >= 1
    # cancels it: 5 * sum_S (-1)^|S| = 0.  Without it the sum would be -5.
    f = SparsePoly.constant(2, 5)
    rng = random.Random(263)
    for m in range(1, 5):
        vectors = [[ring.element(ring.random(rng)) for _ in range(2)] for _ in range(m)]
        assert homogeneous_alternating_sum(f, vectors).is_zero(), m


def test_homogeneous_lift_agreement_suite():
    result = run_suite("homogeneous-lift-agreement", seed=0)
    assert result.failures == 0, result.first_failure
    # 200 trials, a nonzero sum seen over each of 8 rings, and both sides of
    # the cost guard taken.
    assert result.checks == 209


def test_homogeneous_cost_guard_takes_the_walk(monkeypatch):
    # x1...x40 has 2^40 divisors; three vectors are 8 points of the walk.
    f = SparsePoly(40, {(1,) * 40: 3})
    rng = random.Random(40)
    raw = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(3)]

    def unreachable(*args):
        raise AssertionError("the recurrence ran past its cost guard")

    monkeypatch.setattr(identities, "_recurrence_homogeneous_sum", unreachable)
    vectors = [[INTEGERS.element(x) for x in vec] for vec in raw]
    value = homogeneous_alternating_sum(f, vectors).value
    assert value == identities._ring_alternating_sum(f, INTEGERS, raw)


def test_alt_sum_engine_pick_per_shape():
    # For each n, the first m at which the recurrence runs; it runs at every
    # m past that one.  n = 1 at m <= 2 takes the walk, where the
    # recurrence's fixed cost per call is most of its time.  At n = 6..8 the
    # build of its tables, once per process, moves the first m to where
    # either engine is within 2x of the other in a fresh process and warm.
    # No n past the tables' memory bound runs it.
    first = {
        n: next(m for m in range(1, MAX_FAMILY + 1) if identities._recurrence_is_faster(n, m))
        for n in range(1, identities.RECURRENCE_MAX_N + 1)
    }
    assert first == {1: 3, 2: 3, 3: 5, 4: 7, 5: 9, 6: 11, 7: 14, 8: 17}
    assert all(identities._recurrence_is_faster(n, m) for n, m0 in first.items() for m in range(m0, MAX_FAMILY + 1))
    assert not any(identities._recurrence_is_faster(identities.RECURRENCE_MAX_N + 1, m) for m in range(1, MAX_FAMILY + 1))
    # det_large's alt-sums, m = n + 1 at n = 5..8, build no move table.
    assert not any(identities._recurrence_is_faster(n, n + 1) for n in range(5, 9))


def test_homogeneous_engine_pick_per_shape():
    # Every f of 1-4 terms of degree 1-3 in 4 variables: one vector takes
    # the walk, and the gray benchmark's shapes, m = d + 2 and m = 10, the
    # recurrence.
    for d in (1, 2, 3):
        monomials = [e for e in itertools.product(range(d + 1), repeat=4) if sum(e) == d]
        for t in range(1, 5):
            for terms in itertools.combinations(monomials, t):
                f = SparsePoly(4, {e: 1 for e in terms})
                picks = [identities._recurrence_is_cheaper(f, d, m) for m in (1, d + 2, 10)]
                assert picks == [False, True, True], (terms, picks)


def test_homogeneous_recurrence_runs_on_the_values_own_arithmetic(monkeypatch):
    # Degree 2 at m = 6 takes the recurrence.  Its residues add and multiply
    # as ints, reduced once at the end, and a product is summed per
    # component, so no Z/N or product ring method runs.
    f = SparsePoly(3, {(2, 0, 0): 1, (1, 1, 0): -3, (0, 1, 1): 2})
    assert identities._recurrence_is_cheaper(f, 2, 6)
    rng = random.Random(33)
    families = {
        ring: [[ring.element(ring.random(rng)) for _ in range(3)] for _ in range(6)]
        for ring in (Z6, ProductRing([ModRing(4), Z6]))
    }

    def forbidden(name):
        def spy(*args):
            raise AssertionError(f"{name} called")

        return spy

    for cls in (ModRing, ProductRing):
        for name in ("add", "sub", "mul", "neg", "is_zero", "from_int"):
            monkeypatch.setattr(cls, name, forbidden(f"{cls.__name__}.{name}"))
    for ring, vectors in families.items():
        assert homogeneous_alternating_sum(f, vectors).value == ring.zero
    monkeypatch.undo()
    # One plan serves an exponent shape over every ring.
    identities._homogeneous_plan.cache_clear()
    for ring in (INTEGERS, Z6):
        homogeneous_alternating_sum(f, [[ring.element(k + i) for i in range(3)] for k in range(6)])
    assert identities._homogeneous_plan.cache_info().misses == 1


def test_alt_sum_recurrence_suite():
    result = run_suite("alt-sum-recurrence", seed=0)
    assert result.failures == 0, result.first_failure
    # 540 families within their caps and 25 of the tail's, a nonzero sum
    # seen over each of 12 kinds, and a Q family compared past its lift gate
    assert result.checks == 578


# -- simplex centroid ----------------------------------------------------------

def test_simplex_zero_row_family():
    rng = random.Random(263)
    points = [
        SquareMatrix(RATIONALS, [[rng.randrange(-4, 5), rng.randrange(-4, 5)], [0, 0]])
        for _ in range(3)
    ]
    report = simplex_centroid_check(points)
    assert report.premise_holds
    assert report.centroid_singular
    assert report.failing_subsets == ()


def test_simplex_identity_family_fails_premise():
    e11 = SquareMatrix.diagonal(RATIONALS, [1, 0])
    e22 = SquareMatrix.diagonal(RATIONALS, [0, 1])
    i2 = SquareMatrix.identity(RATIONALS, 2)
    report = simplex_centroid_check([e11, e22, i2])
    assert not report.premise_holds
    assert SubsetMask.from_indices(3, [2]) in report.failing_subsets
    assert not report.centroid_singular  # det(2*I) = 4


def test_simplex_matches_brute_force():
    rng = random.Random(269)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows_list = [
            [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
            for _ in range(n + 1)
        ]
        points = [SquareMatrix(RATIONALS, rows) for rows in rows_list]
        report = simplex_centroid_check(points)
        failing = set()
        m = n + 1
        for bits in range(1, (1 << m) - 1):
            ids = [i for i in range(m) if bits >> i & 1]
            if ref_det(ref_subset_sum(rows_list, ids)) != 0:
                failing.add(bits)
        assert {mask.bits for mask in report.failing_subsets} == failing
        assert report.premise_holds == (not failing)
        full = ref_det(ref_subset_sum(rows_list, range(m)))
        assert report.centroid_singular == (full == 0)
        if report.premise_holds:
            assert report.centroid_singular


def test_simplex_requires_rationals():
    pts = [SquareMatrix.identity(INTEGERS, 2)] * 3
    with pytest.raises(UnsupportedRing):
        simplex_centroid_check(pts)


def test_simplex_point_count_validation():
    from detsum import ShapeMismatch

    pts = [SquareMatrix.identity(RATIONALS, 2)] * 4
    with pytest.raises(ShapeMismatch):
        simplex_centroid_check(pts)
