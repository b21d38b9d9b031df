"""Subset-sum searches, counterexample families, ideal chains, semilocal ops."""

import math
import random

import pytest

from detsum import (
    INTEGERS,
    RATIONALS,
    InvalidParameters,
    MixedComponentFields,
    ModRing,
    PrimeField,
    ProductRing,
    SearchSpaceTooLarge,
    SemilocalInstance,
    SquareMatrix,
    SubsetMask,
    TooManyMatrices,
    UnsupportedRing,
    det,
    embed_product_to_matrices,
    find_invertible_subsum,
    ideal_chain,
    is_invertible,
    local_counterexample_matrices,
    mixed_char_counterexample_search,
    random_matrix,
    semilocal_counterexample_instances,
    semilocal_find_unit_subsum,
    subset_sum,
)
from detsum import search
from detsum.fuzz import run_suite

from conftest import (
    int_rows,
    ref_det,
    ref_first_unit_subsum,
    ref_minor_floor,
    ref_mixed_char_families,
    ref_subset_sum,
)

Z6 = ModRing(6)
F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


def eii_family(ring, n):
    return [
        SquareMatrix.diagonal(ring, [1 if j == i else 0 for j in range(n)])
        for i in range(n)
    ]


# -- invertible subset search --------------------------------------------------

def test_search_elementary_diagonals_need_all_n():
    for n in (2, 3, 4):
        fam = eii_family(RATIONALS, n)
        witness = find_invertible_subsum(fam, bound=n)
        assert witness == SubsetMask.full(n)
        assert find_invertible_subsum(fam, bound=n - 1) is None


def test_search_single_invertible_matrix():
    fam = [SquareMatrix.identity(F7, 3)]
    assert find_invertible_subsum(fam, bound=1) == SubsetMask.from_indices(1, [0])


def test_search_returns_minimal_witness():
    rng = random.Random(311)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(2, 10)
        fam = [random_matrix(F5, n, rng) for _ in range(m)]
        got = find_invertible_subsum(fam, bound=m)
        brute = None
        for card in range(1, m + 1):
            for bits in sorted(b for b in range(1, 1 << m) if bin(b).count("1") == card):
                ids = [i for i in range(m) if bits >> i & 1]
                if ref_det(ref_subset_sum([int_rows(a) for a in fam], ids)) % 5 != 0:
                    brute = SubsetMask(bits, m)
                    break
            if brute:
                break
        assert got == brute


def _count_tested(monkeypatch):
    # The values that each call of the search's batch test tests: up to
    # its hit, or all of them.
    tested = []
    batch_unit_test = search.batch_unit_test

    def counted_test(*args):
        first_unit = batch_unit_test(*args)

        def counted(partial, values):
            j = first_unit(partial, values)
            tested.append(len(values) if j < 0 else j + 1)
            return j

        return counted

    monkeypatch.setattr(search, "batch_unit_test", counted_test)
    return tested


def _singular(ring, n, rng):
    # The last row is the sum of the first two, in every subset sum too.
    rows = [list(row) for row in random_matrix(ring, n, rng).rows]
    rows[-1] = [ring.add(a, b) for a, b in zip(rows[0], rows[1])]
    return SquareMatrix(ring, rows)


def _rank_one(ring, n, m, rng):
    # u_i v_i^T, the first n of them E_ii: a sum of fewer than n members is
    # singular, while the columns e_0..e_n-1 of the first n make the ideal
    # of maximal minors of both stacks the unit ideal, so no floor ends
    # the search.
    def member(i):
        u = [int(j == i) for j in range(n)] if i < n else [ring.random(rng) for _ in range(n)]
        v = [int(j == i) for j in range(n)] if i < n else [ring.random(rng) for _ in range(n)]
        return SquareMatrix(ring, [[ring.normalize(a * b) for b in v] for a in u])

    return [member(i) for i in range(m)]


def test_search_tests_every_subset_once(monkeypatch):
    # On a rank-one family below n members each of the sum_{k<=bound}
    # C(m, k) sums is tested once; on a family whose last rows are the sum
    # of its first two the floor ends the search after the m singles; on
    # an invertible one the search stops at the witness, having tested
    # exactly the sums before it in search order.  Z/9 and F_101 take the
    # compiled loop, Z and n = 8 the generic one.
    tested = _count_tested(monkeypatch)
    rng = random.Random(331)
    for ring, n, m, bound in ((PrimeField(101), 3, 12, 3), (ModRing(9), 4, 9, 4), (INTEGERS, 3, 10, 3),
                              (Z6, 8, 6, 2)):
        tested.clear()
        assert find_invertible_subsum([_singular(ring, n, rng) for _ in range(m)], bound) is None
        assert sum(tested) == m, (ring, n)
    for ring, n, m, bound in ((PrimeField(101), 4, 12, 3), (ModRing(9), 4, 9, 3), (INTEGERS, 3, 10, 2),
                              (Z6, 8, 9, 2)):
        tested.clear()
        assert find_invertible_subsum(_rank_one(ring, n, m, rng), bound) is None
        assert sum(tested) == sum(math.comb(m, k) for k in range(1, bound + 1)), (ring, n)
    for ring, n, m in ((RATIONALS, 3, 9), (PrimeField(101), 3, 12), (ModRing(9), 2, 6), (PrimeField(5), 8, 9)):
        # Member i puts 1 at diagonal slot i % n alone: the first witness is
        # the first n members, after every sum of fewer members.
        fam = [SquareMatrix.diagonal(ring, [1 if j == i % n else 0 for j in range(n)]) for i in range(m)]
        tested.clear()
        assert find_invertible_subsum(fam, n) == SubsetMask((1 << n) - 1, m)
        assert sum(tested) == sum(math.comb(m, k) for k in range(1, n)) + 1, (ring, n)


def test_search_ends_at_a_zero_row_after_the_singles(monkeypatch):
    # 64 6x6 members over Z whose last row is zero: the floor is 0, so
    # bound 6 ends after the 64 singles instead of walking 83,278,000 sums.
    batch_unit_test = search.batch_unit_test

    def singles_only(lift, n):
        first_unit = batch_unit_test(lift, n)

        def test(partial, values):
            assert partial is None, "a batch past the singles"
            return first_unit(partial, values)

        return test

    monkeypatch.setattr(search, "batch_unit_test", singles_only)
    rng = random.Random(349)
    fam = [SquareMatrix(INTEGERS, [[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)] + [[0] * 6])
           for _ in range(64)]
    assert find_invertible_subsum(fam, 6) is None


def test_search_bound_validation():
    fam = eii_family(RATIONALS, 2)
    with pytest.raises(InvalidParameters):
        find_invertible_subsum(fam, bound=0)
    with pytest.raises(InvalidParameters):
        find_invertible_subsum(fam, bound=3)


def test_field_guarantee_seeded():
    rng = random.Random(313)
    for p in (2, 5, 101):
        ring = PrimeField(p)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(n + 1, 8)
            fam = None
            while fam is None:
                cand = [random_matrix(ring, n, rng) for _ in range(m)]
                if is_invertible(subset_sum(cand, SubsetMask.full(m))):
                    fam = cand
            witness = find_invertible_subsum(fam, bound=n)
            assert witness is not None
            assert is_invertible(subset_sum(fam, witness))


# -- the non-local counterexample ----------------------------------------------

def test_local_counterexample_z6():
    fam = local_counterexample_matrices(6, 3, 4, 2)
    assert len(fam) == 3
    rows = [int_rows(a) for a in fam]
    dets = set()
    for bits in range(1, 1 << 3):
        ids = [i for i in range(3) if bits >> i & 1]
        dets.add(ref_det(ref_subset_sum(rows, ids)) % 6)
    assert dets == {0, 3, 4, 1}  # 1 is the full family only
    proper = set()
    for bits in range(1, (1 << 3) - 1):
        ids = [i for i in range(3) if bits >> i & 1]
        proper.add(ref_det(ref_subset_sum(rows, ids)) % 6)
    assert proper == {0, 3, 4}
    assert all(math.gcd(d, 6) > 1 for d in proper)
    assert find_invertible_subsum(fam, bound=2) is None
    assert subset_sum(fam, SubsetMask.full(3)) == SquareMatrix.identity(Z6, 2)


def test_local_counterexample_z10():
    fam = local_counterexample_matrices(10, 5, 6, 2)
    rows = [int_rows(a) for a in fam]
    proper = set()
    for bits in range(1, (1 << 3) - 1):
        ids = [i for i in range(3) if bits >> i & 1]
        proper.add(ref_det(ref_subset_sum(rows, ids)) % 10)
    assert proper == {0, 5, 6}
    assert find_invertible_subsum(fam, bound=2) is None


def test_local_counterexample_rejects_units():
    with pytest.raises(InvalidParameters):
        local_counterexample_matrices(6, 2, 5, 2)  # 5 is a unit mod 6
    with pytest.raises(InvalidParameters):
        local_counterexample_matrices(6, 3, 3, 2)  # 3 + 3 != 1 mod 6
    with pytest.raises(InvalidParameters):
        local_counterexample_matrices(4, 2, 3, 2)  # 3 is a unit mod 4


def test_local_counterexample_refuses_a_family_past_the_limit_before_building_it(monkeypatch):
    # n + 1 members must fit MAX_FAMILY = 64.  With no matrix class to
    # build with, n = 64 still gets its typed refusal, so nothing was built.
    assert len(local_counterexample_matrices(6, 3, 4, 63)) == 64
    monkeypatch.setattr(search, "SquareMatrix", None)
    with pytest.raises(TooManyMatrices, match="family of 65 exceeds the 64-element limit"):
        local_counterexample_matrices(6, 3, 4, 64)


def test_local_counterexample_defeats_search_for_all_n():
    for n in (1, 2, 3):
        fam = local_counterexample_matrices(6, 3, 4, n)
        assert find_invertible_subsum(fam, bound=n) is None
        assert subset_sum(fam, SubsetMask.full(n + 1)) == SquareMatrix.identity(Z6, n)


# -- ideal chains ----------------------------------------------------------------

def test_ideal_chain_strict_ascent_witness():
    fam = eii_family(INTEGERS, 2)
    chain = ideal_chain(fam)
    assert chain.modulus == 0
    assert chain.generators == (0, 0, 1)


def test_ideal_chain_early_unit():
    fam = eii_family(INTEGERS, 2) + [SquareMatrix.identity(INTEGERS, 2)]
    assert ideal_chain(fam).generators == (0, 1, 1, 1)


def test_ideal_chain_stabilizes_and_divides():
    rng = random.Random(331)
    for _ in range(40):
        fam = [random_matrix(INTEGERS, 3, rng) for _ in range(4)]
        chain = ideal_chain(fam)
        g = chain.generators
        assert g[3] == g[4]
        rows = [int_rows(a) for a in fam]
        full = ref_det(ref_subset_sum(rows, range(4)))
        if g[3] == 0:
            assert full == 0
        else:
            assert full % g[3] == 0
        # gcd of dets of |S| <= j computed independently
        acc = 0
        expect = [0]
        for card in range(1, 5):
            for bits in range(1, 1 << 4):
                if bin(bits).count("1") == card:
                    ids = [i for i in range(4) if bits >> i & 1]
                    acc = math.gcd(acc, ref_det(ref_subset_sum(rows, ids)))
            expect.append(acc)
        assert list(g) == expect


def test_ideal_chain_mod_ring_generators_divide_modulus():
    rng = random.Random(337)
    ring = ModRing(12)
    for _ in range(20):
        fam = [random_matrix(ring, 2, rng) for _ in range(4)]
        chain = ideal_chain(fam)
        assert chain.modulus == 12
        assert chain.generators[0] == 0
        for g in chain.generators[1:]:
            assert 1 <= g <= 12 and 12 % g == 0
        g = chain.generators
        assert all(g[j] == g[2] for j in range(2, 5))


def test_ideal_chain_ring_and_size_validation():
    with pytest.raises(UnsupportedRing):
        ideal_chain([SquareMatrix.identity(RATIONALS, 2)])
    with pytest.raises(TooManyMatrices):
        ideal_chain([SquareMatrix.identity(INTEGERS, 1)] * 21)


def test_ideal_chain_refuses_prime_fields():
    # F_p is a ModRing, but its chain is not Z/N's.
    with pytest.raises(UnsupportedRing):
        ideal_chain([SquareMatrix.identity(PrimeField(5), 2)])
    assert ideal_chain([SquareMatrix.identity(ModRing(5), 2)]).generators == (0, 1)


def test_semilocal_instances_refuse_residue_rings():
    with pytest.raises(UnsupportedRing):
        SemilocalInstance.from_raw(ProductRing([PrimeField(2), ModRing(7)]), [(1, 1)])


def _chain_walk(fam, modulus):
    # The masks that the chain walks: the subsets of at most n members in
    # search order, up to the first after which the gcd is 1 or, once
    # level 1 has ended above 1, the floor of both stacks.
    rows = [int_rows(a) for a in fam]
    m, top = len(fam), min(len(rows[0]), len(fam))
    masks = [b for k in range(1, top + 1) for b in range(1, 1 << m) if b.bit_count() == k]
    floor = math.gcd(ref_minor_floor(rows, modulus), modulus)
    acc, least = 0, 1
    for i, bits in enumerate(masks):
        if i == m:
            least = floor
        acc = math.gcd(acc, ref_det(ref_subset_sum(rows, [j for j in range(m) if bits >> j & 1])))
        if math.gcd(acc, modulus) == least:
            return masks[:i + 1]
    return masks


def _even_rank_one(count):
    # (1, 2x)^T (1, 2y): every 2x2 minor of either stack is even, so the
    # floor is 2, while every pair sum's determinant, a product of two,
    # is a multiple of 4.  The chain never meets its floor.
    return [SquareMatrix(INTEGERS, [[1, 2 * y], [2 * x, 4 * x * y]]) for x, y in zip(range(count), range(3, 3 + count))]


def test_ideal_chain_walks_only_subsets_of_at_most_n(monkeypatch):
    # g_j = g_n above n, so the walk stops at n members at the latest: all
    # 299 of 4,095 subsets at m = 12, n = 3 in the worst case.  It stops
    # sooner at the unit ideal, or at the floor once level 1 has ended
    # above 1; each of the three ends is met here.
    walked = []
    walk = search.search_order_sums

    def recording_walk(members, add, bound):
        for bits, value in walk(members, add, bound):
            walked.append(bits)
            yield bits, value

    monkeypatch.setattr(search, "search_order_sums", recording_walk)
    rng = random.Random(347)
    families = [[random_matrix(ring, n, rng) for _ in range(m)]
                for ring, n, m in ((INTEGERS, 3, 12), (ModRing(12), 2, 9), (INTEGERS, 4, 3), (ModRing(36), 1, 5))]
    families += [_rank_one(INTEGERS, 3, 12, rng), _even_rank_one(9), [_singular(ModRing(12), 3, rng) for _ in range(6)]]
    ends = set()
    for fam in families:
        walked.clear()
        ring, n, m = fam[0].ring, fam[0].n, len(fam)
        modulus = ring.n if isinstance(ring, ModRing) else 0
        chain = ideal_chain(fam)
        top = min(n, m)
        assert len(chain.generators) == m + 1
        assert chain.generators[top:] == (chain.generators[top],) * (m - top + 1)
        assert walked == _chain_walk(fam, modulus), (ring, n, m)
        full = sum(math.comb(m, k) for k in range(1, top + 1))
        ends.add("full" if len(walked) == full else "unit" if chain.generators[-1] == 1 else "floor")
    assert ends == {"unit", "floor", "full"}


def test_ideal_chain_truncation_suite():
    # Z, Z/12, Z/36 and Z/2^64 at n <= 4, m <= 10, against the full 2^m walk.
    result = run_suite("ideal-chain-truncation", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure


# -- semilocal instances -----------------------------------------------------------

def test_semilocal_search_basic():
    ring = ProductRing([F5, F5])
    inst = SemilocalInstance.from_raw(ring, [(1, 0), (0, 1), (1, 1)])
    assert semilocal_find_unit_subsum(inst, 2) == SubsetMask.from_indices(3, [2])


# Mixed and equal characteristics: F2xF3xF5 and F2xF3xF7 walk as Z/30 and
# Z/42, F5xF7 as Z/35; F2xF2xF3 and F3xF3 are not coprime and walk in the ring.
ORACLE_FIELDS = ((2, 3, 5), (2, 3, 7), (5, 7), (2, 2, 3), (3, 3))


def test_semilocal_search_matches_brute_force():
    rng = random.Random(359)
    inst_a, inst_b = semilocal_counterexample_instances()
    cases = [(inst_a.raw_elements(), (2, 3, 5)), (inst_b.raw_elements(), (2, 3, 5, 7))]
    for primes in ORACLE_FIELDS:
        for m in range(1, 7):
            for _ in range(6):
                cases.append(([tuple(rng.randrange(p) for p in primes) for _ in range(m)], primes))
    for raw, primes in cases:
        inst = SemilocalInstance.from_raw(ProductRing([PrimeField(p) for p in primes]), raw)
        for bound in range(1, len(raw) + 1):
            witness = semilocal_find_unit_subsum(inst, bound)
            assert (witness.bits if witness else None) == ref_first_unit_subsum(primes, raw, bound)


def test_unit_subsum_table_suite():
    # The table against the forced batch walk, with planted, late and no witnesses.
    result = run_suite("unit-subsum-table", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure


@pytest.mark.parametrize("modulus, table", [(6, True), (2**14, True), (2**14 + 1, False), (2**512 - 1, False)])
def test_unit_table_takes_moduli_up_to_its_cap(monkeypatch, modulus, table):
    # Past UNIT_TABLE_MAX_MODULUS a 1x1 residue search walks: no M-bit table.
    engines = []
    for name in ("first_residue_subsum", "_batch_search"):
        engine = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *args, name=name, engine=engine: engines.append(name) or engine(*args))
    ring = ModRing(modulus)
    family = [SquareMatrix(ring, [[v]]) for v in (0, modulus - 2, 3)]
    assert find_invertible_subsum(family, 2) is not None
    assert engines == ["first_residue_subsum" if table else "_batch_search"]


def test_semilocal_search_on_a_shared_zero_takes_the_table(monkeypatch):
    # 64 elements of F2xF3xF5 with coordinate 0 zero in all of them: no
    # sum is a unit.  The walk would test 83,278,000 sums at bound 6.
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(search, "_batch_search", no_walk)
    rng = random.Random(64)
    ring = ProductRing([F2, F3, F5])
    inst = SemilocalInstance.from_raw(ring, [(0, rng.randrange(3), rng.randrange(5)) for _ in range(64)])
    for bound in (4, 5, 6):
        assert semilocal_find_unit_subsum(inst, bound) is None


def test_builtin_counterexample_instances():
    inst_a, inst_b = semilocal_counterexample_instances()

    assert inst_a.raw_elements() == ((0, 1, 1), (1, 2, 0), (1, 2, 0), (1, 2, 0))
    ring = inst_a.ring
    total = ring.zero
    for el in inst_a.elements:
        total = ring.add(total, el.value)
    assert total == ring.one

    # Exhaustive: all 14 proper nonempty subsets are non-units.
    raw = inst_a.raw_elements()
    for bits in range(1, (1 << 4) - 1):
        ids = [i for i in range(4) if bits >> i & 1]
        s = ring.zero
        for i in ids:
            s = ring.add(s, raw[i])
        assert not ring.is_unit(s), (ids, s)
    assert semilocal_find_unit_subsum(inst_a, 3) is None
    assert semilocal_find_unit_subsum(inst_a, 4) == SubsetMask.full(4)

    # Mentally checkable route: each proper subsum of the first three
    # elements has both a zero and a one coordinate.
    for bits in range(1, 1 << 3):
        ids = [i for i in range(3) if bits >> i & 1]
        s = ring.zero
        for i in ids:
            s = ring.add(s, raw[i])
        assert 0 in s and 1 in s

    assert len(inst_b.elements) == 5
    assert len(set(inst_b.raw_elements())) == 5  # pairwise distinct
    ring_b = inst_b.ring
    raw_b = inst_b.raw_elements()
    for bits in range(1, (1 << 5) - 1):
        ids = [i for i in range(5) if bits >> i & 1]
        s = ring_b.zero
        for i in ids:
            s = ring_b.add(s, raw_b[i])
        assert not ring_b.is_unit(s)
    total_b = ring_b.zero
    for v in raw_b:
        total_b = ring_b.add(total_b, v)
    assert ring_b.is_unit(total_b)


def test_instance_a_subsum_example():
    inst_a, _ = semilocal_counterexample_instances()
    ring = inst_a.ring
    s = ring.add(inst_a.elements[0].value, inst_a.elements[1].value)
    assert s == (1, 0, 1)
    assert not ring.is_unit(s)


def test_semilocal_guarantee_equal_characteristic():
    rng = random.Random(347)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(40):
            n = rng.randint(1, 4)
            ring = ProductRing([field] * n)
            m = rng.randint(n + 1, 8)
            elems = None
            while elems is None:
                cand = [ring.random(rng) for _ in range(m)]
                total = ring.zero
                for v in cand:
                    total = ring.add(total, v)
                if ring.is_unit(total):
                    elems = cand
            inst = SemilocalInstance.from_raw(ring, elems)
            assert semilocal_find_unit_subsum(inst, bound=n) is not None


# -- diagonal embedding ---------------------------------------------------------

def test_embed_examples():
    ring = ProductRing([F3, F3])
    inst = SemilocalInstance.from_raw(ring, [(1, 2), (1, 0)])
    mats = embed_product_to_matrices(inst)
    assert det(mats[0]).value == 2 and is_invertible(mats[0])
    assert det(mats[1]).value == 0 and not is_invertible(mats[1])


def test_embed_rejects_mixed_fields():
    inst_a, _ = semilocal_counterexample_instances()
    with pytest.raises(MixedComponentFields):
        embed_product_to_matrices(inst_a)


def test_embed_search_round_trip():
    rng = random.Random(353)
    for _ in range(30):
        n = rng.randint(2, 4)
        ring = ProductRing([F3] * n)
        m = rng.randint(2, 6)
        inst = SemilocalInstance.from_raw(ring, [ring.random(rng) for _ in range(m)])
        mats = embed_product_to_matrices(inst)
        witness = find_invertible_subsum(mats, bound=m)
        unit_witness = semilocal_find_unit_subsum(inst, bound=m)
        assert witness == unit_witness
        if witness is not None:
            total = ring.zero
            for i in witness:
                total = ring.add(total, inst.elements[i].value)
            assert ring.is_unit(total)


# -- the exhaustive miner ---------------------------------------------------------

def test_miner_two_components_always_empty():
    for fields in ((F2, F3), (F2, F2)):
        for m in range(1, 6):
            assert mixed_char_counterexample_search(list(fields), m, 2) == []


def test_miner_small_mixed_case_finds_nothing_with_low_m():
    assert mixed_char_counterexample_search([F2, F3, F5], 2, 3) == []


def test_miner_caps():
    with pytest.raises(SearchSpaceTooLarge):
        mixed_char_counterexample_search([F2] * 5, 3, 2)
    with pytest.raises(SearchSpaceTooLarge):
        mixed_char_counterexample_search([PrimeField(11), F2], 3, 2)
    with pytest.raises(SearchSpaceTooLarge):
        mixed_char_counterexample_search([F2, F3], 6, 2)
    with pytest.raises(InvalidParameters):
        mixed_char_counterexample_search([F2, F3], 3, 0)


def test_miner_results_are_verified_counterexamples():
    found = mixed_char_counterexample_search([F2, F3], 3, 1)
    # bound 1 only excludes single elements; families may still exist
    for inst in found:
        ring = inst.ring
        total = ring.zero
        for el in inst.elements:
            total = ring.add(total, el.value)
        assert ring.is_unit(total)
        for el in inst.elements:
            assert not ring.is_unit(el.value)


def test_miner_matches_brute_force():
    # Every multiset of every element, in order, against the miner's list.
    # Bound 1 and bound m (and above, clamped to m) are the edges of the
    # pruning rule: at bound 1 no subset sum is kept and only the total is
    # tested; at bound m every prefix sum is kept and the total is among
    # the tested sums, so nothing is found.
    for primes in ORACLE_FIELDS:
        fields = [PrimeField(p) for p in primes]
        for m in range(1, 5):
            expected = ref_mixed_char_families(primes, m)
            assert expected[m] == []
            for bound in range(1, m + 2):
                found = mixed_char_counterexample_search(fields, m, bound)
                assert [inst.raw_elements() for inst in found] == expected[min(bound, m)], (primes, m, bound)


@pytest.mark.parametrize(
    "primes, m, bound, count",
    [
        ((2, 3, 5), 4, 3, 16),
        ((2, 3, 5), 4, 2, 312),
        ((2, 3, 5), 4, 1, 3200),
        ((2, 3, 5), 3, 2, 112),
        ((2, 2, 3), 4, 3, 4),
        ((2, 3, 7), 4, 3, 24),
        ((2, 5, 7), 4, 3, 48),
        ((2, 3, 5), 5, 2, 952),
    ],
)
def test_miner_family_counts(primes, m, bound, count):
    assert len(mixed_char_counterexample_search([PrimeField(p) for p in primes], m, bound)) == count


def test_miner_lifts_nothing(monkeypatch):
    # The miner sums coordinate codes as plain ints, with or without a
    # CRT lift (2,2,3 has none).
    calls = []
    lift_family = search.lift_family

    def counting_lift(ring, *args):
        calls.append(ring)
        return lift_family(ring, *args)

    monkeypatch.setattr(search, "lift_family", counting_lift)
    for primes, families in (((2, 3, 5), 16), ((2, 2, 3), 4)):
        assert len(mixed_char_counterexample_search([PrimeField(p) for p in primes], 4, 3)) == families
    assert calls == []


def test_miner_brute_force_suite():
    # Repeated primes, bound 1 and bound past m against every multiset.
    result = run_suite("miner-brute-force", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure
