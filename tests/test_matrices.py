"""Matrix construction, subset sums, and cross-validated determinants."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from detsum import (
    INTEGERS,
    RATIONALS,
    IntPolyRing,
    MaskOutOfRange,
    ModRing,
    PrimeField,
    ProductRing,
    RingMismatch,
    ShapeMismatch,
    SizeLimit,
    SparsePoly,
    SquareMatrix,
    SubsetMask,
    det,
    generic_matrix_family,
    is_invertible,
    random_matrix,
    subset_sum,
)
from detsum import matrices, rings
from detsum.matrices import (
    CLOSED_FORM_MAX_N,
    COMPILED_BAREISS_MAX_N,
    RATIONAL_LIFT_MAX_EXCESS_BITS,
    _bareiss_det,
    _det_bareiss,
    _det_berkowitz,
    _det_elimination_mod,
    _laplace_det,
    batch_unit_test,
    det_rows,
    lift_family,
    mat_mul,
)
from detsum.fuzz import _coprime_rational_row, _det_leibniz, _oracle_det, run_suite
from detsum.subsets import search_order_sums

from conftest import int_rows, ref_det

Z6 = ModRing(6)
F7 = PrimeField(7)
Z_BIG = ModRing(2**512 - 1)  # composite, 512 bits


def diag(ring, values):
    return SquareMatrix.diagonal(ring, values)


def test_construction_validation():
    with pytest.raises(ShapeMismatch):
        SquareMatrix(INTEGERS, [])
    with pytest.raises(ShapeMismatch):
        SquareMatrix(INTEGERS, [[1, 2], [3]])
    with pytest.raises(RingMismatch):
        SquareMatrix(INTEGERS, [[Z6.element(1)]])


def test_mat_add():
    i2 = SquareMatrix.identity(INTEGERS, 2)
    assert (i2 + i2) == diag(INTEGERS, [2, 2])
    a = SquareMatrix(INTEGERS, [[1, 2], [3, 4]])
    assert a + SquareMatrix.zero(INTEGERS, 2) == a
    f2 = PrimeField(2)
    assert diag(f2, [1, 0]) + diag(f2, [0, 1]) == SquareMatrix.identity(f2, 2)
    with pytest.raises(ShapeMismatch):
        i2 + SquareMatrix.identity(INTEGERS, 3)
    with pytest.raises(RingMismatch):
        i2 + SquareMatrix.identity(Z6, 2)


def test_subset_sum():
    fam = [diag(INTEGERS, [1, 0]), diag(INTEGERS, [0, 1]), SquareMatrix.identity(INTEGERS, 2)]
    assert subset_sum(fam, SubsetMask.from_indices(3, [0, 1])) == SquareMatrix.identity(INTEGERS, 2)
    assert subset_sum(fam, SubsetMask.empty(3)) == SquareMatrix.zero(INTEGERS, 2)
    n = 4
    eii = [diag(RATIONALS, [1 if j == i else 0 for j in range(n)]) for i in range(n)]
    assert subset_sum(eii, SubsetMask.full(n)) == SquareMatrix.identity(RATIONALS, n)
    with pytest.raises(MaskOutOfRange):
        subset_sum(fam, SubsetMask.from_indices(4, [3]))


def test_det_identity_matrices():
    for ring in (INTEGERS, RATIONALS, F7, Z6):
        for n in range(1, 7):
            assert det(SquareMatrix.identity(ring, n)).value == ring.one


def test_det_1x1_is_the_entry():
    assert det(SquareMatrix(Z6, [[5]])).value == 5


def test_det_generic_2x2():
    poly = det(generic_matrix_family(1, 2)[0]).value
    assert poly == SparsePoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})  # x0*x3 - x1*x2


def test_det_cross_check_z6_4x4():
    # 500 seeded matrices: det == leibniz == plain reference.
    rng = random.Random(101)
    for _ in range(500):
        mat = random_matrix(Z6, 4, rng)
        a = det(mat).value
        b = _det_leibniz(Z6, mat.rows)
        assert a == b == ref_det(int_rows(mat)) % 6


def test_det_cross_check_against_reference():
    rng = random.Random(103)
    for n in range(1, 7):
        for _ in range(100 if n <= 4 else 10):
            mz = random_matrix(INTEGERS, n, rng)
            assert det(mz).value == ref_det(int_rows(mz))
            mq = random_matrix(RATIONALS, n, rng)
            assert det(mq).value == ref_det([list(r) for r in mq.rows])
    for _ in range(100):
        mp = random_matrix(F7, 4, rng)
        assert det(mp).value == ref_det(int_rows(mp)) % 7


def test_det_algorithm_agreement():
    rng = random.Random(107)
    rings = (INTEGERS, RATIONALS, F7, Z6, ProductRing([PrimeField(2), PrimeField(3)]))
    for ring in rings:
        for n in range(1, 7):
            for _ in range(20):
                mat = random_matrix(ring, n, rng)
                assert det(mat).value == _det_leibniz(ring, mat.rows)


def test_closed_form_with_large_entries():
    # 64- to 521-bit entries through the compiled expansion at n <= 7,
    # against the permutation expansion reduced into each (component)
    # ring up to n = 4 and Berkowitz in the ring above.
    rng = random.Random(137)
    big, p521 = 3**323, 2**521 - 1  # a 512-bit prime power and a prime
    cases = [
        (INTEGERS, lambda: rng.randrange(-(2**63), 2**63)),
        (INTEGERS, lambda: rng.randrange(-(2**511), 2**511)),
        (RATIONALS, lambda: Fraction(rng.randrange(-(2**63), 2**63), rng.randrange(1, 2**63))),
        (ModRing(big), lambda: rng.randrange(big)),
        (PrimeField(p521), lambda: rng.randrange(p521)),
        (
            ProductRing([ModRing(big), PrimeField(p521)]),
            lambda: (rng.randrange(big), rng.randrange(p521)),
        ),
    ]

    def reference(ring, rows):
        if len(rows) > 4:
            return _det_berkowitz(ring, rows)
        if isinstance(ring, ProductRing):
            return tuple(
                reference(comp, [[e[c] for e in row] for row in rows])
                for c, comp in enumerate(ring.components)
            )
        return ring.normalize(ref_det(rows))

    for ring, draw in cases:
        for n in range(2, CLOSED_FORM_MAX_N + 1):
            for _ in range(10 if n <= 4 else 3):
                mat = SquareMatrix(ring, [[draw() for _ in range(n)] for _ in range(n)])
                assert det(mat).value == reference(ring, mat.rows), (ring, n)


@pytest.mark.parametrize("bits", [4, 67, 600])
def test_compiled_expansion_matches_bareiss(bits):
    # The generated determinant at every n it serves, on signed entries.
    rng = random.Random(173 + bits)
    for n in range(1, CLOSED_FORM_MAX_N + 1):
        for _ in range(8):
            rows = [[rng.randrange(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)]
            cells = [e for row in rows for e in row]
            assert _laplace_det(n)(cells) == _det_bareiss(cells), (n, rows)


@pytest.mark.parametrize("bits", [4, 67, 600])
def test_compiled_bareiss_matches_berkowitz(bits):
    # The generated elimination at every n it serves, on signed entries:
    # random matrices, singular ones (last row the sum of the first two),
    # and ones whose pivot k is zero, so that the block from a_kk on goes
    # to the loop, at k = 0, at a middle step and at k = n - 2.  Pivot k
    # is the leading (k+1) x (k+1) minor, made 0 by starting row k as
    # row 0 starts, while the smaller leading minors stay nonzero.
    rng = random.Random(179 + bits)

    def leading_minor(rows, size):
        return _det_berkowitz(INTEGERS, [row[:size] for row in rows[:size]])

    for n in range(CLOSED_FORM_MAX_N + 1, COMPILED_BAREISS_MAX_N + 1):
        for zero_pivot in (None, "singular", 0, n // 2, n - 2):
            rows = [[rng.randrange(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)]
            if zero_pivot == "singular":
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
            elif zero_pivot == 0:
                rows[0][0] = 0
            elif zero_pivot is not None:
                rows[zero_pivot][: zero_pivot + 1] = rows[0][: zero_pivot + 1]
            if isinstance(zero_pivot, int):
                assert leading_minor(rows, zero_pivot + 1) == 0
                assert all(leading_minor(rows, size) for size in range(1, zero_pivot + 1))
            value = _bareiss_det(n)([e for row in rows for e in row])
            assert value == _det_berkowitz(INTEGERS, rows), (n, zero_pivot, rows)
            assert (value == 0) == (zero_pivot == "singular"), (n, zero_pivot)


ROUTE_NAMES = (
    "_laplace_det",
    "_bareiss_det",
    "_det_berkowitz",
    "_det_bareiss",
    "_det_elimination_mod",
)
EXPANSION_SIZES = range(5, CLOSED_FORM_MAX_N + 1)
ABOVE_SIZES = range(CLOSED_FORM_MAX_N + 1, CLOSED_FORM_MAX_N + 3)
BAREISS_SIZES = range(CLOSED_FORM_MAX_N + 1, COMPILED_BAREISS_MAX_N + 1)
LOOP_SIZES = range(COMPILED_BAREISS_MAX_N + 1, COMPILED_BAREISS_MAX_N + 2)
# (ring, sizes, the routes det_rows and a lift of the ring take there).
# At n == 1 det_rows runs the expansion, which returns the entry.  Sizes
# 2..4 and 5..7 of the expansion are pinned apart, the second being the
# band it took over from Bareiss.  Over Z and Q, Bareiss runs compiled
# above the expansion and as a loop past its cap.  Z[x] runs the
# expansion on its own entries up to its cutoff, Berkowitz above.  The
# Z/(2^512-1) rows start one size off the Z/6 ones to keep the ids apart.
ROUTE_PINS = [
    (INTEGERS, range(2, 5), {"_laplace_det"}),
    (INTEGERS, EXPANSION_SIZES, {"_laplace_det"}),
    (INTEGERS, BAREISS_SIZES, {"_bareiss_det"}),
    (INTEGERS, LOOP_SIZES, {"_det_bareiss"}),
    (RATIONALS, range(2, 5), {"_laplace_det"}),
    (RATIONALS, EXPANSION_SIZES, {"_laplace_det"}),
    (RATIONALS, BAREISS_SIZES, {"_bareiss_det"}),
    (RATIONALS, LOOP_SIZES, {"_det_bareiss"}),
    (Z6, range(2, 5), {"_laplace_det"}),
    (Z6, EXPANSION_SIZES, {"_laplace_det"}),
    (Z6, ABOVE_SIZES, {"_det_elimination_mod"}),
    (Z_BIG, EXPANSION_SIZES[1:], {"_laplace_det"}),
    (Z_BIG, ABOVE_SIZES[1:], {"_det_elimination_mod"}),
    (F7, range(2, 5), {"_laplace_det"}),
    (F7, EXPANSION_SIZES, {"_laplace_det"}),
    (F7, ABOVE_SIZES, {"_det_elimination_mod"}),
    (ProductRing([Z6, F7]), range(2, 5), {"_laplace_det"}),
    (ProductRing([Z6, F7]), EXPANSION_SIZES, {"_laplace_det"}),
    (ProductRing([Z6, F7]), ABOVE_SIZES, {"_det_elimination_mod"}),
    (IntPolyRing(1), range(2, CLOSED_FORM_MAX_N + 1), {"_laplace_det"}),
    (IntPolyRing(1), ABOVE_SIZES[:1], {"_det_berkowitz"}),
]


# One ring of each Ring class in rings; a class missing here fails the test below.
ROUTE_RINGS = {
    rings.IntegerRing: INTEGERS,
    rings.RationalRing: RATIONALS,
    rings.ModRing: Z6,
    rings.PrimeField: F7,
    rings.ProductRing: ProductRing([Z6, RATIONALS, F7]),
    rings.IntPolyRing: IntPolyRing(2),
}


def test_every_ring_class_has_a_route():
    # det_route serves every Ring subclass on both sides of each cutoff:
    # 1 on the identity, and the independent oracle on a random matrix.
    classes = {c for c in vars(rings).values() if isinstance(c, type) and issubclass(c, rings.Ring)}
    assert classes - {rings.Ring} == set(ROUTE_RINGS)
    rng = random.Random(197)
    for ring, n in itertools.product(ROUTE_RINGS.values(), (1, 7, 8, 9)):
        route = matrices.det_route(ring, n)
        identity = SquareMatrix.identity(ring, n).rows
        assert route([e for row in identity for e in row]) == ring.one, (ring, n)
        rows = random_matrix(ring, n, rng).rows
        assert route([e for row in rows for e in row]) == _oracle_det(ring, rows), (ring, n)


@pytest.mark.parametrize(
    "ring, sizes, routes", ROUTE_PINS, ids=[f"{r.kind}-n{s[0]}" for r, s, _ in ROUTE_PINS]
)
def test_det_route_pins(monkeypatch, ring, sizes, routes):
    # The same route through det_rows and through a lift's det, whatever
    # the lift walks: Q on ints, the product by the CRT on Z/42, Z/(2^512-1)
    # on int arrays, Z[x] on arrays of its own entries.
    calls = []
    for name in ROUTE_NAMES:
        def spy(*args, _real=getattr(matrices, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(matrices, name, spy)
    rng = random.Random(139)
    for n in (1, *sizes):
        calls.clear()
        rows = random_matrix(ring, n, rng).rows
        matrices.det_rows(ring, rows)
        assert set(calls) == (routes if n > 1 else {"_laplace_det"}), (ring, n)
        if n > 1:
            calls.clear()
            lift = lift_family(ring, [rows], 1)
            assert lift.finish(lift.det(lift.members[0])) == _oracle_det(ring, rows), (ring, n)
            assert set(calls) == routes, ("lift", ring, n)


@pytest.mark.parametrize(
    "ring",
    [Z6, ModRing(10), Z_BIG, F7, PrimeField(2**521 - 1)],
    ids=["Z6", "Z10", "Z_2^512-1", "F7", "F_2^521-1"],
)
def test_det_rows_reduces_any_representatives(ring):
    # Shifting entries by random multiples of the modulus, negative ones
    # included, leaves the determinant's residue unchanged, on both sides
    # of the compiled expansion's cutoff.
    modulus = ring.n
    rng = random.Random(151)
    for n in (1, 2, 4, 5, CLOSED_FORM_MAX_N, CLOSED_FORM_MAX_N + 1, 12):
        for _ in range(3):
            rows = random_matrix(ring, n, rng).rows
            shifted = [[e + modulus * rng.randrange(-70, 70) for e in row] for row in rows]
            assert any(e < 0 for row in shifted for e in row) or n == 1
            value = det_rows(ring, shifted)
            assert value == det_rows(ring, rows) == _det_berkowitz(ring, rows), (ring, n)
            assert 0 <= value < modulus


@pytest.mark.parametrize(
    "modulus, non_unit",
    [
        # Z/12 non-units: a column such as (4, 6, 9) has no unit but gcd 1.
        (12, lambda rng: rng.choice((0, 2, 3, 4, 6, 8, 9, 10))),
        # Z/2^64 even entries: row operations keep a column even, so no
        # odd entry ever turns up in it to serve as a unit.
        (2**64, lambda rng: 2 * rng.randrange(2**63)),
    ],
    ids=["Z12", "Z_2^64"],
)
def test_elimination_clears_columns_without_a_unit(modulus, non_unit):
    # With no unit to pivot on, elimination clears the column by Euclid's
    # steps between rows, checked against the permutation expansion and,
    # past the expansion's cutoff, against Bareiss over Z and Berkowitz.
    rng = random.Random(167)
    ring = ModRing(modulus)
    for n in (2, 3, 4, 5, 6, CLOSED_FORM_MAX_N + 1, 12):
        for _ in range(4):
            rows = [[non_unit(rng) for _ in range(n)] for _ in range(n)]
            if modulus == 12 and n >= 3:
                for row, e in zip(rows, (4, 6, 9)):
                    row[0] = e
            if n <= 6:
                assert _det_elimination_mod([e for row in rows for e in row], modulus) == ref_det(rows) % modulus
            else:
                value = det_rows(ring, rows)
                assert value == det_rows(INTEGERS, rows) % modulus == _det_berkowitz(ring, rows)


def test_expansion_cutoff_over_int_poly():
    # The compiled expansion at its cutoff, with Berkowitz as the oracle;
    # Berkowitz one size above, where at 3 integer points in [-5, 5]^k the
    # determinant must evaluate to the Bareiss determinant of the entries
    # evaluated there.
    rng, points = random.Random(149), random.Random(150)
    for ring in (IntPolyRing(2), IntPolyRing(3)):
        mat = random_matrix(ring, CLOSED_FORM_MAX_N, rng)
        assert det(mat).value == _det_berkowitz(ring, mat.rows), ring
        mat = random_matrix(ring, CLOSED_FORM_MAX_N + 1, rng)
        value = det(mat).value
        for _ in range(3):
            point = [points.randint(-5, 5) for _ in range(ring.var_count)]
            rows = [[e.eval_raw(INTEGERS, point) for e in row] for row in mat.rows]
            assert value.eval_raw(INTEGERS, point) == det_rows(INTEGERS, rows), (ring, point)


def test_det_product_ring_componentwise():
    ring = ProductRing([PrimeField(2), PrimeField(3), PrimeField(5)])
    rng = random.Random(109)
    for _ in range(50):
        mat = random_matrix(ring, 3, rng)
        whole = det(mat).value
        for c, p in enumerate((2, 3, 5)):
            comp = [[entry[c] for entry in row] for row in mat.rows]
            assert whole[c] == ref_det(comp) % p


def test_det_multiplicative():
    rng = random.Random(113)
    for ring in (F7, Z6):
        for _ in range(100):
            n = rng.randint(1, 4)
            a, b = random_matrix(ring, n, rng), random_matrix(ring, n, rng)
            assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_scaling_homogeneity():
    rng = random.Random(127)
    for ring in (F7, Z6, INTEGERS):
        for _ in range(100):
            n = rng.randint(1, 4)
            a = random_matrix(ring, n, rng)
            c = ring.element(ring.random(rng))
            scaled_det = det(a.scaled(c))
            expected = det(a)
            for _ in range(n):
                expected = expected * c
            assert scaled_det == expected


def test_size_limits():
    # One cap, n <= 64, over every ring.
    for ring in (Z6, F7, INTEGERS):
        with pytest.raises(SizeLimit):
            det(SquareMatrix.identity(ring, 65))
    assert det(SquareMatrix.identity(Z6, 17)).value == 1
    assert det(SquareMatrix.identity(F7, 40)).value == 1


def test_minor_expansion_handles_mid_sizes():
    rng = random.Random(131)
    mat = random_matrix(Z6, 7, rng)
    viaint = ref_det(int_rows(mat)) % 6
    assert det(mat).value == viaint  # integer Bareiss on the residues runs here


def test_is_invertible_examples():
    n = 3
    partial = [diag(RATIONALS, [1 if j == i else 0 for j in range(n)]) for i in range(n - 1)]
    short_sum = subset_sum(partial, SubsetMask.full(n - 1))
    assert not is_invertible(short_sum)
    assert is_invertible(SquareMatrix.identity(Z6, 2))
    assert not is_invertible(diag(INTEGERS, [2, 1]))
    assert is_invertible(diag(INTEGERS, [-1, 1]))


def test_rational_entries_exact():
    a = SquareMatrix(RATIONALS, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
    assert det(a).value == Fraction(1, 10) - Fraction(1, 12)


def _units_agree(ring, lift, size):
    # lift.is_unit(d) answers for finish(d) on every walked sum.
    dets = [lift.det(value) for _, value in search_order_sums(lift.members, lift.add, size)]
    return all(lift.is_unit(d) == ring.is_unit(lift.finish(d)) for d in dets)


def test_lift_family_walk_rings():
    rng = random.Random(157)
    # (ring, walk ring, determinant ring); None stands for the ring itself.
    # The identity joins each family, so that some walked sum is a unit.
    for ring, walk, det_ring in (
        (INTEGERS, INTEGERS, None),
        (Z6, INTEGERS, None),
        (F7, INTEGERS, None),
        (RATIONALS, INTEGERS, INTEGERS),
        (ProductRing([Z6, F7]), INTEGERS, ModRing(42)),  # coprime: Z/42 by the CRT
        (ProductRing([Z6, PrimeField(3)]), None, None),  # not coprime
        (ProductRing([PrimeField(2), PrimeField(2)]), None, None),
        (ProductRing([INTEGERS, F7]), None, None),
        (ProductRing([ModRing(2**512 - 1), ModRing(2**512 + 1)]), None, None),  # past the cap
    ):
        fam = [random_matrix(ring, 3, rng).rows for _ in range(4)]
        lift = lift_family(ring, fam + [SquareMatrix.identity(ring, 3).rows], 4)
        assert lift.ring == (walk or ring) and lift.det_ring == (det_ring or ring)
        assert _units_agree(ring, lift, 4), ring
    # Z[x...] walks arrays of its own entries and takes determinants in
    # the ring itself, whichever variables occur (x_7 and x_400 of 1000).
    ring = IntPolyRing(1000)
    x, y = ring.variable(7), ring.variable(400)
    entries = [x, y * y, x ** 3 - 2 * y, ring.from_int(5), ring.zero, -x * y]
    fam = [[[rng.choice(entries) for _ in range(3)] for _ in range(3)] for _ in range(4)]
    fam[0][0][0] = x ** 3
    lift = lift_family(ring, fam + [SquareMatrix.identity(ring, 3).rows], 4)
    assert lift.ring == lift.det_ring == ring and lift.width is None
    assert _units_agree(ring, lift, 4)
    # One 64-bit prime denominator per member row: over m members a row's
    # shared lcm has 63(m-1) to 64(m-1) bits more than a member's own, so
    # n * excess over n = 4 rows is 4,032..4,096 at m = 5, inside the gate,
    # and 5,040..5,120 at m = 6, past it: that walk adds fractions.
    fam = [[_coprime_rational_row(rng, 4) for _ in range(4)] for _ in range(6)]
    assert RATIONAL_LIFT_MAX_EXCESS_BITS == 4096
    for members, walk in ((fam[:5], INTEGERS), (fam, RATIONALS)):
        lift = lift_family(RATIONALS, members, len(members))
        assert lift.ring == walk and _units_agree(RATIONALS, lift, len(members))


def test_lift_family_slot_widths():
    # Which families pack into one int per member, and at what slot width;
    # the rest walk as arrays (width None).
    rng = random.Random(173)
    big = [[[rng.choice((-1, 1)) * ((1 << 63) + rng.getrandbits(63)) for _ in range(3)]
            for _ in range(3)] for _ in range(4)]
    for ring, n, size, members, width in (
        (ModRing(9), 4, 4, None, 8),  # 4 * 8 < 2^8
        (PrimeField(101), 3, 3, None, 16),  # 3 * 100 >= 2^8
        (ModRing(2**512 - 1), 3, 4, None, None),
        (INTEGERS, 3, 4, big, None),  # entries of ~2^64
        (IntPolyRing(2), 3, 4, None, None),
        (ProductRing([Z6, PrimeField(3)]), 3, 4, None, None),  # not coprime
    ):
        if members is None:
            members = [random_matrix(ring, n, rng).rows for _ in range(4)]
        lift = lift_family(ring, members, size)
        assert lift.width == width, ring
        assert all(isinstance(v, int) for v in lift.members) == (width is not None)


def test_packed_members_are_signed_kronecker_sums():
    # Over Z a packed member is sum_k cell_k * 2^(k*w) with signed cells, so
    # packed values add and subtract as the arrays do, whatever their sign
    # as ints, and a walked value alone fixes its cells and determinant.
    rng = random.Random(181)
    n, size, w, edge = 3, 4, 8, 31  # 4 * 31 < 2^7 <= 4 * 32: the signed 8-bit edge
    top = [[edge if (i + j) % 2 else -edge for j in range(n)] for i in range(n)]
    members = [top, [[-e for e in row] for row in top]]
    members += [[[rng.randint(-edge, edge) for _ in range(n)] for _ in range(n)] for _ in range(2)]
    lift = lift_family(INTEGERS, members, size)
    assert lift.width == w
    flat = [[e for row in a for e in row] for a in members]
    for value, cells in zip(lift.members, flat):
        assert value == sum(c << (k * w) for k, c in enumerate(cells))

    def decodes_to(value, cells):
        rows = [cells[i:i + n] for i in range(0, n * n, n)]
        return list(lift.cells(value)) == cells and lift.det(value) == det_rows(INTEGERS, rows)

    assert lift.members[0] < 0  # its last cell is -edge
    for (x, fx), (y, fy) in itertools.product(zip(lift.members, flat), repeat=2):
        assert decodes_to(lift.add(x, y), [a + b for a, b in zip(fx, fy)])
        assert decodes_to(lift.sub(x, y), [a - b for a, b in zip(fx, fy)])
    for x, fx in zip(lift.members, flat):  # four-fold sums reach the edge of the slot
        assert decodes_to(functools.reduce(lift.add, [x] * size), [size * a for a in fx])


def test_lifted_determinants_in_the_compiled_bareiss_band():
    # Above the expansion, up to the cap, a lifted Z or Q family's
    # determinants run the compiled Bareiss, on packed cells (8- to 64-bit
    # slots) or on int arrays too wide for a slot; Berkowitz on the subset
    # sum is the oracle.
    rng = random.Random(191)
    for n in range(CLOSED_FORM_MAX_N + 1, COMPILED_BAREISS_MAX_N + 1):
        for bits, width in ((3, 8), (12, 16), (60, 64), (70, None)):
            fam = [
                SquareMatrix(INTEGERS, [[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)])
                for _ in range(2)
            ]
            if bits == 3:  # a zero pivot at step 0 of every subset sum
                fam = [SquareMatrix(INTEGERS, [[0, *a.rows[0][1:]], *a.rows[1:]]) for a in fam]
            for ring, members in (
                (INTEGERS, fam),
                (RATIONALS, [SquareMatrix(RATIONALS, [[Fraction(e, 3) for e in row] for row in a.rows]) for a in fam]),
            ):
                lift = lift_family(ring, [a.rows for a in members], 2)
                assert lift.width == width, (n, bits)
                for mask, value in search_order_sums(lift.members, lift.add, 2):
                    rows = subset_sum(members, SubsetMask(mask, 2)).rows
                    assert lift.finish(lift.det(value)) == _det_berkowitz(ring, rows), (ring, n, bits)


def test_coprime_products_lift_to_one_residue_ring():
    # The CRT lift is an isomorphism onto Z/M: each lifted entry and each
    # lifted determinant maps back to the value in the product.
    rng = random.Random(167)
    assert matrices.PRODUCT_LIFT_MAX_BITS == 256
    for ring, modulus in (
        (ProductRing([PrimeField(2), PrimeField(3), PrimeField(5)]), 30),
        (ProductRing([ModRing(4), ModRing(9)]), 36),
        (ProductRing([ModRing(2**128 - 1), ModRing(2**128 + 1)]), 2**256 - 1),  # 256 bits
        (ProductRing([F7]), 7),
    ):
        for n in (1, 2, 5, 8):
            fam = [random_matrix(ring, n, rng) for _ in range(2)]
            lift = lift_family(ring, [a.rows for a in fam], 2)
            assert lift.ring == INTEGERS and lift.det_ring == ModRing(modulus)
            for a, value in zip(fam, lift.members):
                cells = lift.cells(value)
                assert [[lift.finish(e) for e in cells[i * n:(i + 1) * n]] for i in range(n)] == [
                    list(r) for r in a.rows
                ]
                assert lift.finish(lift.det(value)) == det(a).value
    # One bit past the cap, the product walks in the ring.
    ring = ProductRing([ModRing(2**128 + 1), ModRing(2**128 + 3)])
    assert lift_family(ring, [random_matrix(ring, 2, rng).rows], 1).ring == ring


def test_lifted_rational_determinants():
    # Scaled rows, then the integer determinant over the shared scale.
    rng = random.Random(163)
    for n in range(1, 7):
        fam = [random_matrix(RATIONALS, n, rng) for _ in range(3)]
        b = random_matrix(RATIONALS, n, rng)
        lift = lift_family(RATIONALS, [a.rows for a in fam + [b]], 4)
        assert lift.ring == INTEGERS
        for a, value in zip(fam + [b], lift.members):
            assert all(isinstance(e, int) for e in lift.cells(value))
            assert lift.finish(lift.det(value)) == det(a).value


def test_lifted_slots_suite():
    # Packed walks at the edge of every slot width, and one step past it.
    result = run_suite("lifted-slots", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure


def test_poly_lift_agreement_suite():
    # Z[x...] walks and determinants at n = 1..7, in 2000 variables, and
    # with high-degree diagonals, against SparsePoly sums and Berkowitz.
    result = run_suite("poly-lift-agreement", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure


def test_rational_oracle_matches_berkowitz_over_q():
    # The lifted-walks oracle scales each sum's own rows to integers first.
    rng = random.Random(179)
    for n in range(1, 7):
        coprime = [_coprime_rational_row(rng, n) for _ in range(n)]
        for rows in (random_matrix(RATIONALS, n, rng).rows, coprime):
            assert _oracle_det(RATIONALS, rows) == _det_berkowitz(RATIONALS, rows)


def test_product_oracle_splits_components():
    # Per component, each with its own oracle; Berkowitz through the
    # product's methods is the reference.
    rng = random.Random(191)
    for ring in (ProductRing([PrimeField(2), PrimeField(3), PrimeField(5)]),
                 ProductRing([Z6, PrimeField(3)]), ProductRing([RATIONALS, Z6])):
        for n in range(1, 6):
            rows = random_matrix(ring, n, rng).rows
            assert _oracle_det(ring, rows) == _det_berkowitz(ring, rows)


def test_lifted_walks_suite():
    # Z, Q on both sides of its gate, Z/N and F_p with moduli of up to 521 bits, n <= 6.
    result = run_suite("lifted-walks", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure


# (ring, n, compiled): which batch test the search builds for a lift of
# two members of random_matrix(ring, n).  Residue lifts of packed or 1x1 values
# (Z/N, F_p and coprime products) run the compiled loop up to
# CLOSED_FORM_MAX_N; Z, Q, n >= 8 and array lifts (entries past 64-bit
# slots, non-coprime products, Z[x]) the generic one.
F2xF3 = ProductRing([PrimeField(2), PrimeField(3)])
FIRST_UNIT_PINS = [
    *((ring, n, True) for ring in (Z6, F7, PrimeField(101), F2xF3) for n in (1, 2, 3, CLOSED_FORM_MAX_N)),
    *((ring, CLOSED_FORM_MAX_N + 1, False) for ring in (Z6, F7, F2xF3)),
    *((ring, n, False) for ring in (INTEGERS, RATIONALS) for n in (1, 3, CLOSED_FORM_MAX_N, 8)),
    (Z_BIG, 1, True),  # a 1x1 lift is a plain int at any modulus
    *((ring, 3, False) for ring in (Z_BIG, ProductRing([Z6, PrimeField(3)]), IntPolyRing(2))),
]


@pytest.mark.parametrize(
    "ring, n, compiled", FIRST_UNIT_PINS, ids=[f"{r.kind}{i}-n{n}" for i, (r, n, _) in enumerate(FIRST_UNIT_PINS)]
)
def test_first_unit_pins(ring, n, compiled):
    rng = random.Random(211)
    members = [random_matrix(ring, n, rng).rows, SquareMatrix.identity(ring, n).rows]
    lift = lift_family(ring, members, 2)
    first_unit = batch_unit_test(lift, n)
    assert (first_unit.__name__ == "laplace_first_unit") == compiled
    # Whatever the loop, it answers as the lift's own det and is_unit do.
    values = [*lift.members, lift.add(*lift.members)]
    for partial in (None, lift.members[0]):
        sums = values if partial is None else [lift.add(partial, v) for v in values]
        want = next((j for j, v in enumerate(sums) if lift.is_unit(lift.det(v))), -1)
        assert first_unit(partial, values) == want


def test_first_unit_agreement_suite():
    # Every lift kind at n = 1..8, both loops, and the flattened batches.
    result = run_suite("first-unit-agreement", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure


# -- the floor of the searches and chains ----------------------------------------

def _floor(ring, members):
    fam = [SquareMatrix(ring, rows) for rows in members]
    return matrices.minor_floor(lift_family(ring, [a.rows for a in fam], len(fam)), fam[0].n)


@pytest.mark.parametrize(
    "ring, members, floor",
    [
        # [2 3] over Z/6: no unit entry, and Euclid's steps reach gcd 1.
        (Z6, [[[2]], [[3]]], 1),
        (ModRing(12), [[[4]], [[6]]], 2),
        # Row 0 in (4) puts I_2(H) in (4), column 0 in (9) puts I_2(V) in
        # (9): each stack alone is proper, their intersection is 0 mod 36.
        (ModRing(36), [[[0, 4], [9, 1]], [[0, 8], [18, 5]], [[0, 4], [9, 7]]], 0),
        (INTEGERS, [[[2, 0], [0, 2]], [[0, 2], [2, 0]]], 4),
        (INTEGERS, [[[1, 2], [0, 0]], [[3, 4], [0, 0]]], 0),
        (INTEGERS, [[[1, 2], [3, 4]]], 2),
        (RATIONALS, [[[Fraction(1, 2), 0], [0, Fraction(1, 3)]]], 1),
        (ProductRing([ModRing(4), PrimeField(3)]), [[[(2, 1)]], [[(0, 2)]]], 2),
    ],
)
def test_minor_floor_pins(ring, members, floor):
    assert _floor(ring, members) == floor


def test_minor_floor_is_not_taken_past_the_lifts():
    # Z[x], a product with a common factor, and Q walked as fractions
    # keep their walk.
    x = IntPolyRing(1).variable(0)
    assert _floor(IntPolyRing(1), [[[x, 0], [0, x]]]) is None
    assert _floor(ProductRing([Z6, ModRing(4)]), [[[(1, 1)]]]) is None
    twos, threes = ([[Fraction(1, b**3000), 1], [1, 1]] for b in (2, 3))
    assert lift_family(RATIONALS, [twos, threes], 2).det_ring == RATIONALS
    assert _floor(RATIONALS, [twos, threes]) is None


def test_minor_ideal_floor_suite():
    # The floor against every maximal minor of both stacks, over eight rings,
    # with planted relations, entries in (d) and rank-one families.
    result = run_suite("minor-ideal-floor", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure
