"""Ring arithmetic, units, inverses, and sparse polynomial behaviour."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from detsum import (
    INTEGERS,
    RATIONALS,
    ArityMismatch,
    IntPolyRing,
    ModRing,
    PrimeField,
    ProductRing,
    RingMismatch,
    SparsePoly,
    SquareMatrix,
    poly_eval,
    random_poly,
)
from detsum import jsonio, matrices
from detsum.fuzz import run_suite
from detsum.rings import PRIME_FIELD_MAX_BITS, is_probable_prime

Z6 = ModRing(6)
F7 = PrimeField(7)
F235 = ProductRing([PrimeField(2), PrimeField(3), PrimeField(5)])


def test_descriptor_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        ModRing(1)
    with pytest.raises(ValueError):
        ProductRing([])
    with pytest.raises(ValueError):
        IntPolyRing(-1)
    # 2^61 - 1 is a Mersenne prime; the primality check must accept it.
    PrimeField((1 << 61) - 1)


# The least composites that pass Miller-Rabin to the first 12 and 13 prime
# bases; PSI_12 = 399165290221 * 798330580441.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_prime_field_rejects_multi_base_pseudoprimes():
    for n in (PSI_12, PSI_13):
        assert not is_probable_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


def test_primality_matches_trial_division_below_1e5():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if is_probable_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


def test_prime_field_is_z_mod_p_but_its_own_kind():
    f7, z7 = PrimeField(7), ModRing(7)
    assert isinstance(f7, ModRing) and f7.p == f7.n == 7
    assert f7 != z7 and z7 != f7
    assert hash(f7) == hash(("prime_field", 7)) and hash(z7) == hash(("mod", 7))
    assert hash(f7) != hash(z7)
    assert repr(f7) == "PrimeField(7)" and repr(z7) == "ModRing(7)"
    assert repr(ProductRing([f7, z7])) == "ProductRing([PrimeField(7), ModRing(7)])"
    # Every ring's equality, hash and repr come from its class and _key().
    assert [repr(r) for r in (INTEGERS, RATIONALS, IntPolyRing(3))] == [
        "IntegerRing()", "RationalRing()", "IntPolyRing(3)"
    ]
    packed = matrices._PackedPolyRing(3, (0, 2), 4)
    assert packed == matrices._PackedPolyRing(3, (0, 2), 4) != IntPolyRing(3)
    assert hash(packed) == hash(matrices._PackedPolyRing(3, (0, 2), 4))
    assert packed != matrices._PackedPolyRing(3, (0, 2), 5)
    with pytest.raises(RingMismatch, match=r"PrimeField\(7\) vs ModRing\(7\)"):
        f7.element(1) + z7.element(1)
    with pytest.raises(RingMismatch):
        SquareMatrix.identity(f7, 2) + SquareMatrix.identity(z7, 2)
    with pytest.raises(AttributeError):
        f7.p = 11
    # Z/7's unit test and inverse: every nonzero residue is a unit.
    assert [a for a in range(7) if f7.is_unit(a)] == [1, 2, 3, 4, 5, 6]
    assert [f7.try_inverse(a) for a in range(7)] == [None, 1, 4, 5, 2, 3, 6]


def test_prime_field_refuses_a_modulus_past_the_bit_cap():
    # Mersenne primes on each side of the 4096-bit cap.  The product of two
    # has no small factor, so only the cap keeps its certificate from
    # running for seconds.
    assert PRIME_FIELD_MAX_BITS == 4096
    assert PrimeField(2**3217 - 1).p.bit_length() == 3217
    for p in (2**4253 - 1, (2**4423 - 1) * (2**9689 - 1)):
        with pytest.raises(ValueError, match="4096-bit cap"):
            PrimeField(p)
        with pytest.raises(jsonio.SchemaError, match="4096-bit cap"):
            jsonio.ring_from_json({"kind": "prime_field", "p": str(p)})


def test_int_poly_unit_test_allocates_nothing_per_variable():
    ring = IntPolyRing(10**6)
    values = [ring.zero, ring.one, ring.neg(ring.one), ring.from_int(2), ring.variable(5)]
    tracemalloc.start()
    try:
        units = [ring.is_unit(v) for v in values]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert units == [False, True, True, False, False]
    assert peak < 10_000  # two 10^6-entry exponent tuples would be 16 MB


def test_product_rings_flatten():
    nested = ProductRing([PrimeField(2), ProductRing([PrimeField(3), PrimeField(5)])])
    assert nested == F235
    assert nested.arity == 3


def test_mod_add_reduces():
    assert (Z6.element(5) + Z6.element(5)).value == 4


def test_product_mul_componentwise():
    ring = ProductRing([PrimeField(3), PrimeField(5)])
    assert (ring.element((1, 2)) * ring.element((2, 3))).value == (2, 1)


def test_poly_difference_of_squares():
    ring = IntPolyRing(2)
    x0, x1 = ring.variable(0), ring.variable(1)
    assert (x0 + x1) * (x0 - x1) == x0 * x0 - x1 * x1


def test_int_coercion_in_operators():
    a = Z6.element(5)
    assert (a + 1).value == 0
    assert (1 + a).value == 0
    assert (a - 7).value == 4
    assert (2 * a).value == 4


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatch):
        Z6.element(1) + ModRing(10).element(1)
    with pytest.raises(RingMismatch):
        F7.element(1) * INTEGERS.element(1)


def test_is_unit_examples():
    assert Z6.element(5).is_unit()
    assert not Z6.element(2).is_unit()
    assert F235.element((1, 2, 3)).is_unit()
    assert not F235.element((1, 0, 3)).is_unit()
    assert not INTEGERS.element(2).is_unit()
    assert INTEGERS.element(-1).is_unit()
    poly_ring = IntPolyRing(1)
    assert poly_ring.element(-1).is_unit()
    assert not poly_ring.element(2).is_unit()
    assert not poly_ring.element(poly_ring.variable(0)).is_unit()


def test_try_inverse_examples():
    assert F7.element(3).inverse().value == 5
    assert Z6.element(2).inverse() is None
    assert RATIONALS.element(Fraction(4, 6)).inverse().value == Fraction(3, 2)
    assert RATIONALS.element(0).inverse() is None
    inv = F235.element((1, 2, 3)).inverse()
    assert (F235.element((1, 2, 3)) * inv).value == F235.one


def test_inverse_iff_unit_and_exact():
    rng = random.Random(11)
    for ring in (Z6, F7, INTEGERS, RATIONALS, F235, ModRing(10)):
        for _ in range(300):
            a = ring.element(ring.random(rng))
            inv = a.inverse()
            assert (inv is not None) == a.is_unit()
            if inv is not None:
                assert (a * inv).value == ring.one


def test_unit_multiplicativity():
    rng = random.Random(13)
    for ring in (Z6, F7, INTEGERS, RATIONALS, F235, ModRing(10)):
        for _ in range(300):
            a, b = ring.random(rng), ring.random(rng)
            assert ring.is_unit(ring.mul(a, b)) == (ring.is_unit(a) and ring.is_unit(b))


def test_ring_axioms_suite():
    # Exhaustive over Z/6 and F2 x F3, 1000 random triples elsewhere.
    result = run_suite("ring-axioms", seed=0, trials=1000)
    assert result.failures == 0, result.first_failure


def test_rationals_stay_reduced():
    a = RATIONALS.element(Fraction(4, 6))
    assert a.value.numerator == 2 and a.value.denominator == 3
    b = RATIONALS.element(Fraction(1, -2))
    assert b.value.denominator == 2 and b.value.numerator == -1


def test_residues_stay_canonical():
    assert Z6.element(-1).value == 5
    assert F7.element(700).value == 0
    assert F235.element((2, 3, 5)).value == (0, 0, 0)


def test_poly_eval_examples():
    f = SparsePoly(2, {(1, 1): 1, (0, 0): -1})  # x0*x1 - 1
    assert poly_eval(f, [INTEGERS.element(2), INTEGERS.element(3)]).value == 5
    zero = SparsePoly.zero(2)
    assert poly_eval(zero, [Z6.element(4), Z6.element(1)]).value == 0
    g = SparsePoly(1, {(1,): 3})  # 3*x0
    assert poly_eval(g, [Z6.element(4)]).value == 0  # 12 mod 6


def test_poly_eval_errors():
    f = SparsePoly(2, {(1, 0): 1})
    with pytest.raises(ArityMismatch):
        poly_eval(f, [INTEGERS.element(1)])
    with pytest.raises(RingMismatch):
        poly_eval(f, [INTEGERS.element(1), Z6.element(1)])


def test_poly_eval_is_homomorphism():
    rng = random.Random(17)
    for ring in (Z6, F7, INTEGERS, RATIONALS, F235):
        for _ in range(100):
            f = random_poly(3, rng)
            g = random_poly(3, rng)
            pt = [ring.element(ring.random(rng)) for _ in range(3)]
            fv, gv = poly_eval(f, pt), poly_eval(g, pt)
            assert poly_eval(f + g, pt) == fv + gv
            assert poly_eval(f * g, pt) == fv * gv


def test_sparse_product_matches_plain_evaluation():
    rng = random.Random(19)
    for _ in range(50):
        nvars = rng.randint(1, 4)
        f = random_poly(nvars, rng)
        g = random_poly(nvars, rng)
        prod = f * g
        for _ in range(20):
            pt = [rng.randrange(-6, 7) for _ in range(nvars)]
            fv = sum(c * _power_product(pt, e) for e, c in f.terms.items())
            gv = sum(c * _power_product(pt, e) for e, c in g.terms.items())
            pv = sum(c * _power_product(pt, e) for e, c in prod.terms.items())
            assert pv == fv * gv


def _power_product(point, exps):
    out = 1
    for x, e in zip(point, exps):
        out *= x**e
    return out


def test_poly_canonical_form():
    p = SparsePoly(2, [((1, 0), 2), ((1, 0), -2), ((0, 1), 3)])
    assert p.terms == {(0, 1): 3}
    assert SparsePoly(2, {(0, 0): 0}).is_zero()
    with pytest.raises(ValueError):
        SparsePoly(2, {(1,): 1})  # wrong exponent arity


def test_is_homogeneous():
    f = SparsePoly(2, {(2, 0): 1, (1, 1): 2})  # x0^2 + 2 x0 x1
    assert f.homogeneous_degree() == 2
    g = SparsePoly(2, {(1, 0): 1, (0, 0): 1})  # x0 + 1
    assert g.homogeneous_degree() is None
    assert SparsePoly.zero(3).homogeneous_degree() == 0


def test_generic_det_polynomial_is_homogeneous():
    from detsum import det, generic_matrix_family

    poly = det(generic_matrix_family(1, 2)[0]).value
    assert poly.homogeneous_degree() == 2
    poly3 = det(generic_matrix_family(1, 3)[0]).value
    assert poly3.homogeneous_degree() == 3


def test_int_payload_arbitrary_precision():
    big = 10**40 + 7
    a = INTEGERS.element(big)
    assert (a * a).value == big * big
    r = RATIONALS.element(Fraction(big, 3))
    assert (r * 3).value == big
