"""Seeded randomized property suites.

Every suite draws from a ``random.Random`` seeded with the master seed
and its own name, so a run is fully determined by the seed.  Suites
return pass/fail counts instead of raising, which lets the CLI bundle
them into one report; the test suite runs the same engines at the full
trial counts.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .identities import (
    alternating_subset_det_sum,
    find_perturbing_subset,
    homogeneous_alternating_sum,
    monomial_coefficient_check,
    perturbation_identity_residual,
    simplex_centroid_check,
)
from .matrices import (
    SquareMatrix,
    _det_berkowitz,
    _det_leibniz,
    det,
    det_rows,
    is_invertible,
    lift_family,
    mat_mul,
    random_matrix,
    subset_sum,
)
from .rings import (
    INTEGERS,
    RATIONALS,
    IntegerRing,
    IntPolyRing,
    ModRing,
    PrimeField,
    ProductRing,
    Ring,
    RingElement,
    is_probable_prime,
    random_homogeneous_poly,
    random_poly,
)
from .search import (
    SemilocalInstance,
    embed_product_to_matrices,
    find_invertible_subsum,
    ideal_chain,
    local_counterexample_matrices,
    semilocal_find_unit_subsum,
)
from .subsets import (
    SubsetMask,
    array_ops,
    gray_sums,
    masks_in_search_order,
    masks_of_cardinality,
    search_order_sums,
    superset_sign_sums,
)

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_suites", "DEFAULT_TRIALS"]


@dataclass
class SuiteResult:
    name: str
    checks: int
    failures: int
    first_failure: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Recorder:
    __slots__ = ("checks", "failures", "first_failure")

    def __init__(self):
        self.checks = 0
        self.failures = 0
        self.first_failure = None

    def check(self, ok: bool, describe) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = describe() if callable(describe) else str(describe)


def _f2x3x5() -> ProductRing:
    return ProductRing([PrimeField(2), PrimeField(3), PrimeField(5)])


_AXIOM_RANDOM_RINGS: Sequence[Ring] = (
    PrimeField(7),
    ModRing(10),
    INTEGERS,
    RATIONALS,
    _f2x3x5(),
    IntPolyRing(2),
)

_DIVIDES = lambda d, x: x == 0 if d == 0 else x % d == 0


def _check_axiom_triple(ring: Ring, a, b, c, rec: _Recorder) -> None:
    add, mul = ring.add, ring.mul
    ok = (
        add(a, b) == add(b, a)
        and add(add(a, b), c) == add(a, add(b, c))
        and mul(a, b) == mul(b, a)
        and mul(mul(a, b), c) == mul(a, mul(b, c))
        and mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        and add(a, ring.zero) == a
        and mul(a, ring.one) == a
        and ring.is_zero(add(a, ring.neg(a)))
    )
    rec.check(ok, lambda: f"ring axiom failed over {ring!r} on {a!r}, {b!r}, {c!r}")


def suite_ring_axioms(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Exhaustive triples over Z/6 and F2 x F3; random triples elsewhere."""
    z6 = ModRing(6)
    for a, b, c in itertools.product(range(6), repeat=3):
        _check_axiom_triple(z6, a, b, c, rec)
    f2x3 = ProductRing([PrimeField(2), PrimeField(3)])
    elems = list(itertools.product(range(2), range(3)))
    for a, b, c in itertools.product(elems, repeat=3):
        _check_axiom_triple(f2x3, a, b, c, rec)
    for ring in _AXIOM_RANDOM_RINGS:
        for _ in range(trials):
            _check_axiom_triple(ring, ring.random(rng), ring.random(rng), ring.random(rng), rec)


def suite_unit_product(rng: random.Random, trials: int, rec: _Recorder) -> None:
    for ring in _AXIOM_RANDOM_RINGS + (ModRing(6),):
        for _ in range(trials):
            a, b = ring.random(rng), ring.random(rng)
            ok = ring.is_unit(ring.mul(a, b)) == (ring.is_unit(a) and ring.is_unit(b))
            rec.check(ok, lambda: f"unit multiplicativity failed over {ring!r} on {a!r}, {b!r}")


def suite_inverse_roundtrip(rng: random.Random, trials: int, rec: _Recorder) -> None:
    for ring in _AXIOM_RANDOM_RINGS + (ModRing(6),):
        for _ in range(trials):
            a = ring.random(rng)
            inv = ring.try_inverse(a)
            if inv is None:
                rec.check(not ring.is_unit(a), lambda: f"unit {a!r} has no inverse over {ring!r}")
            else:
                ok = ring.is_unit(a) and ring.mul(a, inv) == ring.one
                rec.check(ok, lambda: f"bad inverse {inv!r} of {a!r} over {ring!r}")


def suite_poly_eval_homomorphism(rng: random.Random, trials: int, rec: _Recorder) -> None:
    rings = (ModRing(6), PrimeField(7), INTEGERS, RATIONALS, _f2x3x5())
    for _ in range(trials):
        ring = rings[rng.randrange(len(rings))]
        f = random_poly(3, rng)
        g = random_poly(3, rng)
        pt = [ring.random(rng) for _ in range(3)]
        fv = f.eval_raw(ring, pt)
        gv = g.eval_raw(ring, pt)
        ok = (
            (f + g).eval_raw(ring, pt) == ring.add(fv, gv)
            and (f * g).eval_raw(ring, pt) == ring.mul(fv, gv)
        )
        rec.check(ok, lambda: f"evaluation not a homomorphism over {ring!r}: f={f!r}, g={g!r}")


def _plain_int_eval(poly, point: Sequence[int]) -> int:
    total = 0
    for exps, coeff in poly.terms.items():
        term = coeff
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


def suite_poly_dense_agreement(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Sparse products agree with direct integer evaluation at 20 points."""
    for _ in range(trials):
        nvars = rng.randint(1, 4)
        f = random_poly(nvars, rng)
        g = random_poly(nvars, rng)
        prod = f * g
        for _ in range(20):
            pt = [rng.randrange(-6, 7) for _ in range(nvars)]
            expected = _plain_int_eval(f, pt) * _plain_int_eval(g, pt)
            ok = prod.eval_raw(INTEGERS, pt) == expected
            rec.check(ok, lambda: f"sparse/dense mismatch for f={f!r}, g={g!r} at {pt}")


_BIG_MODULUS = 2**512 - 1  # composite, 512 bits
_BIG_PRIME = 2**521 - 1
# (ring, largest n, modulus of the lift to Z or None)
_CROSS_CHECK_RINGS: Sequence[tuple[Ring, int, Optional[int]]] = (
    (INTEGERS, 6, None),
    (RATIONALS, 6, None),
    (PrimeField(7), 16, 7),
    (ModRing(6), 16, 6),
    (ModRing(10), 16, 10),
    (_f2x3x5(), 6, None),
    (IntPolyRing(3), 3, None),
    (ModRing(_BIG_MODULUS), 10, _BIG_MODULUS),
    (PrimeField(_BIG_PRIME), 10, _BIG_PRIME),
    (ModRing(2**64), 16, 2**64),
)
LEIBNIZ_ORACLE_MAX_N = 6


def suite_det_agreement(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """det agrees with Berkowitz at every n, with Leibniz for n <= 6, and
    over F_p and Z/N with the determinant over Z of the lifted entries.

    For n <= 4 the lifted value runs the same closed form as det over
    F_p and Z/N, so there Leibniz and Berkowitz are the independent
    oracles; the 512- and 521-bit moduli check every route on residues
    far wider than a machine word.  Over Z/2^64 a column with no odd
    entry has no unit, which sends elimination down Euclid's steps."""
    for ring, max_n, modulus in _CROSS_CHECK_RINGS:
        for t in range(trials):
            n = t % max_n + 1
            rows = random_matrix(ring, n, rng).rows
            values = {"det": det_rows(ring, rows), "berkowitz": _det_berkowitz(ring, rows)}
            if n <= LEIBNIZ_ORACLE_MAX_N:
                values["leibniz"] = _det_leibniz(ring, rows)
            if modulus is not None:
                values["lifted"] = det_rows(INTEGERS, rows) % modulus
            rec.check(
                len(set(values.values())) == 1,
                lambda: f"determinants disagree over {ring!r} (n={n}): "
                + ", ".join(f"{k}={v!r}" for k, v in values.items()),
            )


def suite_det_multiplicativity(rng: random.Random, trials: int, rec: _Recorder) -> None:
    for ring in (PrimeField(7), ModRing(6)):
        for t in range(trials):
            n = t % 4 + 1
            a = random_matrix(ring, n, rng)
            b = random_matrix(ring, n, rng)
            ok = det(mat_mul(a, b)).value == ring.mul(det(a).value, det(b).value)
            rec.check(ok, lambda: f"det not multiplicative over {ring!r} (n={n})")


def suite_det_homogeneity(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """det(c*A) = c^n * det(A)."""
    for ring in (PrimeField(7), ModRing(6), INTEGERS):
        for t in range(trials):
            n = t % 4 + 1
            a = random_matrix(ring, n, rng)
            c = ring.random(rng)
            lhs = det(a.scaled(RingElement(ring, c, _normalized=True))).value
            cn = ring.one
            for _ in range(n):
                cn = ring.mul(cn, c)
            ok = lhs == ring.mul(cn, det(a).value)
            rec.check(ok, lambda: f"det homogeneity failed over {ring!r} (n={n}, c={c!r})")


def suite_det_product_split(rng: random.Random, trials: int, rec: _Recorder) -> None:
    ring = _f2x3x5()
    for t in range(trials):
        n = t % 4 + 1
        mat = random_matrix(ring, n, rng)
        whole = det(mat).value
        parts = []
        for c, comp in enumerate(ring.components):
            comp_rows = [[entry[c] for entry in row] for row in mat.rows]
            parts.append(det_rows(comp, comp_rows))
        rec.check(
            whole == tuple(parts),
            lambda: f"product det {whole!r} != componentwise {tuple(parts)!r} (n={n})",
        )


ALT_SUM_RINGS: Sequence[Ring] = (
    PrimeField(2),
    PrimeField(7),
    ModRing(6),
    ModRing(10),
    INTEGERS,
    RATIONALS,
    _f2x3x5(),
)


def suite_alt_sum_zero(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The alternating subset det sum vanishes for every n <= 3 < m <= 6."""
    for ring in ALT_SUM_RINGS:
        for n in (1, 2, 3):
            for m in (4, 5, 6):
                for _ in range(trials):
                    fam = [random_matrix(ring, n, rng) for _ in range(m)]
                    value = alternating_subset_det_sum(fam)
                    rec.check(
                        value.is_zero(),
                        lambda: f"nonzero alternating sum over {ring!r} (n={n}, m={m}): {value!r}",
                    )


def _lifted_rows(ring: Ring, members: Sequence, lift) -> Callable[[object, int], tuple]:
    """Decode a walked value of ``lift`` to its rows over ``ring``.

    Each lifted int maps back by the canonical map from Z, and over Q by
    dividing by D_i, the lcm of the row-i denominators across the
    members, as the lift's shared row scaling does.
    """
    n = len(members[0])
    if ring == RATIONALS:
        scales = [math.lcm(*(e.denominator for a in members for e in a[i])) for i in range(n)]
        entry = lambda i, c: Fraction(c, scales[i])
    else:
        entry = lambda i, c: ring.from_int(c)

    def rows_of(value, count):
        cells = lift.cells(value, count)
        return tuple(tuple(entry(i, c) for c in cells[i * n:(i + 1) * n]) for i in range(n))

    return rows_of


def suite_subset_walks(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Both subset walks agree with ``subset_sum``, walking arrays over the
    ring and, where the family lifts to ints, the lifted values (packed
    ints, or plain ints at n = 1) decoded back to the ring; trial t uses
    m = t % 10 + 1 members and checks the search-order walk at every
    bound, each a prefix of the walk at bound m."""
    for ring in ALT_SUM_RINGS + (IntPolyRing(2),):
        for t in range(trials):
            m = t % 10 + 1
            n = rng.randint(1, 3)
            fam = [random_matrix(ring, n, rng) for _ in range(m)]
            members = [a.rows for a in fam]
            oracle = {bits: subset_sum(fam, SubsetMask(bits, m)).rows for bits in range(1, 1 << m)}
            as_rows = lambda rows, count: tuple(map(tuple, rows))
            walks = [("arrays", members, *array_ops(ring), as_rows)]
            lift = lift_family(ring, members, m)
            if lift.ring == INTEGERS:
                rows_of = _lifted_rows(ring, members, lift)
                walks.append((f"width {lift.width}", lift.members, lift.add, lift.sub, rows_of))
            for label, walked, add, sub, rows_of in walks:
                for bound in range(m, 0, -1):
                    got = list(search_order_sums(walked, add, bound))
                    if bound == m:
                        full = got
                        ok = [(bits, rows_of(value, bits.bit_count())) for bits, value in got] == [
                            (bits, oracle[bits]) for bits in masks_in_search_order(m)
                        ]
                    else:  # the walk at a lower bound is a prefix of the full one
                        ok = got == full[: sum(math.comb(m, k) for k in range(1, bound + 1))]
                    rec.check(
                        ok,
                        lambda: f"search-order walk on {label} differs over {ring!r} "
                        f"(n={n}, m={m}, bound={bound})",
                    )
                got = [
                    (bits, rows_of(value, bits.bit_count()))
                    for bits, value in gray_sums(walked, add, sub)
                ]
                expected = [(k ^ (k >> 1), oracle[k ^ (k >> 1)]) for k in range(1, 1 << m)]
                rec.check(
                    got == expected,
                    lambda: f"Gray walk on {label} differs over {ring!r} (n={n}, m={m})",
                )


def suite_superset_sign_sums(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Every c(T) with 1 <= |T| <= size, present or absent, matches a direct
    count over the supersets of T, and ``monomial_coefficient_check`` when
    m > |T|; m <= 12 and size <= 4 are drawn at random."""
    for _ in range(trials):
        m = rng.randint(1, 12)
        size = rng.randint(1, 4)
        sums = superset_sign_sums(m, size)
        full = (1 << m) - 1
        rec.check(
            all(1 <= t.bit_count() <= size and t <= full and c for t, c in sums.items()),
            lambda: f"superset sign sums hold a bad key or a zero (m={m}, size={size})",
        )
        for t in range(1, full + 1):
            if t.bit_count() > size:
                continue
            direct, s = 0, t
            while s <= full:  # s runs over every mask with s & t == t, ascending
                direct += -1 if s.bit_count() & 1 else 1
                s = (s + 1) | t
            got = sums.get(t, 0)
            ok = got == direct
            if m > t.bit_count():
                members = list(SubsetMask(t, m))
                ok = ok and got == monomial_coefficient_check(m, len(members), members)
            rec.check(ok, lambda: f"c({t:#x}) = {got}, direct count {direct} (m={m}, size={size})")


def suite_perturbation_residual(rng: random.Random, trials: int, rec: _Recorder) -> None:
    for ring in (INTEGERS, ModRing(10)):
        for t in range(trials):
            n = t % 3 + 1
            fam = [random_matrix(ring, n, rng) for _ in range(n)]
            b = random_matrix(ring, n, rng)
            res = perturbation_identity_residual(fam, b)
            rec.check(res.is_zero(), lambda: f"nonzero perturbation residual over {ring!r} (n={n})")


def suite_perturbation_witness(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The returned subset is the brute-force minimal moving subset."""
    ring = INTEGERS
    for t in range(trials):
        n = t % 3 + 1
        fam = [random_matrix(ring, n, rng) for _ in range(n)]
        b = random_matrix(ring, n, rng)
        witness = find_perturbing_subset(fam, b)
        brute = None
        for bits in masks_in_search_order(n):
            mask = SubsetMask(bits, n)
            base = subset_sum(fam, mask)
            if det(base) != det(base + b):
                brute = mask
                break
        ok = witness == brute and (witness is not None or det(b).is_zero())
        rec.check(ok, lambda: f"witness {witness!r} != brute force {brute!r} (n={n})")


def suite_homogeneous_sum(rng: random.Random, trials: int, rec: _Recorder) -> None:
    for t in range(trials):
        ring = INTEGERS if t % 2 == 0 else ModRing(6)
        nvars = rng.randint(1, 4)
        degree = rng.randint(0, 3)
        f = random_homogeneous_poly(nvars, degree, rng)
        for m in (degree + 1, degree + 2):
            vectors = [
                [RingElement(ring, ring.random(rng), _normalized=True) for _ in range(nvars)]
                for _ in range(m)
            ]
            value = homogeneous_alternating_sum(f, vectors)
            rec.check(
                value.is_zero(),
                lambda: f"nonzero homogeneous sum (deg={degree}, m={m}, ring={ring!r})",
            )


def _singular_rational_points(rng: random.Random, n: int, count: int) -> list[SquareMatrix]:
    """Points whose every subset sum is singular by construction."""
    if n == 1 or rng.random() < 0.5:
        # Common zero row.
        dead = rng.randrange(n)
        mats = []
        for _ in range(count):
            rows = [
                [0 if i == dead else rng.randrange(-4, 5) for _ in range(n)]
                for i in range(n)
            ]
            mats.append(SquareMatrix(RATIONALS, rows))
        return mats
    # Rank-one points sharing the right factor: sums stay rank <= 1 < n.
    right = [rng.randrange(-3, 4) for _ in range(n)]
    mats = []
    for _ in range(count):
        left = [rng.randrange(-3, 4) for _ in range(n)]
        mats.append(SquareMatrix(RATIONALS, [[l * r for r in right] for l in left]))
    return mats


def suite_simplex(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Reports match brute force; constructed singular families never break
    the premise => centroid implication."""
    for t in range(trials):
        n = t % 3 + 1
        points = [random_matrix(RATIONALS, n, rng) for _ in range(n + 1)]
        report = simplex_centroid_check(points)
        brute_failing = []
        full = (1 << (n + 1)) - 1
        for bits in masks_in_search_order(n + 1):
            if bits == full:
                continue
            mask = SubsetMask(bits, n + 1)
            if not det(subset_sum(points, mask)).is_zero():
                brute_failing.append(mask)
        ok = (
            list(report.failing_subsets) == brute_failing
            and report.premise_holds == (not brute_failing)
            and report.centroid_singular
            == det(subset_sum(points, SubsetMask.full(n + 1))).is_zero()
            and (not report.premise_holds or report.centroid_singular)
        )
        rec.check(ok, lambda: f"simplex report mismatch (n={n})")

        singular = _singular_rational_points(rng, n, n + 1)
        constructed = simplex_centroid_check(singular)
        rec.check(
            constructed.premise_holds and constructed.centroid_singular,
            lambda: f"constructed singular family broke the centroid contract (n={n})",
        )


def _random_family_with_unit_total(ring, n, m, rng, max_resamples=200):
    for _ in range(max_resamples):
        fam = [random_matrix(ring, n, rng) for _ in range(m)]
        if is_invertible(subset_sum(fam, SubsetMask.full(m))):
            return fam
    return None


def suite_search_field_guarantee(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Invertible total over a field => a subset of size <= n works."""
    for p in (2, 5, 101):
        ring = PrimeField(p)
        for t in range(trials):
            n = t % 4 + 1
            m = rng.randint(n + 1, 8)
            fam = _random_family_with_unit_total(ring, n, m, rng)
            if fam is None:
                continue
            witness = find_invertible_subsum(fam, bound=n)
            ok = witness is not None and is_invertible(subset_sum(fam, witness))
            rec.check(ok, lambda: f"field guarantee failed over F_{p} (n={n}, m={m})")


def suite_search_minimality(rng: random.Random, trials: int, rec: _Recorder) -> None:
    ring = PrimeField(5)
    for t in range(trials):
        n = t % 3 + 1
        m = rng.randint(2, 10)
        fam = [random_matrix(ring, n, rng) for _ in range(m)]
        witness = find_invertible_subsum(fam, bound=m)
        brute = None
        for bits in masks_in_search_order(m):
            if is_invertible(subset_sum(fam, SubsetMask(bits, m))):
                brute = SubsetMask(bits, m)
                break
        rec.check(witness == brute, lambda: f"witness {witness!r} != brute force {brute!r}")


def suite_search_local_guarantee(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Same guarantee over the local rings Z/4, Z/9, Z/25."""
    for modulus in (4, 9, 25):
        ring = ModRing(modulus)
        for t in range(trials):
            n = t % 3 + 1
            m = rng.randint(n + 1, 7)
            fam = _random_family_with_unit_total(ring, n, m, rng)
            if fam is None:
                continue
            witness = find_invertible_subsum(fam, bound=n)
            ok = witness is not None and is_invertible(subset_sum(fam, witness))
            rec.check(ok, lambda: f"local guarantee failed over Z/{modulus} (n={n}, m={m})")


def suite_search_nonlocal_counterexample(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The Z/6 construction always defeats the bound-n search."""
    for n in (1, 2, 3):
        fam = local_counterexample_matrices(6, 3, 4, n)
        total = subset_sum(fam, SubsetMask.full(n + 1))
        ok = (
            find_invertible_subsum(fam, bound=n) is None
            and total == SquareMatrix.identity(ModRing(6), n)
        )
        rec.check(ok, lambda: f"counterexample family failed for n={n}")


def suite_ideal_chain(rng: random.Random, trials: int, rec: _Recorder) -> None:
    for ring in (INTEGERS, ModRing(12)):
        for t in range(trials):
            n = t % 3 + 1
            m = rng.randint(n, 6)
            fam = [random_matrix(ring, n, rng) for _ in range(m)]
            chain = ideal_chain(fam)
            gens = chain.generators
            full_det = det(subset_sum(fam, SubsetMask.full(m))).value
            ok = all(_DIVIDES(gens[j + 1], gens[j]) for j in range(m))
            if m >= n:
                ok = ok and all(g == gens[n] for g in gens[n:])
                ok = ok and _DIVIDES(gens[min(n, m)], int(full_det))
            rec.check(ok, lambda: f"ideal chain contract failed over {ring!r}: {gens}")


def suite_semilocal_guarantee(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Unit total over (F_p)^n => a subset of size <= n sums to a unit."""
    for p in (2, 3, 5):
        field = PrimeField(p)
        for t in range(trials):
            n = t % 4 + 1
            ring = ProductRing([field] * n)
            m = rng.randint(n + 1, 8)
            elems = None
            for _ in range(200):
                candidate = [ring.random(rng) for _ in range(m)]
                total = ring.zero
                for v in candidate:
                    total = ring.add(total, v)
                if ring.is_unit(total):
                    elems = candidate
                    break
            if elems is None:
                continue
            inst = SemilocalInstance.from_raw(ring, elems)
            witness = semilocal_find_unit_subsum(inst, bound=n)
            ok = witness is not None
            if ok:
                total = ring.zero
                for i in witness:
                    total = ring.add(total, elems[i])
                ok = ring.is_unit(total)
            rec.check(ok, lambda: f"semilocal guarantee failed over (F_{p})^{n}, m={m}")


def suite_embedding_soundness(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Units map to invertible diagonal matrices, subset sums included."""
    for t in range(trials):
        p = (2, 3, 5)[t % 3]
        n = t % 3 + 2
        ring = ProductRing([PrimeField(p)] * n)
        m = rng.randint(2, 6)
        inst = SemilocalInstance.from_raw(ring, [ring.random(rng) for _ in range(m)])
        mats = embed_product_to_matrices(inst)
        ok = all(
            ring.is_unit(el.value) == is_invertible(mat)
            for el, mat in zip(inst.elements, mats)
        )
        for _ in range(5):
            bits = rng.randrange(1, 1 << m)
            mask = SubsetMask(bits, m)
            total = ring.zero
            for i in mask:
                total = ring.add(total, inst.elements[i].value)
            ok = ok and ring.is_unit(total) == is_invertible(subset_sum(mats, mask))
        rec.check(ok, lambda: f"embedding broke unit detection (p={p}, n={n})")


def suite_two_component_bound(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Over any product of two prime fields, a unit total always yields a
    unit subsum of size <= 2 (exhaustive over all multisets, m <= 5)."""
    for rings in (
        ProductRing([PrimeField(2), PrimeField(3)]),
        ProductRing([PrimeField(2), PrimeField(2)]),
    ):
        elements = list(
            itertools.product(*(range(f.p) for f in rings.components))
        )
        for m in range(1, 6):
            for combo in itertools.combinations_with_replacement(elements, m):
                total = rings.zero
                for v in combo:
                    total = rings.add(total, v)
                if not rings.is_unit(total):
                    continue
                inst = SemilocalInstance.from_raw(rings, combo)
                witness = semilocal_find_unit_subsum(inst, bound=min(2, m))
                rec.check(
                    witness is not None,
                    lambda: f"two-component bound failed on {combo!r} over {rings!r}",
                )


def _coprime_rational_row(rng: random.Random, n: int) -> list[Fraction]:
    # One fresh random 64-bit prime denominator per row: the rows of a
    # family have pairwise coprime denominators but for a ~2^-57 chance.
    while True:
        d = rng.getrandbits(64) | (1 << 63) | 1
        if is_probable_prime(d):
            return [Fraction(rng.randrange(-(2**64), 2**64), d) for _ in range(n)]


LIFTED_WALK_MAX_N = 6
LIFTED_WALK_MAX_M = 8
_F2_F3_F5 = ProductRing([PrimeField(2), PrimeField(3), PrimeField(5)])
# (ring, draw of one row of n entries)
_LIFTED_WALK_RINGS: Sequence[tuple[Ring, Callable[[random.Random, int], list]]] = (
    *(
        (ring, lambda rng, n, ring=ring: [ring.random(rng) for _ in range(n)])
        for ring in (INTEGERS, RATIONALS, ModRing(6), ModRing(10), ModRing(_BIG_MODULUS),
                     PrimeField(7), PrimeField(_BIG_PRIME),
                     _F2_F3_F5, ProductRing([ModRing(4), ModRing(9)]),
                     ProductRing([ModRing(6), PrimeField(3)]),
                     ProductRing([ModRing(2**64 - 1), PrimeField(_BIG_PRIME)]))
    ),
    (RATIONALS, _coprime_rational_row),
)


def _oracle_det(ring: Ring, rows: Sequence[Sequence[object]]) -> object:
    """Berkowitz in the ring; over Q on integer rows, divided once.

    Each row of a Q matrix is scaled by the lcm of its own denominators,
    so Berkowitz runs over Z, and the result is divided by the product
    of those lcms.  This is independent of the lift's family-wide row
    scaling and of the Bareiss and closed-form routes.
    """
    if ring != RATIONALS:
        return _det_berkowitz(ring, rows)
    scales = [math.lcm(*(e.denominator for e in row)) for row in rows]
    scaled = [[e.numerator * (d // e.denominator) for e in row] for row, d in zip(rows, scales)]
    return Fraction(_det_berkowitz(INTEGERS, scaled), math.prod(scales))


def _slot_cases(rng: random.Random, n: int) -> list[tuple[Ring, int, int, Optional[int], list]]:
    """(ring, m, size, expected slot width, members) at the edges of each width.

    For each width w, with m = 4: residues whose 4-fold sums just fit w
    bits, and one more that does not; Z entries in [-a, a] whose 4-fold
    sums just fit a signed w-bit cell, and a + 1; Z/2^w residues at the
    top of their slot at size 1 and 2.  Past 64 bits the family walks as
    int arrays (width None).  Each family repeats a member whose entries
    are all at the edge, so that some walked sum reaches the slot's
    limit, and adds random members."""

    def family(m, peak, draw):
        edge = [[peak] * n for _ in range(n)]
        return [edge, edge] + [[[draw() for _ in range(n)] for _ in range(n)] for _ in range(m - 2)]

    cases = []
    for w, past in ((8, 16), (16, 32), (32, 64), (64, None)):
        top = ((1 << w) - 1) // 4  # 4 * top < 2^w <= 4 * (top + 1)
        for t, width in ((top, w), (top + 1, past)):
            cases.append((ModRing(t + 1), 4, 4, width, family(4, t, lambda: rng.randint(0, t))))
        a = ((1 << (w - 1)) - 1) // 4  # 4 * a < 2^(w-1) <= 4 * (a + 1)
        for b, width in ((a, w), (a + 1, past)):
            for peak in (b, -b):
                cases.append((INTEGERS, 4, 4, width, family(4, peak, lambda: rng.randint(-b, b))))
        for size, width in ((1, w), (2, past)):
            draw = lambda: rng.randrange(1 << w)
            cases.append((ModRing(1 << w), 4, size, width, family(4, (1 << w) - 1, draw)))
    # Negative Q numerators after scaling: the member of sixths makes
    # every row lcm 30, so entries scale to at most 270 and the peak -9/5
    # to -54; five-fold sums need 16 bits.
    fam = family(4, Fraction(-9, 5), lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))))
    fam.append([[Fraction(1, 6)] * n for _ in range(n)])
    cases.append((RATIONALS, 5, 5, 16, fam))
    # 64 members at bound 1 and 2.
    wide = [[[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)] for _ in range(64)]
    wide[0][0][0] = -99  # two-fold sums need 16 bits
    cases += [(INTEGERS, 64, 1, 8, wide), (INTEGERS, 64, 2, 16, wide)]
    return cases


def suite_lifted_slots(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Packed walks at the edges of their slots agree with ``subset_sum``
    plus Berkowitz in the ring.

    Trial t takes n = (2, 4, 5)[t % 3], so both the closed form and the
    rows sliced for n > 4 read the cells.  Each case of
    :func:`_slot_cases`, and plain ints over Z at n = 1 with entries of
    up to 80 bits either side of 0, pins the slot width that
    ``lift_family`` picks.  Then every sum of the search-order walk at
    bound ``size``, and of the Gray walk when size is m, is decoded
    against ``subset_sum`` and its determinant checked against
    :func:`_oracle_det`.
    """
    for t in range(trials):
        n = (2, 4, 5)[t % 3]
        cases = _slot_cases(rng, n)
        cases.append((INTEGERS, 8, 8, 0, [[[rng.randint(-(2**80), 2**80)]] for _ in range(8)]))
        for ring, m, size, width, members in cases:
            fam = [SquareMatrix(ring, a) for a in members]
            members = [a.rows for a in fam]
            lift = lift_family(ring, members, size)
            rows_of = _lifted_rows(ring, members, lift)

            def where(what):
                return lambda: (
                    f"{what} over {ring!r} (n={len(members[0])}, m={m}, size={size}, "
                    f"width {lift.width}, expected {width})"
                )

            rec.check(lift.width == width and len(lift.members) == m, where("slot width"))
            walks = [search_order_sums(lift.members, lift.add, size)]
            if size == m:
                walks.append(gray_sums(lift.members, lift.add, lift.sub))
            for walk in walks:
                ok = True
                for bits, value in walk:
                    count = bits.bit_count()
                    rows = subset_sum(fam, SubsetMask(bits, m)).rows
                    ok = ok and rows_of(value, count) == rows
                    ok = ok and lift.finish(lift.det(value, count)) == _oracle_det(ring, rows)
                rec.check(ok, where("walked sums or determinants differ"))


def suite_lifted_walks(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Engines that walk lifted families agree with ring arithmetic.

    Trial t takes ring t % 12 and n = t // 12 % 6 + 1, so the default
    72 trials draw every (ring, n) cell, and m <= 8 members.  The rings
    are Z, Q with small denominators, Z/6, Z/10, Z/(2^512-1), F_7,
    F_(2^521-1); the products F2xF3xF5 and Z/4xZ/9, which walk as Z/30
    and Z/36, Z/6xF3 (not coprime) and Z/(2^64-1)xF_(2^521-1) (585
    bits, past the cap), which walk in the ring; and Q with one 64-bit
    prime denominator per row, which puts the lift on both sides of its
    gate.  The oracle sums every subset with ``subset_sum`` and takes its
    determinant by Berkowitz in the ring (over Q on the sum's rows scaled
    by their own lcms, see :func:`_oracle_det`).  Checked: the alternating sum
    over the first m members; the invertible-subsum witness at a random
    bound, and at n = 1 over F2xF3xF5 the semilocal search's; the ideal
    chain over Z and Z/N; and, with the first n members and member n as
    B, the perturbation residual and perturbing subset, and over Q the
    simplex report of the first n + 1 members.
    """
    for t in range(trials):
        ring, draw = _LIFTED_WALK_RINGS[t % len(_LIFTED_WALK_RINGS)]
        n = t // len(_LIFTED_WALK_RINGS) % LIFTED_WALK_MAX_N + 1
        m = rng.randint(1, LIFTED_WALK_MAX_M)
        size = max(m, n + 1)
        fam = [
            SquareMatrix(ring, [draw(rng, n) for _ in range(n)])
            for _ in range(size)
        ]
        dets = {
            bits: _oracle_det(ring, subset_sum(fam, SubsetMask(bits, size)).rows)
            for bits in range(1, 1 << size)
        }

        def where(what):
            return lambda: f"{what} differs from ring arithmetic over {ring!r} (n={n}, m={m})"

        alt = ring.zero
        for bits in range(1, 1 << m):
            alt = (ring.sub if bits.bit_count() & 1 else ring.add)(alt, dets[bits])
        rec.check(alternating_subset_det_sum(fam[:m]).value == alt, where("alternating sum"))

        bound = rng.randint(1, m)
        first_unit = next(
            (bits for bits in masks_in_search_order(m, bound) if ring.is_unit(dets[bits])), None
        )
        witness = find_invertible_subsum(fam[:m], bound)
        rec.check(
            (witness.bits if witness else None) == first_unit,
            where(f"invertible-subsum witness at bound {bound}"),
        )
        if n == 1 and ring == _F2_F3_F5:
            instance = SemilocalInstance.from_raw(ring, [a.rows[0][0] for a in fam[:m]])
            witness = semilocal_find_unit_subsum(instance, bound)
            rec.check(
                (witness.bits if witness else None) == first_unit,
                where(f"unit-subsum witness at bound {bound}"),
            )

        if isinstance(ring, (IntegerRing, ModRing)):
            modulus = ring.n if isinstance(ring, ModRing) else 0
            gens, g = [0], 0
            for k in range(1, m + 1):
                for bits in masks_of_cardinality(m, k):
                    g = math.gcd(g, dets[bits])
                gens.append(math.gcd(g, modulus) if modulus else g)
            rec.check(ideal_chain(fam[:m]).generators == tuple(gens), where("ideal chain"))

        b_bit = 1 << n  # member n is B
        residual = ring.neg(dets[b_bit])
        moving = None
        for bits in masks_in_search_order(n):
            term = ring.sub(dets[bits], dets[bits | b_bit])
            residual = (ring.sub if bits.bit_count() & 1 else ring.add)(residual, term)
            if moving is None and not ring.is_zero(term):
                moving = bits
        rec.check(
            perturbation_identity_residual(fam[:n], fam[n]).value == residual,
            where("perturbation residual"),
        )
        witness = find_perturbing_subset(fam[:n], fam[n])
        rec.check((witness.bits if witness else None) == moving, where("perturbing subset"))

        if ring == RATIONALS:
            full = (1 << (n + 1)) - 1
            report = simplex_centroid_check(fam[: n + 1])
            failing = [bits for bits in masks_in_search_order(n + 1) if bits != full and dets[bits]]
            rec.check(
                [mask.bits for mask in report.failing_subsets] == failing
                and report.premise_holds == (not failing)
                and report.centroid_singular == (dets[full] == 0),
                where("simplex report"),
            )


SUITES: dict[str, tuple[Callable, int]] = {
    "ring-axioms": (suite_ring_axioms, 1000),
    "unit-product": (suite_unit_product, 200),
    "inverse-roundtrip": (suite_inverse_roundtrip, 200),
    "poly-eval-homomorphism": (suite_poly_eval_homomorphism, 100),
    "poly-dense-agreement": (suite_poly_dense_agreement, 25),
    "det-agreement": (suite_det_agreement, 60),
    "det-multiplicativity": (suite_det_multiplicativity, 100),
    "det-homogeneity": (suite_det_homogeneity, 100),
    "det-product-split": (suite_det_product_split, 50),
    "alt-sum-zero": (suite_alt_sum_zero, 10),
    "subset-walks": (suite_subset_walks, 10),
    "superset-sign-sums": (suite_superset_sign_sums, 40),
    "perturbation-residual": (suite_perturbation_residual, 100),
    "perturbation-witness": (suite_perturbation_witness, 50),
    "homogeneous-sum": (suite_homogeneous_sum, 50),
    "simplex": (suite_simplex, 50),
    "search-field-guarantee": (suite_search_field_guarantee, 50),
    "search-minimality": (suite_search_minimality, 50),
    "search-local-guarantee": (suite_search_local_guarantee, 50),
    "search-nonlocal-counterexample": (suite_search_nonlocal_counterexample, 1),
    "ideal-chain": (suite_ideal_chain, 50),
    "semilocal-guarantee": (suite_semilocal_guarantee, 50),
    "embedding-soundness": (suite_embedding_soundness, 50),
    "two-component-bound": (suite_two_component_bound, 1),
    "lifted-walks": (suite_lifted_walks, 72),
    "lifted-slots": (suite_lifted_slots, 3),
}


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> SuiteResult:
    """Run one named suite; ``trials`` overrides its default count."""
    fn, default_trials = SUITES[name]
    rng = random.Random(f"{seed}:{name}")
    rec = _Recorder()
    fn(rng, trials if trials is not None else default_trials, rec)
    return SuiteResult(name, rec.checks, rec.failures, rec.first_failure)


def run_suites(
    names: Sequence[str] | None = None,
    seed: int = 0,
    trials: int | None = None,
) -> list[SuiteResult]:
    """Run the named suites (all of them by default) under one seed."""
    selected = list(SUITES) if names is None else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {', '.join(unknown)}")
    return [run_suite(name, seed, trials) for name in selected]
