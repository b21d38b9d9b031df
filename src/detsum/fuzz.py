"""Seeded randomized property suites.

Every suite draws from a ``random.Random`` seeded with the master seed
and its own name, so a run is fully determined by the seed.  Suites
return pass/fail counts instead of raising, which lets the CLI bundle
them into one report; the test suite runs the same engines at the full
trial counts.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import cli, jsonio
from .errors import ContractViolation, UnsupportedRing
from .identities import (
    DET_IDENTITY_CAPS,
    _check_certificate,
    _recurrence_alternating_sum,
    _recurrence_homogeneous_sum,
    _recurrence_is_cheaper,
    _ring_alternating_sum,
    _walk_alternating_sum,
    alternating_subset_det_sum,
    check_alternating_det_identity,
    det_expansion_certificate,
    find_perturbing_subset,
    generic_matrix_family,
    homogeneous_alternating_sum,
    monomial_coefficient_check,
    perturbation_identity_residual,
    simplex_centroid_check,
    superset_sign_counts,
)
from .matrices import (
    CLOSED_FORM_MAX_N,
    COMPILED_BAREISS_MAX_N,
    SquareMatrix,
    _det_berkowitz,
    batch_unit_test,
    det,
    det_rows,
    is_invertible,
    lift_family,
    mat_mul,
    minor_floor,
    random_matrix,
    subset_sum,
)
from .rings import (
    INTEGERS,
    RATIONALS,
    IntPolyRing,
    ModRing,
    PrimeField,
    ProductRing,
    Ring,
    RingElement,
    SparsePoly,
    is_probable_prime,
    random_homogeneous_poly,
    random_poly,
)
from .search import (
    SemilocalInstance,
    _batch_search,
    _unit_residues,
    embed_product_to_matrices,
    find_invertible_subsum,
    ideal_chain,
    local_counterexample_matrices,
    mixed_char_counterexample_search,
    semilocal_find_unit_subsum,
)
from .subsets import (
    SubsetMask,
    array_ops,
    first_residue_subsum,
    gray_sums,
    masks_in_search_order,
    masks_of_cardinality,
    search_order_batches,
    search_order_sums,
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
    (INTEGERS, COMPILED_BAREISS_MAX_N, None),
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
# Over Z/N and F_p, trials t with t % RING_BERKOWITZ_EVERY == 0 also run
# the ring-method Berkowitz, which det runs over Z[x...] above n = 7.
RING_BERKOWITZ_EVERY = 10


# The permutation expansion in ring methods: det-agreement's Leibniz oracle.
@functools.lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        out.append((perm, -1 if inversions & 1 else 1))
    return tuple(out)


def _det_leibniz(ring: Ring, rows: Sequence[Sequence[object]]) -> object:
    n = len(rows)
    acc = ring.zero
    is_zero, mul = ring.is_zero, ring.mul
    for perm, sign in _signed_permutations(n):
        term = None
        for i in range(n):
            e = rows[i][perm[i]]
            if is_zero(e):
                term = None
                break
            term = e if term is None else mul(term, e)
        if term is None:
            continue
        acc = ring.add(acc, term) if sign > 0 else ring.sub(acc, term)
    return acc


def _berkowitz_mod(rows: Sequence[Sequence[int]], modulus: int) -> int:
    """Berkowitz's determinant over Z/N on plain ints, each dot product
    reduced mod N: the steps of the ring-method ``_det_berkowitz``."""
    n = len(rows)

    def dot(xs, ys):
        return sum(map(operator.mul, xs, ys)) % modulus

    poly = [1, -rows[n - 1][n - 1] % modulus]
    for k in range(n - 2, -1, -1):
        head = rows[k][k + 1:]
        block = [row[k + 1:] for row in rows[k + 1:]]
        vec = [row[k] for row in rows[k + 1:]]
        toeplitz = [1, -rows[k][k] % modulus, -dot(head, vec) % modulus]
        for _ in range(n - k - 2):
            vec = [dot(row, vec) for row in block]
            toeplitz.append(-dot(head, vec) % modulus)
        poly = [dot(toeplitz[i::-1], poly) for i in range(len(poly) + 1)]
    return poly[n] if n % 2 == 0 else -poly[n] % modulus


def suite_det_agreement(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """det agrees with Berkowitz at every n, with Leibniz for n <= 6, and
    over F_p and Z/N with the determinant over Z of the lifted entries.

    For n <= 7 the lifted value runs the same compiled expansion as det
    over F_p and Z/N, so there Leibniz and Berkowitz are the independent
    oracles.  Over Z, n runs to 8, the cap of the compiled Bareiss, which
    det and the lifted value run there.  Over Z[x0, x1, x2], det runs
    the compiled expansion on the ``SparsePoly`` entries' operators, and
    the oracles their ring methods.  The 512- and 521-bit
    moduli check every route on residues far wider than a machine word.
    Over Z/2^64 a column with no odd entry has no unit, which sends
    elimination down Euclid's steps.
    Over F_p and Z/N, Berkowitz runs on plain ints (:func:`_berkowitz_mod`),
    and in ring methods every ``RING_BERKOWITZ_EVERY``-th trial."""
    for ring, max_n, modulus in _CROSS_CHECK_RINGS:
        for t in range(trials):
            n = t % max_n + 1
            rows = random_matrix(ring, n, rng).rows
            values = {"det": det_rows(ring, rows)}
            if modulus is None or t % RING_BERKOWITZ_EVERY == 0:
                values["berkowitz"] = _det_berkowitz(ring, rows)
            if modulus is not None:
                values["int berkowitz"] = _berkowitz_mod(rows, modulus)
                values["lifted"] = det_rows(INTEGERS, rows) % modulus
            if n <= LEIBNIZ_ORACLE_MAX_N:
                values["leibniz"] = _det_leibniz(ring, rows)
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


def _coprime_rational_matrix(n: int, rng: random.Random) -> SquareMatrix:
    return SquareMatrix(RATIONALS, [_coprime_rational_row(rng, n) for _ in range(n)])


# n = 1..5 at m = 1..12; n = 5 stops at m = 9, so that the walk oracle
# takes at most 512 determinants of 5x5 matrices.
_RECURRENCE_SHAPES = [(n, m) for n in range(1, 6) for m in range(1, 10 if n >= 5 else 13)]
# (ring, draw of one n x n member, most members at each n).  A Z[x] or
# fraction family takes fewer: its walk at n = 4, m = 12 took 7.7 s over
# Z[x0, x1], and its recurrence at n = 5 0.08 s a call.
_RECURRENCE_FAMILIES: Sequence[tuple[Ring, Callable[[int, random.Random], SquareMatrix], Sequence[int]]] = (
    *(
        (ring, functools.partial(random_matrix, ring), (12, 12, 12, 12, 9, 9, 9, 9))
        for ring in (INTEGERS, RATIONALS, ModRing(6), ModRing(10), ModRing(2**512 - 1), PrimeField(7),
                     _f2x3x5(), ProductRing([ModRing(4), ModRing(9)]))
    ),
    (IntPolyRing(2), functools.partial(random_matrix, IntPolyRing(2)), (12, 10, 8, 6, 6)),
    (RATIONALS, _coprime_rational_matrix, (12, 10, 8, 6, 6)),
    *((ring, functools.partial(random_matrix, ring), (9, 9, 9))
      for ring in (ProductRing([ModRing(4), ModRing(2)]), ProductRing([INTEGERS, ModRing(6)]))),
)
_RECURRENCE_NONZERO_TRIALS = 3
# (kind, n, m) of trial t: kind t % 10 at shape t // 10 for t < 570, then
# Z and Z/10 at n = 6, 7 and m = n - 1..n + 1, Z at n = m = 8, whose sum
# is nonzero, and the two products that walk tuple arrays.
_RECURRENCE_TRIALS = [
    *((kind, n, m) for (n, m), kind in itertools.product(_RECURRENCE_SHAPES, range(10))),
    *((kind, n, m) for kind in (0, 3) for n in (6, 7) for m in (n - 1, n, n + 1)), (0, 8, 8),
    *((kind, n, m) for kind in (10, 11) for n, m in ((1, 1), (2, 2), (3, 3), (1, 2), (3, 6), (2, 9))),
]


def suite_alt_sum_recurrence(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The member-by-member alternating sum agrees with the Gray walk of
    all 2^m subsets.

    Trial t draws the kind of ``_RECURRENCE_FAMILIES`` and the (n, m) of
    ``_RECURRENCE_TRIALS`` at t mod 595, unless m passes the kind's cap
    at n, so the default 595 trials draw each (kind, n, m) within its cap
    once.  Only kinds 10 and 11, products, walk tuple arrays, and are
    summed per component: Q with small denominators lifts to ints,
    F2xF3xF5 and Z/4xZ/9 by the CRT as Z/30 and Z/36, Z/(2^512-1) as int
    arrays at n >= 2, Z[x0, x1] as arrays of ``SparsePoly`` entries, and
    Q with one 64-bit prime denominator per row goes past its lift gate
    at n * n * (m - 1) > 64, where it walks as fractions, and must do so
    in some trial.  A kind that draws m <= n at least
    ``_RECURRENCE_NONZERO_TRIALS`` times must show a nonzero sum in one.
    """
    small, nonzero, unlifted = [0] * len(_RECURRENCE_FAMILIES), [False] * len(_RECURRENCE_FAMILIES), False
    for t in range(trials):
        kind, n, m = _RECURRENCE_TRIALS[t % len(_RECURRENCE_TRIALS)]
        ring, draw, max_m = _RECURRENCE_FAMILIES[kind]
        if m > max_m[n - 1]:
            continue
        fam = [draw(n, rng) for _ in range(m)]
        lift = lift_family(ring, [a.rows for a in fam], m)
        split = isinstance(lift.ring, ProductRing)
        if split != (kind >= 10):
            rec.check(False, lambda: f"{ring!r} walks {lift.ring!r} (n={n})")
            continue
        unlifted = unlifted or draw is _coprime_rational_matrix and lift.ring == RATIONALS
        value = alternating_subset_det_sum(fam).value if split else _recurrence_alternating_sum(lift, n)
        walk = _walk_alternating_sum(lift)
        if m <= n:
            small[kind] += 1
            nonzero[kind] = nonzero[kind] or not lift.det_ring.is_zero(walk)
        rec.check(
            value == walk,
            lambda: f"recurrence {value!r} != walk {walk!r} over {ring!r} (n={n}, m={m})",
        )
    for (ring, *_), count, seen in zip(_RECURRENCE_FAMILIES, small, nonzero):
        if count >= _RECURRENCE_NONZERO_TRIALS:
            rec.check(seen, lambda: f"no nonzero alternating sum compared over {ring!r}")
    if trials >= 10 * len(_RECURRENCE_SHAPES):
        rec.check(unlifted, "no Q family past its lift gate compared")


def _lifted_rows(ring: Ring, members: Sequence, lift) -> Callable[[object], tuple]:
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

    def rows_of(value):
        cells = lift.cells(value)
        return tuple(tuple(entry(i, c) for c in cells[i * n:(i + 1) * n]) for i in range(n))

    return rows_of


def suite_subset_walks(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Both subset walks agree with ``subset_sum``, walking flat arrays over
    the ring and, where the family lifts to ints, the lifted values (packed
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
            flat = [[e for row in a for e in row] for a in members]
            as_rows = lambda cells: tuple(tuple(cells[k:k + n]) for k in range(0, n * n, n))
            walks = [("arrays", flat, *array_ops(ring.add, ring.sub), as_rows)]
            lift = lift_family(ring, members, m)
            if lift.ring == INTEGERS:
                rows_of = _lifted_rows(ring, members, lift)
                walks.append((f"width {lift.width}", lift.members, lift.add, lift.sub, rows_of))
            for label, walked, add, sub, rows_of in walks:
                for bound in range(m, 0, -1):
                    got = list(search_order_sums(walked, add, bound))
                    if bound == m:
                        full = got
                        ok = [(bits, rows_of(value)) for bits, value in got] == [
                            (bits, oracle[bits]) for bits in masks_in_search_order(m)
                        ]
                    else:  # the walk at a lower bound is a prefix of the full one
                        ok = got == full[: sum(math.comb(m, k) for k in range(1, bound + 1))]
                    rec.check(
                        ok,
                        lambda: f"search-order walk on {label} differs over {ring!r} "
                        f"(n={n}, m={m}, bound={bound})",
                    )
                got = [(bits, rows_of(value)) for bits, value in gray_sums(walked, add, sub)]
                expected = [(k ^ (k >> 1), oracle[k ^ (k >> 1)]) for k in range(1, 1 << m)]
                rec.check(
                    got == expected,
                    lambda: f"Gray walk on {label} differs over {ring!r} (n={n}, m={m})",
                )


def superset_sign_sums(m: int, size: int) -> dict[int, int]:
    """Map each mask T with 1 <= |T| <= size to its nonzero c(T), by walking.

    The oracle for :func:`detsum.identities.superset_sign_counts`: c(T) is
    the sum of (-1)^|S| over the supersets S of T; ``size`` must be at
    least 1.  One Gray walk visits all 2^m subsets of ``{0..m-1}`` and
    keeps the signed count of those visited so far.  A T records that
    count when it joins the current set, and adds the count's growth to
    c(T) when it leaves; T's still open at the end are closed there.  A
    step that toggles index i opens or closes T' | {i} for each subset T'
    of the rest of the current set with |T'| < size.
    """
    sums: dict[int, int] = {}
    opened: dict[int, int] = {}
    get, pop = sums.get, opened.pop
    subs = [0]  # masks of the current set's subsets with fewer than size members
    below = size - 1  # 0 keeps subs at [0], so size 1 skips both list rebuilds
    count, sign = 1, -1  # the empty set is visited first; sizes alternate in parity
    gray = 0
    for k in range(1, 1 << m):
        bit = k & -k
        gray ^= bit
        if gray & bit:
            for t in subs:
                opened[t | bit] = count
            if below:
                subs += [t | bit for t in subs if t.bit_count() < below]
        else:
            if below:
                subs = [t for t in subs if not t & bit]
            for t in subs:
                t |= bit
                sums[t] = get(t, 0) + count - pop(t)
        count += sign
        sign = -sign
    for t, start in opened.items():
        sums[t] = get(t, 0) + count - start
    return {t: c for t, c in sums.items() if c}


def suite_superset_sign_sums(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The counted c(T) of ``superset_sign_counts`` equal the Gray walk's,
    and every c(T) with 1 <= |T| <= size, present or absent, matches a
    direct count over the supersets of T, and ``monomial_coefficient_check``
    when m > |T|; m <= 12 and size <= 4 are drawn at random."""
    for _ in range(trials):
        m = rng.randint(1, 12)
        size = rng.randint(1, 4)
        sums = superset_sign_counts(m, size)
        rec.check(
            sums == superset_sign_sums(m, size),
            lambda: f"counted superset sign sums differ from the walk's (m={m}, size={size})",
        )
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


def zx_alternating_det_sum(m: int, n: int) -> RingElement:
    """The alternating subset det sum of m generic n x n matrices,
    expanded as one polynomial over Z[x]: the oracle for the counts that
    :func:`detsum.identities.check_alternating_det_identity` decides by.
    """
    return alternating_subset_det_sum(generic_matrix_family(m, n))


@functools.lru_cache(maxsize=None)  # one entry per shape within DET_IDENTITY_CAPS
def _generic_subset_dets(m: int, n: int) -> tuple[Ring, dict[int, object]]:
    # The det ring of the Z[x] lift of m generic n x n matrices, and
    # det(A_S) in it for every nonempty S, keyed by mask.
    mats = generic_matrix_family(m, n)
    lift = lift_family(mats[0].ring, [a.rows for a in mats], m)
    return lift.det_ring, {
        bits: lift.det(value) for bits, value in search_order_sums(lift.members, lift.add, m)
    }


def zx_certificate_holds(m: int, n: int, certificate: Sequence[tuple[SubsetMask, int]]) -> bool:
    """Whether det(A_1 + ... + A_m) = sum c_S * det(A_S) over the listed
    (S, c_S), expanded over Z[x] on m generic n x n matrices: the oracle
    for the counts check of
    :func:`detsum.identities.det_expansion_certificate`.  A mask that
    names no nonempty subset of the m members fails it.
    """
    ring, dets = _generic_subset_dets(m, n)
    rhs = ring.zero
    for mask, c in certificate:
        if mask.m != m or mask.bits not in dets:
            return False
        rhs = ring.add(rhs, ring.mul(ring.from_int(c), dets[mask.bits]))
    return dets[(1 << m) - 1] == rhs


def _certificate_passes(m: int, n: int, certificate: Sequence[tuple[SubsetMask, int]]) -> bool:
    try:
        _check_certificate(m, n, certificate)
    except ContractViolation:
        return False
    return True


def _tampered_certificates(rng: random.Random, certificate: list) -> list[tuple[str, list]]:
    """The certificate spoiled four ways, each a list that the expansion
    fails on: one coefficient off by one, one mask dropped, two
    coefficients of one cardinality moved apart, and every coefficient of
    one cardinality moved."""
    sizes = [mask.cardinality() for mask, _ in certificate]
    k = rng.choice(sizes)
    same = [x for x, size in enumerate(sizes) if size == k]
    i, j = rng.sample(same, 2)
    d = rng.choice((-2, -1, 1, 2))
    drop = rng.randrange(len(certificate))

    def moved(deltas: dict[int, int]) -> list:
        return [(mask, c + deltas.get(x, 0)) for x, (mask, c) in enumerate(certificate)]

    return [
        ("one coefficient off by one", moved({rng.randrange(len(certificate)): rng.choice((-1, 1))})),
        ("one mask dropped", certificate[:drop] + certificate[drop + 1:]),
        (f"two {k}-set coefficients apart", moved({i: d, j: -d})),
        (f"every {k}-set coefficient moved by {d}", moved(dict.fromkeys(same, d))),
    ]


_CERTIFICATE_RINGS: Sequence[Ring] = (INTEGERS, ModRing(10), PrimeField(7), RATIONALS, _f2x3x5())


def suite_det_identity_counts(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """``verify-lemma2`` and ``certificate`` decide by the superset counts;
    at every shape within ``DET_IDENTITY_CAPS`` they agree with the Z[x]
    expansion on generic matrices.

    Per shape, the counts' report carries the Z[x] residual and the
    returned certificate passes the Z[x] check.  Each trial spoils the
    certificate four ways, which the counts check and the Z[x] check
    must both refuse, and specialises it to a random family over one of
    Z, Z/10, F_7, Q and F2xF3xF5, where det(total) = sum c_S det(A_S).
    """
    max_n, max_m = DET_IDENTITY_CAPS
    for n in range(1, max_n + 1):
        for m in range(n + 1, max_m + 1):
            where = f"(m={m}, n={n})"
            try:
                report = check_alternating_det_identity(m, n)
                certificate = det_expansion_certificate(m, n)
            except ContractViolation as exc:
                rec.check(False, str(exc))
                continue
            oracle = zx_alternating_det_sum(m, n)
            rec.check(
                report.holds == oracle.is_zero() and report.residual == oracle
                and jsonio.element_to_json(report.residual) == jsonio.element_to_json(oracle),
                lambda: f"counted residual differs from the Z[x] expansion {where}",
            )
            rec.check(zx_certificate_holds(m, n, certificate),
                      lambda: f"certificate fails the Z[x] expansion {where}")
            full = SubsetMask.full(m)
            for _ in range(trials):
                for label, spoiled in _tampered_certificates(rng, certificate):
                    counted = _certificate_passes(m, n, spoiled)
                    rec.check(counted == zx_certificate_holds(m, n, spoiled),
                              lambda: f"counts {'accept' if counted else 'refuse'} a certificate "
                              f"with {label} against the Z[x] expansion {where}")
                ring = rng.choice(_CERTIFICATE_RINGS)
                fam = [random_matrix(ring, n, rng) for _ in range(m)]
                lhs = det(subset_sum(fam, full))
                rhs = sum(c * det(subset_sum(fam, mask)) for mask, c in certificate)
                rec.check(lhs == rhs, lambda: f"certificate fails on a family over {ring!r} {where}")


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


# The rings of the homogeneous-lift-agreement suite, one per kind of ring.
_HOMOGENEOUS_LIFT_RINGS: Sequence[Ring] = (
    INTEGERS,
    ModRing(6),
    PrimeField(7),
    RATIONALS,
    ModRing(2**512 - 1),
    _f2x3x5(),
    ProductRing([ModRing(4), ModRing(6)]),
    IntPolyRing(2),
)
_COPRIME_DENOMINATORS = tuple(p for p in range(11, 400) if is_probable_prime(p))
_NONZERO_TRIALS = 8


def suite_homogeneous_lift_agreement(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The member-by-member homogeneous sum (over a product, which it takes
    per component, the public sum) and the public sum that its cost guard
    routes agree with the Gray walk of ``eval_raw`` values.

    Trial t draws over ring t % 8 of ``_HOMOGENEOUS_LIFT_RINGS`` a
    homogeneous f of 1-6 variables and 1-5 terms, and m vectors; by
    t // 8 % 3, m <= d (1 <= d <= 3), where the sum need not vanish,
    m in {d + 1, d + 2} or m = 6..9 (0 <= d <= 3).  A ring given at least
    ``_NONZERO_TRIALS`` trials with m <= d must show a nonzero sum in
    one, and a run of 24 trials or more must route to each side.
    """
    rings = _HOMOGENEOUS_LIFT_RINGS
    small = [0] * len(rings)
    nonzero = [False] * len(rings)
    sides = [0, 0]
    for t in range(trials):
        slot = t % len(rings)
        ring = rings[slot]
        nvars = rng.randint(1, 6)
        kind = t // len(rings) % 3
        if kind == 0:
            degree = rng.randint(1, 3)
            m = rng.randint(1, degree)
            small[slot] += 1
        else:
            degree = rng.randint(0, 3)
            m = degree + rng.randint(1, 2) if kind == 1 else rng.randint(6, 9)
        f = random_homogeneous_poly(nvars, degree, rng, max_terms=5)
        if ring == RATIONALS:  # pairwise coprime denominators, so D^d is large
            coords = [Fraction(rng.randint(-9, 9), p) for p in rng.sample(_COPRIME_DENOMINATORS, m * nvars)]
        else:
            coords = [ring.random(rng) for _ in range(m * nvars)]
        raw = [coords[i:i + nvars] for i in range(0, m * nvars, nvars)]
        vectors = [[RingElement(ring, x, _normalized=True) for x in vec] for vec in raw]
        expected = _ring_alternating_sum(f, ring, raw)
        public = homogeneous_alternating_sum(f, vectors).value
        value = public if isinstance(ring, ProductRing) else _recurrence_homogeneous_sum(f, ring, raw)
        sides[_recurrence_is_cheaper(f, degree, m)] += 1
        nonzero[slot] = nonzero[slot] or not ring.is_zero(expected)
        rec.check(
            value == expected == public,
            lambda: f"homogeneous sum: recurrence {value!r}, public {public!r}, walk {expected!r} "
            f"(deg={degree}, m={m}, vars={nvars}, ring={ring!r})",
        )
    for slot, ring in enumerate(rings):
        if small[slot] >= _NONZERO_TRIALS:
            rec.check(nonzero[slot], lambda: f"no nonzero sum compared over {ring!r}")
    if trials >= 3 * len(rings):
        rec.check(all(sides), lambda: f"the cost guard picked one side only: {sides}")


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


_TABLE_PRIMES = (2, 3, 5, 7, 11, 13)
# The most subsets that one trial's batch walk may test, and the largest m
# under it per bound: 40 at bounds 1-3, then 23, 17 and 15.
_TABLE_WALK_CAP = 12_000
_TABLE_MAX_M = {b: max(m for m in range(b, 41) if sum(math.comb(m, k) for k in range(1, b + 1)) <= _TABLE_WALK_CAP)
                for b in range(1, 7)}


def _planted_family(rng: random.Random, moduli: Sequence[int], m: int, kind: str, k: int) -> list[list[int]]:
    """The coordinates of m members over Z/q_1 x ... x Z/q_r, each q_c a
    prime power, with a witness of k <= min(r, m) members planted.

    A coordinate is *covered* when it is a unit mod q_c.  ``random``
    members are random; ``non-units`` members each leave a random
    coordinate uncovered, so that the least witness, if any, often has
    three or more members; ``shared-zero`` members leave one coordinate
    uncovered, so no sum is a unit.  ``planted`` and ``late`` members
    cover coordinates of one block each of a partition of the
    coordinates into k blocks, and are multiples of the prime elsewhere,
    so that no sum of fewer than k members is a unit, while k of them
    cover one block each in full; with ``late`` only member m - 1 covers
    the last block, so every witness holds it.
    """

    def draw(c, covered):
        q, p = moduli[c], next(p for p in _TABLE_PRIMES if moduli[c] % p == 0)
        return rng.choice([x for x in range(1, q) if x % p]) if covered else p * rng.randrange(q // p)

    r = len(moduli)
    if kind == "random":
        return [[rng.randrange(q) for q in moduli] for _ in range(m)]
    if kind in ("non-units", "shared-zero"):
        shared = rng.randrange(r)
        dead = [rng.randrange(r) if kind == "non-units" else shared for _ in range(m)]
        return [[draw(c, c != dead[i] and rng.random() < 0.8) for c in range(r)] for i in range(m)]
    order = rng.sample(range(r), r)
    cuts = sorted(rng.sample(range(1, r), k - 1))
    blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, r])]
    last = k - 1 if kind == "late" else k  # the blocks that any member may cover
    family = []
    for _ in range(m):
        block = blocks[rng.randrange(last)] if last else ()
        family.append([draw(c, c in block and rng.random() < 0.8) for c in range(r)])
    spots = rng.sample(range(m - 1) if kind == "late" else range(m), k - 1 if kind == "late" else k)
    if kind == "late":
        spots.append(m - 1)
    for spot, block in zip(spots, blocks):
        family[spot] = [draw(c, c in block) for c in range(r)]
    return family


def suite_unit_subsum_table(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The table of distinct sums, :func:`~detsum.subsets.first_residue_subsum`,
    agrees with the batch walk forced on the same 1x1 lift, and so does
    ``find_invertible_subsum``, whichever engine its modulus takes.

    Trial t draws bound 1..6 and m <= 40 (fewer at bounds past 3, so
    that the walk tests at most 12,000 sums), a family of kind t // 2 %
    5 (:func:`_planted_family`), with k in 1..bound + 1 planted, and r
    <= 6 coordinates, k or more, each a distinct prime of 2..13, over
    Z/N (2 and 3 squared on odd trials, up to N = 180,180) or as a
    product of prime fields.  The table also finds the first sum of
    the first 8 members in a random set of up to 8 residues, as a brute
    force over the masks does.  Checked besides: a
    planted witness has exactly k members, or there is none when k >
    bound, a late one holds member m - 1, and a shared zero gives None;
    and over the suite a witness of every size 1..6, a late witness and
    a None.
    """
    seen = set()
    for t in range(trials):
        kind = ("random", "planted", "late", "shared-zero", "non-units")[t // 2 % 5]
        bound = rng.randint(1, 6)
        m = rng.randint(bound, _TABLE_MAX_M[bound])
        k = rng.randint(1, min(bound + 1, m, 6)) if kind in ("planted", "late") else 0
        primes = rng.sample(_TABLE_PRIMES, rng.randint(max(k, 1), 6))
        moduli = [p * p if t & 1 and p < 5 else p for p in primes]
        family = _planted_family(rng, moduli, m, kind, k)
        if t & 1:
            modulus = math.prod(moduli)
            ring = ModRing(modulus)
            basis = [(modulus // q) * pow(modulus // q, -1, q) for q in moduli]
            matrices = [SquareMatrix(ring, [[sum(map(operator.mul, x, basis)) % modulus]]) for x in family]
        else:
            ring = ProductRing([PrimeField(p) for p in moduli])
            matrices = [SquareMatrix(ring, [[tuple(x)]]) for x in family]
        lift = lift_family(ring, [a.rows for a in matrices], bound)
        residues = lift.det_ring
        table = first_residue_subsum(lift.members, residues.n, _unit_residues(residues), bound)
        walk = _batch_search(lift, 1, bound)
        picked = find_invertible_subsum(matrices, bound)
        where = f"{kind} family over {ring!r} (m={m}, bound={bound}, k={k})"
        rec.check(table == walk, lambda: f"table {table} != walk {walk} on a {where}")
        rec.check((picked.bits if picked else None) == walk, lambda: f"search {picked} != walk {walk} on a {where}")
        if kind == "shared-zero":
            ok = walk is None
        elif kind in ("planted", "late"):
            ok = walk is None if k > bound else walk.bit_count() == k and (kind != "late" or walk >> (m - 1))
        else:
            ok = True
        rec.check(ok, lambda: f"witness {walk} on a {where}")
        seen.add(0 if walk is None else walk.bit_count())
        if kind == "late" and walk is not None:
            seen.add("late")
        # Any target set, not only the units, against every sum of the first few members.
        head, modulus = lift.members[:8], residues.n
        targets = sum(1 << r for r in rng.sample(range(modulus), min(modulus, rng.randint(1, 8))))
        brute = next((bits for bits in masks_in_search_order(len(head), bound)
                      if targets >> sum(head[i] for i in SubsetMask(bits, len(head))) % modulus & 1), None)
        got = first_residue_subsum(head, modulus, targets, bound)
        rec.check(got == brute, lambda: f"table {got} != brute force {brute} for targets {targets:#x} on a {where}")
    if trials >= 400:
        for size in (*range(7), "late"):
            rec.check(size in seen, lambda: f"no witness of size {size} (0: None) in {trials} trials")


_MINER_PRIMES = (2, 3, 5, 7)


def _brute_force_families(primes: Sequence[int], m: int, bound: int) -> list[tuple[tuple[int, ...], ...]]:
    # Every m-multiset of the non-units, in combinations_with_replacement
    # order, whose total is a unit and no sum of at most bound of its
    # members is; a sum is a unit when no coordinate is 0 mod its prime.
    def unit(members):
        return all(sum(x[c] for x in members) % p for c, p in enumerate(primes))

    pool = [x for x in itertools.product(*map(range, primes)) if not unit([x])]
    return [
        family
        for family in itertools.combinations_with_replacement(pool, m)
        if unit(family)
        and not any(unit([family[i] for i in SubsetMask(bits, m)]) for bits in masks_in_search_order(m, bound))
    ]


def suite_miner_brute_force(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """``mixed_char_counterexample_search`` lists the families of a
    brute force over every multiset and every subset sum, in order.

    Trial t draws 1..3 fields of 2, 3, 5 and 7, mostly 3, with a prime
    repeated on odd trials (2,2,3 say), and m <= 4 with at most 3,000
    multisets, the most such m when t // 3 is even; the bound is 1 when
    t % 3 == 0, m + 1 (past m) when t % 3 == 1, and random in 1..m
    otherwise.
    """
    for t in range(trials):
        primes = sorted(rng.choices(_MINER_PRIMES, k=rng.choice((1, 2, 3, 3, 3))))
        if t & 1 and len(primes) > 1:
            primes[1] = primes[0]
        pool = math.prod(primes) - math.prod(p - 1 for p in primes)
        sizes = [m for m in range(1, 5) if math.comb(pool + m - 1, m) <= 3_000]
        m = sizes[-1] if t // 3 % 2 == 0 else rng.choice(sizes)
        bound = (1, m + 1, rng.randint(1, m))[t % 3]
        got = [inst.raw_elements() for inst in mixed_char_counterexample_search([PrimeField(p) for p in primes], m, bound)]
        want = _brute_force_families(primes, m, bound)
        rec.check(got == want, lambda: f"miner over {primes} (m={m}, bound={bound}): {len(got)} families, brute force {len(want)}")


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
    """Berkowitz in the ring; per component over a product; over Q on
    integer rows, divided once.

    A product's rows are split into one matrix per component, each
    taking its own oracle.  Each row of a Q matrix is scaled by the lcm
    of its own denominators, so Berkowitz runs over Z, and the result is
    divided by the product of those lcms.  This is independent of the
    lift's CRT map and family-wide row scaling, and of the Bareiss,
    elimination and closed-form routes.
    """
    if isinstance(ring, ProductRing):
        parts = zip(*[zip(*row) for row in rows])  # component c's rows, for each c
        return tuple(_oracle_det(comp, part) for comp, part in zip(ring.components, parts))
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
    against ``subset_sum``, its determinant checked against
    :func:`_oracle_det`, and ``lift.is_unit`` against the ring's unit
    test of the finished determinant.
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
                    rows = subset_sum(fam, SubsetMask(bits, m)).rows
                    d = lift.det(value)
                    ok = ok and rows_of(value) == rows
                    ok = ok and lift.finish(d) == _oracle_det(ring, rows)
                    ok = ok and lift.is_unit(d) == ring.is_unit(lift.finish(d))
                rec.check(ok, where("walked sums, determinants or unit tests differ"))


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
    determinant by Berkowitz in the ring (per component over a product,
    and over Q on the sum's rows scaled by their own lcms, see
    :func:`_oracle_det`).  Checked: the alternating sum
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

        try:
            chain = ideal_chain(fam[:m]).generators
        except UnsupportedRing:
            chain = None
        if chain is not None:
            modulus = ring.n if isinstance(ring, ModRing) else 0
            gens, g = [0], 0
            for k in range(1, m + 1):
                for bits in masks_of_cardinality(m, k):
                    g = math.gcd(g, dets[bits])
                gens.append(math.gcd(g, modulus) if modulus else g)
            rec.check(chain == tuple(gens), where("ideal chain"))

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


def _sparse_entry(rng: random.Random) -> int:
    # Mostly 0 and +-1, so that some sums over Z have a unit determinant.
    return rng.choice((-1, 0, 0, 0, 1, 2))


# (ring, draw of one row of n entries) of every lift kind, each walk
# width of a residue lift among them: Z/6 in 8-bit slots, Z/1000 in 16,
# Z/10^6 in 32, Z/10^12 in 64, Z/(2^512-1) and F_(2^521-1) as arrays.
_FIRST_UNIT_RINGS: Sequence[tuple[Ring, Callable[[random.Random, int], list]]] = (
    (INTEGERS, lambda rng, n: [_sparse_entry(rng) for _ in range(n)]),
    (RATIONALS, lambda rng, n: [Fraction(_sparse_entry(rng), rng.choice((1, 2, 3))) for _ in range(n)]),
    (RATIONALS, _coprime_rational_row),
    *(
        (ring, lambda rng, n, ring=ring: [ring.random(rng) for _ in range(n)])
        for ring in (ModRing(6), ModRing(1000), ModRing(10**6), ModRing(10**12), ModRing(_BIG_MODULUS),
                     PrimeField(7), PrimeField(101), PrimeField(_BIG_PRIME),
                     _F2_F3_F5, ProductRing([ModRing(4), ModRing(9)]), ProductRing([ModRing(6), PrimeField(3)]))
    ),
    (IntPolyRing(2), lambda rng, n: [IntPolyRing(2).from_int(_sparse_entry(rng)) if rng.random() < 0.8
                                     else random_poly(2, rng, max_terms=2, max_exponent=1) for _ in range(n)]),
)
FIRST_UNIT_MAX_N = 8
FIRST_UNIT_MAX_M = 10


def suite_first_unit_agreement(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The search's batch test, :func:`~detsum.matrices.batch_unit_test`,
    agrees with the first t for which
    ``is_unit(det(add(partial, values[t])))``, and the batches of
    ``search_order_batches``, flattened, with brute-force masks and sums.

    Trial t takes lift kind t % 15 and n = t // 15 % 8 + 1, so the
    default 120 trials draw every (kind, n) cell; the kinds are Z, Q lifted
    and unlifted, Z/N at each slot width and as arrays, F_7, F_101 and
    F_(2^521-1), the CRT products F2xF3xF5 and Z/4xZ/9, the array
    product Z/6xF3, and Z[x, y].  Each trial lifts m <= 10 members and
    tests them, shuffled, onto partials of None, one member and the sum
    of two.  Checked too: the compiled loop runs exactly for the residue
    lifts of packed or 1x1 values at n <= 7, and over the suite both
    loops return a hit past index 0 and a miss.
    """
    outcomes = set()
    for t in range(trials):
        ring, draw = _FIRST_UNIT_RINGS[t % len(_FIRST_UNIT_RINGS)]
        n = t // len(_FIRST_UNIT_RINGS) % FIRST_UNIT_MAX_N + 1
        # Z[x] determinants at n >= 6 are slow (Berkowitz past n = 7): three members keep them short.
        m = rng.randint(2, FIRST_UNIT_MAX_M if n < 6 or ring.kind != "int_poly" else 3)
        lift = lift_family(ring, [[draw(rng, n) for _ in range(n)] for _ in range(m)], m)
        members, add, det, is_unit = lift.members, lift.add, lift.det, lift.is_unit
        first_unit = batch_unit_test(lift, n)
        compiled = first_unit.__name__ == "laplace_first_unit"
        residue = isinstance(lift.det_ring, ModRing) and lift.width is not None and n <= CLOSED_FORM_MAX_N
        rec.check(
            compiled == residue,
            lambda: f"{'compiled' if compiled else 'generic'} first_unit over {ring!r} (n={n}, width {lift.width})",
        )
        for partial in (None, members[0], add(members[0], members[1])):
            values = rng.sample(members, len(members))
            want = next((j for j, v in enumerate(values) if is_unit(det(v if partial is None else add(partial, v)))), -1)
            got = first_unit(partial, values)
            outcomes.add((compiled, 1 if want > 0 else want))
            rec.check(got == want, lambda: f"first_unit {got} != {want} over {ring!r} (n={n}, m={m})")
        bound = rng.randint(1, m)
        flat = [
            (high | bits[j], values[j] if partial is None else add(partial, values[j]))
            for high, partial, bits, values, count in search_order_batches(members, add, bound)
            for j in range(count)
        ]
        brute = [
            (bits, functools.reduce(add, (members[i] for i in SubsetMask(bits, m))))
            for bits in masks_in_search_order(m, bound)
        ]
        rec.check(flat == brute, lambda: f"search-order batches over {ring!r} (n={n}, m={m}, bound={bound})")
    if trials >= len(_FIRST_UNIT_RINGS) * FIRST_UNIT_MAX_N:
        for outcome in itertools.product((True, False), (-1, 1)):
            rec.check(outcome in outcomes, lambda: f"no first_unit outcome {outcome} (compiled, hit) seen")


# Most members per n of a poly-lift-agreement family: the oracle takes a
# ring-method Berkowitz on each of the 2^m - 1 subset sums.
_POLY_LIFT_MAX_M = (6, 5, 4, 4, 3, 2, 2)
# (n, E) of the edge kind, whose one-member determinants reach x_0^(n*E),
# n * E from 7 to 16.
_POLY_SLOT_EDGES = ((1, 7), (3, 5), (5, 3), (7, 1), (1, 8), (2, 4), (4, 4), (2, 8))


def _poly_lift_family(rng: random.Random, kind: str, n: int, top: int):
    """(ring, m members) of one poly-lift-agreement trial.

    ``small``: Z[x0, x1]; ``wide``: three variables of 2000; ``units``:
    entries mostly -1, 0 or 1, so that some sums are invertible; ``edge``:
    every diagonal entry holds x_0^top and no other entry reaches it, so
    the determinant of each one-member sum has the monomial x_0^(n*top).
    Entries are zero with probability 0.2 (0.5 at n >= 5, and off the
    diagonal of an edge family), and coefficients lie in [-4, 4].
    """
    if kind == "wide":
        ring = IntPolyRing(2000)
        variables = [0, *rng.sample(range(1, 2000), 2)]
    else:
        ring = IntPolyRing(2)
        variables = [0, 1]
    sparse = 0.5 if n >= 5 or kind == "edge" else 0.2

    def monomial(e0):
        exps = [0] * ring.var_count
        exps[variables[0]] = e0
        for v in variables[1:]:
            exps[v] = rng.randint(0, top)
        return tuple(exps)

    def entry(i, j):
        if kind == "units" and rng.random() < 0.8:
            return ring.from_int(rng.choice((-1, 0, 1)))
        poly = {}
        if kind == "edge" and i == j:
            poly[monomial(top)] = rng.choice((-3, -1, 1, 2))
        elif rng.random() < sparse:
            return ring.zero
        cap = top - 1 if kind == "edge" else top
        for _ in range(rng.randint(1, 2)):
            poly[monomial(rng.randint(0, cap))] = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        return SparsePoly(ring.var_count, poly)

    m = rng.randint(1, 3 if kind == "wide" else _POLY_LIFT_MAX_M[n - 1])
    return ring, [SquareMatrix(ring, [[entry(i, j) for j in range(n)] for i in range(n)]) for _ in range(m)]


def suite_poly_lift_agreement(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The Z[x...] lift agrees with ``SparsePoly`` ring arithmetic.

    Trial t takes kind t % 4 of :func:`_poly_lift_family` and n = t // 4
    % 7 + 1, so n runs to ``CLOSED_FORM_MAX_N``, the last size of the
    compiled expansion on ``SparsePoly`` operators.  The wide kind, whose
    oracle hashes exponent tuples of 2000 entries, keeps n <= 3 and
    m <= 3; the edge kind takes its (n, E) from ``_POLY_SLOT_EDGES``, each
    once in the default 32 trials.  Checked against ``subset_sum`` and
    the ring-method Berkowitz: each entry, determinant and unit test of
    every sum of the search-order walk, the determinant of the full sum
    by ``det_rows``, the alternating sum and the first invertible subset
    sum at a random bound.
    """
    kinds = ("small", "wide", "units", "edge")
    for t in range(trials):
        kind = kinds[t % 4]
        if kind == "edge":
            n, top = _POLY_SLOT_EDGES[t // 4 % len(_POLY_SLOT_EDGES)]
        else:
            n, top = t // 4 % (3 if kind == "wide" else 7) + 1, 2
        ring, fam = _poly_lift_family(rng, kind, n, top)
        m = len(fam)

        def where(what):
            return lambda: f"{what} differs from SparsePoly arithmetic ({kind}, n={n}, m={m})"

        lift = lift_family(ring, [a.rows for a in fam], m)
        dets = {}
        ok = True
        for bits, value in search_order_sums(lift.members, lift.add, m):
            rows = subset_sum(fam, SubsetMask(bits, m)).rows
            dets[bits] = _det_berkowitz(ring, rows)
            d = lift.det(value)
            ok = ok and tuple(map(lift.finish, lift.cells(value))) == tuple(e for row in rows for e in row)
            ok = ok and lift.finish(d) == dets[bits]
            ok = ok and lift.is_unit(d) == ring.is_unit(lift.finish(d))
        rec.check(ok, where("walked sums, determinants or unit tests"))
        full = (1 << m) - 1
        rows = subset_sum(fam, SubsetMask(full, m)).rows
        rec.check(det_rows(ring, rows) == dets[full], where("det_rows"))

        alt = ring.zero
        for bits, d in dets.items():
            alt = (ring.sub if bits.bit_count() & 1 else ring.add)(alt, d)
        rec.check(alternating_subset_det_sum(fam).value == alt, where("alternating sum"))

        bound = rng.randint(1, m)
        first_unit = next(
            (bits for bits in masks_in_search_order(m, bound) if ring.is_unit(dets[bits])), None
        )
        witness = find_invertible_subsum(fam, bound)
        rec.check(
            (witness.bits if witness else None) == first_unit,
            where(f"invertible-subsum witness at bound {bound}"),
        )


IDEAL_CHAIN_ORACLE_MAX_N = 4
IDEAL_CHAIN_ORACLE_MAX_M = 10
_IDEAL_CHAIN_RINGS: Sequence[Ring] = (INTEGERS, ModRing(12), ModRing(36), ModRing(2**64))


def _rank_deficient_family(ring: Ring, n: int, m: int, rng: random.Random) -> list[SquareMatrix]:
    # Every member's last column is the same combination of its others, so
    # every subset sum is singular.
    weights = [rng.randrange(-3, 4) for _ in range(n - 1)]
    fam = []
    for _ in range(m):
        rows = [[ring.random(rng) for _ in range(n - 1)] for _ in range(n)]
        fam.append(SquareMatrix(ring, [
            row + [ring.normalize(sum(a * w for a, w in zip(row, weights)))] for row in rows
        ]))
    return fam


def _rank_one_matrix(ring: Ring, n: int, rng: random.Random) -> SquareMatrix:
    # u v^T: a sum of fewer than n of them is singular, so below n the
    # chain holds only 0 (N over Z/N), and a truncation short of n shows.
    u = [ring.random(rng) for _ in range(n)]
    v = [ring.random(rng) for _ in range(n)]
    return SquareMatrix(ring, [[ring.normalize(a * b) for b in v] for a in u])


def suite_ideal_chain_truncation(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """The ideal chain, walked over the subsets of at most n members,
    equals the gcd chain of all 2^m subset-sum determinants.

    Trial t takes one of five kinds of family by t % 5: m from n + 1 to
    10 random members; m from n + 1 to 10 rank-one members, whose chain
    is 0 below n; m from 1 to 10 members whose last columns are one
    fixed combination of their others, so that every generator is 0 over
    Z (N over Z/N); m from 1 to n random members; and m from 2 to 10
    random members times d = 2 or 3, whose floor (the ideal of maximal
    minors of both stacks, :func:`~detsum.matrices.minor_floor`) is
    planted in (d^n).  It takes ring t // 5 % 4 of Z, Z/12, Z/36 and
    Z/2^64, and n = t // 20 % 4 + 1, so the default 80 trials draw
    every (kind, ring, n) cell.  The oracle sums every subset with
    ``subset_sum``, takes its determinant with :func:`_oracle_det`, and
    keeps one gcd per cardinality.  Over the default trials the chain
    must also end at a floor above 1 after level 1 has ended above it,
    the stop that the floor makes, and at 1 after level 1, the unit
    stop.
    """
    stops = set()
    for t in range(trials):
        kind = t % 5
        ring = _IDEAL_CHAIN_RINGS[t // 5 % len(_IDEAL_CHAIN_RINGS)]
        n = t // 20 % IDEAL_CHAIN_ORACLE_MAX_N + 1
        if kind == 0:
            m = rng.randint(n + 1, IDEAL_CHAIN_ORACLE_MAX_M)
            fam = [random_matrix(ring, n, rng) for _ in range(m)]
        elif kind == 1:
            m = rng.randint(n + 1, IDEAL_CHAIN_ORACLE_MAX_M)
            fam = [_rank_one_matrix(ring, n, rng) for _ in range(m)]
        elif kind == 2:
            m = rng.randint(1, IDEAL_CHAIN_ORACLE_MAX_M)
            fam = _rank_deficient_family(ring, n, m, rng)
        elif kind == 3:
            m = rng.randint(1, n)
            fam = [random_matrix(ring, n, rng) for _ in range(m)]
        else:
            m, d = rng.randint(2, IDEAL_CHAIN_ORACLE_MAX_M), rng.choice((2, 3))
            fam = [random_matrix(ring, n, rng).scaled(d) for _ in range(m)]
        modulus = ring.n if isinstance(ring, ModRing) else 0
        gens, g = [0], 0
        for k in range(1, m + 1):
            for bits in masks_of_cardinality(m, k):
                g = math.gcd(g, _oracle_det(ring, subset_sum(fam, SubsetMask(bits, m)).rows))
            gens.append(math.gcd(g, modulus) if modulus else g)
        chain = ideal_chain(fam).generators
        rec.check(
            chain == tuple(gens) and (kind != 2 or gens[-1] == modulus),
            lambda: f"ideal chain {chain} != full walk {tuple(gens)} over {ring!r} (n={n}, m={m})",
        )
        if min(n, m) >= 2 and gens[1] != 1:
            lift = lift_family(ring, [a.rows for a in fam], n)
            floor = minor_floor(lift, n)
            stops.add("floor" if gens[-1] == math.gcd(floor, modulus) != 1 else "unit" if gens[-1] == 1 else "none")
    if trials >= 5 * len(_IDEAL_CHAIN_RINGS) * IDEAL_CHAIN_ORACLE_MAX_N:
        for stop in ("floor", "unit"):
            rec.check(stop in stops, lambda: f"no chain in {trials} trials ended at the {stop} stop after level 1")


MINOR_FLOOR_MAX_CELLS = 12
_FLOOR_RINGS: Sequence[Ring] = (
    INTEGERS, ModRing(6), ModRing(9), ModRing(12), ModRing(36), PrimeField(7), RATIONALS,
    ProductRing([ModRing(4), PrimeField(3), PrimeField(5)]),
)
_FLOOR_KINDS = ("random", "left relation", "right relation", "entries in (d)", "row in (d), column in (e)", "rank-one")


def _floor_family(ring: Ring, n: int, m: int, kind: str, rng: random.Random) -> list[SquareMatrix]:
    """m members of one minor-ideal-floor kind, in ``ring``'s own arithmetic.

    A left relation makes every member's last row the same combination
    of its others (the zero row at n = 1), so w A_i = 0 for one w with a
    unit entry and I_n(H) = 0; a right relation does the same to the
    columns, A_i v = 0, and I_n(V) = 0.  Entries in (d) scale random
    members by d = 2 or 3, which plants the floor in (d^n) and is a
    unit over the fields.  Row 0 in (d) and column 0 in (e), d and e
    the two of 2 and 3 in random order, put I_n(H) in (d) and I_n(V) in
    (e), so that the floor is in (6) where the two stacks differ.  The
    rank-one members are u_i v_i^T with the first n of them E_ii, so the
    floor is the unit ideal while every sum of fewer than n members is
    singular.
    """
    add, mul, num = ring.add, ring.mul, ring.from_int

    def combo(values, weights):
        return functools.reduce(add, (mul(num(w), x) for w, x in zip(weights, values)), ring.zero)

    def member(i):
        if kind == "rank-one":
            if i < n:
                return [[ring.one if r == c == i else ring.zero for c in range(n)] for r in range(n)]
            u, v = ([ring.random(rng) for _ in range(n)] for _ in range(2))
            return [[mul(a, b) for b in v] for a in u]
        rows = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
        if kind == "entries in (d)":
            scale = num(rng.choice((2, 3)))
            return [[mul(scale, x) for x in row] for row in rows]
        if kind == "row in (d), column in (e)":
            rows[0] = [mul(num(d), x) for x in rows[0]]
            return [[mul(num(e), row[0]), *row[1:]] for row in rows]
        if kind == "left relation":
            rows[-1] = [combo(col[:-1], weights) for col in zip(*rows)]
        elif kind == "right relation":
            rows = [row[:-1] + [combo(row[:-1], weights)] for row in rows]
        return rows

    weights = [rng.randrange(-3, 4) for _ in range(n - 1)]
    d, e = rng.sample((2, 3), 2)
    return [SquareMatrix(ring, member(i)) for i in range(m)]


def _ideal_parts(ring: Ring, value: object) -> tuple:
    """The ideal generated by an oracle determinant, or by a gcd of
    them, as one part per component: gcd(d, N) over Z/N and F_p, |d|
    over Z, whether d is nonzero over Q."""
    if isinstance(ring, ProductRing):
        return tuple(p for comp, v in zip(ring.components, value) for p in _ideal_parts(comp, v))
    if isinstance(ring, ModRing):
        return (math.gcd(value, ring.n),)
    return (value != 0,) if ring == RATIONALS else (abs(value),)


def _brute_minor_floor(ring: Ring, fam: Sequence[SquareMatrix]) -> tuple:
    """The floor, as :func:`_ideal_parts`, from every n x n minor of H =
    [A_1 | ... | A_m] and of V = [A_1; ...; A_m]: per stack the gcd of
    their oracle determinants (any nonzero over Q), then the lcm of the
    two stacks (both nonzero over Q)."""
    n = fam[0].n
    stacks = (
        [col for a in fam for col in zip(*a.rows)],
        [row for a in fam for row in a.rows],
    )
    floors = []
    for lines in stacks:
        parts = None
        for pick in itertools.combinations(lines, n):
            got = _ideal_parts(ring, _oracle_det(ring, [list(r) for r in pick]))
            parts = got if parts is None else tuple(
                (a or b) if ring == RATIONALS else math.gcd(a, b) for a, b in zip(parts, got)
            )
        floors.append(parts)
    if ring == RATIONALS:
        return (floors[0][0] and floors[1][0],)
    return tuple(math.lcm(a, b) for a, b in zip(*floors))


def suite_minor_ideal_floor(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """:func:`~detsum.matrices.minor_floor`, the floor of the searches and
    chains, equals the brute-force floor of :func:`_brute_minor_floor`,
    and a search that it ends is right to end.

    Trial t takes kind t % 6 of :func:`_floor_family` (random, a left
    relation, a right relation, entries in (d), row 0 in (d) and column
    0 in (e), rank-one), ring t // 6 % 8 of Z, Z/6, Z/9, Z/12, Z/36,
    F_7, Q (lifted to Z) and Z/4 x F3 x F5 (lifted to Z/60), and n = t
    // 48 % 3 + 1, so the default 144 trials draw every (kind, ring, n)
    cell; m <= 12 / n.  Checked: the floor's value, read per component
    (over Q only whether it is 0); a relation's floor fires (is not a
    unit) and a rank-one family's does not; where the floor fires, no
    subset sum of any size is invertible, by brute force; and the batch
    search of ``_batch_search`` at a random bound finds the brute-force
    first unit sum.  Over the default trials a random family stays a
    unit somewhere, and entries in (d) both fire and stay a unit.

    Mutants of ``minor_floor`` that these checks kill (each run on a
    copy, seed 0): V dropped, by the floor value and the check that a
    relation fires, on right relations; the Euclid steps dropped (a
    column with no unit lead passes its row unreduced), by the floor
    value, the no-unit-sum check and the search on entries in (d); the
    lcm of the stacks replaced by their gcd, by the floor value on row
    0 in (d) and column 0 in (e).
    """
    fired = set()
    for t in range(trials):
        kind = _FLOOR_KINDS[t % len(_FLOOR_KINDS)]
        ring = _FLOOR_RINGS[t // len(_FLOOR_KINDS) % len(_FLOOR_RINGS)]
        n = t // (len(_FLOOR_KINDS) * len(_FLOOR_RINGS)) % 3 + 1
        m = rng.randint(n if kind == "rank-one" else 1, MINOR_FLOOR_MAX_CELLS // n)
        fam = _floor_family(ring, n, m, kind, rng)
        where = f"{kind} family over {ring!r} (n={n}, m={m})"
        lift = lift_family(ring, [a.rows for a in fam], m)
        floor = minor_floor(lift, n)
        rec.check(floor is not None, lambda: f"no floor taken on a {where}")
        if floor is None:
            continue
        if ring == RATIONALS:
            got = (floor != 0,)
        elif isinstance(ring, ProductRing):
            got = tuple(math.gcd(floor, comp.n) for comp in ring.components)
        else:
            got = (math.gcd(floor, ring.n) if isinstance(ring, ModRing) else floor,)
        want = _brute_minor_floor(ring, fam)
        rec.check(got == want, lambda: f"floor value {got} != brute force {want} on a {where}")
        fires = not lift.is_unit(floor)
        fired.add((kind, fires))
        planted = {"left relation": True, "right relation": True, "rank-one": False}.get(kind, fires)
        rec.check(fires == planted, lambda: f"floor {floor} {'fires' if fires else 'is a unit'} on a {where}")
        dets = {bits: _oracle_det(ring, subset_sum(fam, SubsetMask(bits, m)).rows) for bits in range(1, 1 << m)}
        units = [bits for bits in masks_in_search_order(m) if ring.is_unit(dets[bits])]
        rec.check(not fires or not units, lambda: f"floor {floor} fires, but {units[:1]} is a unit sum on a {where}")
        bound = rng.randint(1, m)
        walk = _batch_search(lift, n, bound)
        brute = next((bits for bits in units if bits.bit_count() <= bound), None)
        rec.check(walk == brute, lambda: f"search {walk} != brute force {brute} at bound {bound} on a {where}")
    if trials >= len(_FLOOR_KINDS) * len(_FLOOR_RINGS) * 3:
        for seen in (("random", False), ("entries in (d)", True), ("entries in (d)", False)):
            rec.check(seen in fired, lambda: f"no {seen[0]} family {'fired' if seen[1] else 'stayed a unit'}")


# -- JSON entry decoding ------------------------------------------------------

_N512 = (1 << 512) - 1
_F2X3X5_DESC = {"kind": "product", "components": [
    {"kind": "prime_field", "p": 2},
    {"kind": "product", "components": [{"kind": "prime_field", "p": 3}, {"kind": "prime_field", "p": 5}]},
]}
# (descriptor, ring) pairs, the ring built without jsonio: every kind, a
# nested product and Z/N with a 512-bit N.
_DECODE_RINGS = (
    ({"kind": "integers"}, INTEGERS),
    ({"kind": "rationals"}, RATIONALS),
    ({"kind": "prime_field", "p": 7}, PrimeField(7)),
    ({"kind": "mod", "N": 10}, ModRing(10)),
    ({"kind": "mod", "N": str(_N512)}, ModRing(_N512)),
    (_F2X3X5_DESC, _f2x3x5()),
    ({"kind": "product", "components": [
        {"kind": "rationals"},
        {"kind": "product", "components": [{"kind": "mod", "N": str(_N512)}, {"kind": "integers"}]},
    ]}, ProductRing([RATIONALS, ModRing(_N512), INTEGERS])),
    ({"kind": "int_poly", "var_count": 2}, IntPolyRing(2)),
)
_LAX_STRINGS = ("1_000", " 12 ", "+5", "\u0661\u0662", "1/0", "3/-4", "", "-", "1/2/3", "0x1f", "12\n")
_BAD_TERMS = (
    {"terms": [[[1, -1], 2]]},
    {"terms": [[[1], 2]]},
    {"terms": [[[1, True], 2]]},
    {"terms": [[[0, 0], 1.5]]},
    {"terms": [[[0, 0]]]},
    {"terms": "x"},
    {"term": []},
)


class _Refused(Exception):
    pass


def _long_digits(rng: random.Random) -> str:
    """A decimal string past jsonio's 640-digit plain-int cutoff."""
    return rng.choice(("", "-")) + str(rng.randint(1, 9)) + "".join(
        rng.choice("0123456789") for _ in range(rng.randint(640, 900)))


def _valid_int_entry(rng: random.Random) -> object:
    v = rng.choice((rng.randint(-20, 20), rng.getrandbits(rng.randint(54, 600)) * rng.choice((-1, 1))))
    form = rng.randrange(4)
    if form == 0:
        return str(v)
    if form == 1:
        return _long_digits(rng)
    return v


def _valid_entry(ring: Ring, rng: random.Random) -> object:
    if isinstance(ring, ProductRing):
        return [_valid_entry(c, rng) for c in ring.components]
    if isinstance(ring, IntPolyRing):
        return {"terms": [
            [[rng.randint(0, 3) for _ in range(ring.var_count)], _valid_int_entry(rng)]
            for _ in range(rng.randint(0, 3))
        ]}
    if ring == RATIONALS and rng.random() < 0.5:
        return f"{_valid_int_entry(rng)}/{rng.choice((1, -1)) * rng.randint(1, 10**rng.randint(1, 30))}"
    return _valid_int_entry(rng)


def _mutated_entry(ring: Ring, rng: random.Random) -> object:
    if isinstance(ring, ProductRing) and rng.random() < 0.5:
        entry = _valid_entry(ring, rng)
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.randrange(len(entry))
            entry[k] = _mutated_entry(ring.components[k], rng)
        elif kind == 1:
            entry.pop()
        else:
            entry.append(0)
        return entry
    if isinstance(ring, IntPolyRing) and rng.random() < 0.5:
        return rng.choice(_BAD_TERMS)
    if ring == RATIONALS and rng.random() < 0.5:
        return rng.choice(("1/0", "3/-4", "-0/5", "x/2", "2/x", "1/+2", "1//2", f"{_long_digits(rng)}/0"))
    return rng.choice((
        True, False, 1.5, 2.0, None, {}, [], [1, 2], rng.choice(_LAX_STRINGS),
        _long_digits(rng) + "x", _long_digits(rng), f"{_long_digits(rng)}/{_long_digits(rng)}",
    ))


def _oracle_int(obj: object) -> int:
    if type(obj) is int:
        return obj
    if type(obj) is str:
        digits = obj[1:] if obj[:1] == "-" else obj
        if digits and all("0" <= ch <= "9" for ch in digits):
            return int(obj)
    raise _Refused("")


def _refused_below(step: str, parse: Callable, *args: object) -> object:
    try:
        return parse(*args)
    except _Refused as exc:
        raise _Refused(step + exc.args[0]) from None


def _oracle_entry(ring: Ring, obj: object) -> object:
    """The raw value that ``ring.normalize`` takes to the entry's value, by
    int and Fraction parsing alone; or _Refused, holding the path below
    the entry of the part that is refused."""
    if isinstance(ring, ProductRing):
        if type(obj) is not list or len(obj) != ring.arity:
            raise _Refused("")
        return [_refused_below(f"[{i}]", _oracle_entry, c, v) for i, (c, v) in enumerate(zip(ring.components, obj))]
    if isinstance(ring, IntPolyRing):
        if type(obj) is not dict:
            raise _Refused("")
        if type(obj.get("terms")) is not list:
            raise _Refused(".terms")
        terms = []
        for i, pair in enumerate(obj["terms"]):
            if type(pair) is not list or len(pair) != 2:
                raise _Refused(f".terms[{i}]")
            if type(pair[0]) is not list:
                raise _Refused(f".terms[{i}][0]")
            exps = [_refused_below(f".terms[{i}][0][{k}]", _oracle_int, e) for k, e in enumerate(pair[0])]
            terms.append((exps, _refused_below(f".terms[{i}][1]", _oracle_int, pair[1])))
        try:
            return SparsePoly(ring.var_count, terms)
        except ValueError:
            raise _Refused("") from None
    if ring == RATIONALS and type(obj) is str and "/" in obj:
        num, den = obj.split("/", 1)
        num = _refused_below(".numerator", _oracle_int, num)
        den = _refused_below(".denominator", _oracle_int, den)
        if den == 0:
            raise _Refused("")
        return Fraction(num, den)
    return _oracle_int(obj)


def _typed(value: object) -> object:
    # Values with their types, so that an int where a Fraction belongs shows.
    if isinstance(value, (tuple, list)):
        return tuple(map(_typed, value))
    if isinstance(value, SparsePoly):
        return ("SparsePoly", value.var_count, sorted(value.terms.items()))
    if isinstance(value, RingElement):
        return ("RingElement", value.ring, _typed(value.value))
    return (type(value).__name__, value)


def suite_json_decode_agreement(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """Documents decoded by ``jsonio`` agree with an oracle of int and
    Fraction parsing plus ring normalisation, refusals included.

    Trial t takes descriptor t % 8 of ``_DECODE_RINGS`` and, by t // 8 % 4,
    a matrix family, a ``homogeneous`` vector family, a semilocal instance
    (always over F2xF3xF5, given as a nested product) or one value.  Half
    the trials mutate one or two entries: booleans, floats, lax decimal
    strings, fractions with a zero or negative denominator, products of
    the wrong arity, malformed polynomial terms, and digit strings past
    640 digits, with and without a stray character.  A document the
    oracle refuses must raise a SchemaError whose message starts with the
    path of the first refused entry in document order; any other must
    decode to the oracle's values.
    """
    for t in range(trials):
        desc, ring = _DECODE_RINGS[t % len(_DECODE_RINGS)]
        container = t // len(_DECODE_RINGS) % 4
        if container == 2:
            desc, ring = _F2X3X5_DESC, _f2x3x5()
        rows_of = rng.randint(1, 3)  # n, or var_count
        count = rng.randint(1, 3)  # m
        if container == 0:
            paths = [f"matrices[{i}][{r}][{c}]" for i in range(count) for r in range(rows_of) for c in range(rows_of)]
        elif container == 1:
            paths = [f"vectors[{i}][{c}]" for i in range(count) for c in range(rows_of)]
        elif container == 2:
            paths = [f"elements[{i}]" for i in range(count)]
        else:
            paths = ["value"]
        entries = [_valid_entry(ring, rng) for _ in paths]
        if t % 2:
            for k in rng.sample(range(len(paths)), min(len(paths), rng.randint(1, 2))):
                entries[k] = _mutated_entry(ring, rng)
        entries = json.loads(json.dumps(entries))

        expected, refused_at = [], None
        for path, entry in zip(paths, entries):
            try:
                expected.append(_oracle_entry(ring, entry))
            except _Refused as exc:
                refused_at = path + exc.args[0]
                break

        def nest(values):
            if container == 0:
                return [[values[(i * rows_of + r) * rows_of:(i * rows_of + r + 1) * rows_of]
                         for r in range(rows_of)] for i in range(count)]
            if container == 1:
                return [values[i * rows_of:(i + 1) * rows_of] for i in range(count)]
            return values

        try:
            if container == 0:
                got = [a.rows for a in jsonio.matrices_from_json({"ring": desc, "n": rows_of, "matrices": nest(entries)})]
                want = None if refused_at else [SquareMatrix(ring, rows).rows for rows in nest(expected)]
            elif container == 1:
                got = jsonio.vectors_from_json(ring, rows_of, nest(entries))
                want = None if refused_at else [[RingElement(ring, v) for v in vec] for vec in nest(expected)]
            elif container == 2:
                got = list(jsonio.instance_from_json({"ring": desc, "elements": entries}).elements)
                want = None if refused_at else [RingElement(ring, v) for v in expected]
            else:
                got = jsonio.value_from_json(ring, entries[0])
                want = None if refused_at else ring.normalize(expected[0])
            outcome = _typed(got)
        except jsonio.SchemaError as exc:
            outcome = str(exc)
        except Exception as exc:  # any other error is a failure to report, not to raise
            outcome = ("raised", type(exc).__name__, str(exc))
        if refused_at:
            ok = isinstance(outcome, str) and outcome.startswith(refused_at + ": ")
        else:
            ok = outcome == _typed(want)
        rec.check(ok, lambda: f"decoded {str(outcome)[:200]}, expected {refused_at or str(_typed(want))[:200]} "
                              f"(ring={desc}, container={container})")


# Characters a report string may hold: quotes, backslashes, control
# characters, non-ASCII ones inside and past the BMP, and lone surrogates.
_TEXT_CHARS = ("a", "Z", "0", " ", "/", '"', "\\", "\x00", "\x08", "\n", "\t", "\x1f", "\x7f",
               "\xe9", "\u4e2d", "\u2028", "\ufeff", "\U0001f600", "\ud800", "\udfff")


class _Level(enum.IntEnum):
    LOW = 1


class _Text(str):
    pass


def _report_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randint(0, 6)))


def _report_leaf(rng: random.Random) -> object:
    kind = rng.randrange(6)
    if kind == 0:
        return _report_text(rng)
    if kind == 1:
        return rng.choice((1, -1)) * ((1 << 53) + rng.randint(-3, 3))
    if kind == 2:
        return rng.choice((1, -1)) * rng.getrandbits(rng.randint(65, 300))
    if kind == 3:
        return rng.choice((True, False, 0, 1, None))
    if kind == 4:
        return rng.choice(([], {}))
    return rng.randint(-9, 9)


def _report_value(rng: random.Random, depth: int, planted: object = None) -> object:
    """A value nested exactly ``depth`` containers deep; with ``planted``,
    that value sits at the bottom of the deepest chain instead of a leaf."""
    if depth == 0:
        return _report_leaf(rng) if planted is None else planted
    items = [_report_value(rng, rng.randrange(depth)) for _ in range(rng.randint(0, 3))]
    items.insert(rng.randint(0, len(items)), _report_value(rng, depth - 1, planted))
    if rng.random() < 0.5:
        return items
    return {f"{_report_text(rng)}{i}": item for i, item in enumerate(items)}


def suite_report_writer_agreement(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """``jsonio.dumps_indented`` writes the text of ``json.dumps(v,
    indent=2)``.

    Trial t draws a value nested t % 9 containers deep from strings with
    escapes, non-ASCII characters and lone surrogates, ints near +-2^53
    and past 2^64, True and False beside 0 and 1, None, and empty lists
    and dicts.  It then plants one value outside the writer's types (a
    float, an IntEnum, a str subclass, a tuple, or a dict with a key that
    is not a str) at the bottom of a value of the same depth, and checks
    that the writer refuses it and that ``dumps_indented`` still gives
    the text of ``json.dumps``.
    """
    for t in range(trials):
        value = _report_value(rng, t % 9)
        got, want = jsonio.dumps_indented(value), json.dumps(value, indent=2)
        rec.check(got == want, lambda: f"wrote {got[:200]!r}, json.dumps wrote {want[:200]!r}")

        odd = rng.choice((1.5, -0.0, float("inf"), _Level.LOW, _Text("x"), (1, "a"),
                          {7: "x"}, {None: 0}, {"a": 1, 2.5: 2}))
        value = _report_value(rng, t % 9, odd)
        try:
            jsonio._write_indented(value, "\n", [].append)
            refused = False
        except TypeError:
            refused = True
        got, want = jsonio.dumps_indented(value), json.dumps(value, indent=2)
        rec.check(refused and got == want,
                  lambda: f"planted {odd!r}: refused={refused}, wrote {got[:200]!r}, json.dumps wrote {want[:200]!r}")


# Values for the argv suite: ints argparse's int() reads and ones it
# refuses, the two --output choices and a third word, and tokens that
# start with "-".
_ARGV_INTS = ("4", "+5", " 7 ", "\u0664", "1_000")
_ARGV_VALUES = _ARGV_INTS + ("-3", "0x10", "", "-", "--", "json", "text", "xml",
                             '{"ring":{"kind":"integers"},"n":1,"matrices":[[[1]],[[2]]]}', "-x")
_ARGV_MUTATIONS = ("repeat", "inline", "abbreviation", "missing value", "positional", "help", "unknown")


def _argv_value(rng: random.Random, spec: dict, fitting: bool) -> str:
    """A value from ``_ARGV_VALUES``; with ``fitting``, one that passes the
    flag's ``type`` and ``choices`` and does not start with ``-``."""
    if not fitting:
        return rng.choice(_ARGV_VALUES)
    if "choices" in spec:
        return rng.choice(spec["choices"])
    if spec.get("type") is int:
        return rng.choice(_ARGV_INTS)
    return rng.choice([v for v in _ARGV_VALUES if not v.startswith("-")])


def _argv_pairs(rng: random.Random, flags: Sequence[str], fitting: bool) -> list[list[str]]:
    """A random subset of ``flags`` in random order, each as its token and,
    when it takes one, a value.  With ``fitting``, the subset holds every
    required flag and the values fit their flags."""
    required = [flag for flag in flags if fitting and cli._FLAGS[flag].get("required")]
    chosen = required + rng.sample([f for f in flags if f not in required], rng.randint(0, len(flags) - len(required)))
    pairs = []
    for flag in rng.sample(chosen, len(chosen)):
        spec = cli._FLAGS[flag]
        pairs.append([f"--{flag}"] + [_argv_value(rng, spec, fitting)] * ("action" not in spec))
    return pairs


def _mutate_argv(rng: random.Random, kind: str, flags: Sequence[str], pairs: list[list[str]]) -> None:
    """Make the argv of ``pairs`` one that is not exact, in the way ``kind`` names."""
    valued = [flag for flag in flags if "action" not in cli._FLAGS[flag]]
    spot = rng.randint(0, len(pairs))
    if kind == "repeat":
        flag = rng.choice(flags)
        pairs += [[f"--{flag}"] + [rng.choice(_ARGV_VALUES)] * (flag in valued)] * 2
    elif kind == "inline":
        pairs.insert(spot, [f"--{rng.choice(valued)}={rng.choice(_ARGV_VALUES)}"])
    elif kind == "abbreviation":
        flag = rng.choice([f for f in flags if len(f) > 1])
        short = [flag[:k] for k in range(1, len(flag)) if flag[:k] not in flags]
        pairs.insert(spot, [f"--{rng.choice(short)}"] + [rng.choice(_ARGV_VALUES)] * (flag in valued))
    elif kind == "missing value":
        pairs.append([f"--{rng.choice(valued)}"])
    elif kind == "positional":
        pairs.insert(rng.choice((0, len(pairs))), [rng.choice(("extra", "4", "json"))])
    elif kind == "help":
        pairs.insert(spot, [rng.choice(("-h", "--help"))])
    else:
        unknown = [f for f in cli._FLAGS if f not in flags] + ["threads"]
        pairs.insert(spot, [f"--{rng.choice(unknown)}", rng.choice(("2", "json"))])


def suite_argv_parse_agreement(rng: random.Random, trials: int, rec: _Recorder) -> None:
    """``cli._exact_args`` gives the parser tree's namespace, less
    ``subcommand``, for every exact argv, and declines every other.

    Each trial picks a subcommand and a random subset and order of its
    flags and the common ones, with values from ``_ARGV_VALUES``.  Every
    fourth trial, from the first, holds the required flags with values
    that fit them, so that even a short run has argvs to take.  Odd
    trials then apply one of ``_ARGV_MUTATIONS`` in turn: a repeated flag,
    ``--flag=value``, an abbreviation, a missing value, a stray
    positional, ``-h`` or an unknown flag; the fast path must decline
    those.  On an unmutated argv whose values do not start with ``-``,
    the fast path must take it exactly when argparse accepts it, with
    equal ``vars``; a taken argv is always held to argparse.  The last
    check fails when the fast path took no argv at all.
    """
    parser = cli.build_parser()
    names = list(cli._COMMANDS)
    taken = 0
    for t in range(trials):
        name = rng.choice(names)
        flags = cli._COMMON_FLAGS + cli._COMMANDS[name][2]
        pairs = _argv_pairs(rng, flags, fitting=t % 4 == 0)
        kind = _ARGV_MUTATIONS[t // 2 % len(_ARGV_MUTATIONS)] if t % 2 else None
        if kind is not None:
            _mutate_argv(rng, kind, flags, pairs)
        argv = [token for pair in pairs for token in pair]
        fast = cli._exact_args(name, argv)
        taken += fast is not None
        if kind is not None:
            rec.check(fast is None, lambda: f"{name} {argv!r} ({kind}): fast path took it")
            continue
        exact = not any(token.startswith("-") for pair in pairs for token in pair[1:])
        if fast is None and not exact:
            continue
        try:
            want = vars(parser.parse_args([name, *argv]))
            del want["subcommand"]
        except cli._UsageError:
            want = None
        got = None if fast is None else vars(fast)
        rec.check(got == want, lambda: f"{name} {argv!r}: fast path gave {got}, argparse {want}")
    rec.check(taken > 0, f"the fast path took none of {trials} argvs")


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
    "alt-sum-recurrence": (suite_alt_sum_recurrence, 595),
    "subset-walks": (suite_subset_walks, 10),
    "superset-sign-sums": (suite_superset_sign_sums, 40),
    "perturbation-residual": (suite_perturbation_residual, 100),
    "perturbation-witness": (suite_perturbation_witness, 50),
    "homogeneous-sum": (suite_homogeneous_sum, 50),
    "homogeneous-lift-agreement": (suite_homogeneous_lift_agreement, 200),
    "simplex": (suite_simplex, 50),
    "search-field-guarantee": (suite_search_field_guarantee, 50),
    "search-minimality": (suite_search_minimality, 50),
    "search-local-guarantee": (suite_search_local_guarantee, 50),
    "search-nonlocal-counterexample": (suite_search_nonlocal_counterexample, 1),
    "ideal-chain-truncation": (suite_ideal_chain_truncation, 80),
    "minor-ideal-floor": (suite_minor_ideal_floor, 144),
    "semilocal-guarantee": (suite_semilocal_guarantee, 50),
    "embedding-soundness": (suite_embedding_soundness, 50),
    "two-component-bound": (suite_two_component_bound, 1),
    "unit-subsum-table": (suite_unit_subsum_table, 400),
    "miner-brute-force": (suite_miner_brute_force, 120),
    "lifted-walks": (suite_lifted_walks, 72),
    "lifted-slots": (suite_lifted_slots, 3),
    "first-unit-agreement": (suite_first_unit_agreement, 120),
    "poly-lift-agreement": (suite_poly_lift_agreement, 32),
    "json-decode-agreement": (suite_json_decode_agreement, 256),
    "det-identity-counts": (suite_det_identity_counts, 8),
    "report-writer-agreement": (suite_report_writer_agreement, 216),
    "argv-parse-agreement": (suite_argv_parse_agreement, 2000),
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
