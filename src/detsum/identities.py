"""Alternating subset-sum identities, exactly.

The central fact: for matrices A_1..A_m of size n over any commutative
ring, the signed sum over all subsets S of det(sum of the selected
matrices), weighted by (-1)^|S|, vanishes whenever m > n.  This module
evaluates that sum numerically over any supported ring, proves it
symbolically on generic inputs, extracts an explicit rewriting of the
full-family determinant into small-subset determinants, and exposes two
consequences: a perturbation detector and a singular-simplex centroid
check.  The perturbation residual of A_1..A_n and B is the alternating
sum of the n + 1 matrices A_1..A_n, B.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    ArityMismatch,
    ContractViolation,
    HypothesisViolation,
    InvalidParameters,
    NotHomogeneous,
    RingMismatch,
    ShapeMismatch,
    SizeLimit,
    TooManyElements,
    TooManyMatrices,
    UnsupportedRing,
)
from .matrices import (
    Lift,
    SquareMatrix,
    _laplace_minors,
    _raw_matrix,
    family_ring_shape,
    lift_family,
)
from .rings import (
    INTEGERS,
    RATIONALS,
    IntegerRing,
    IntPolyRing,
    ModRing,
    ProductRing,
    RationalRing,
    Ring,
    RingElement,
    SparsePoly,
)
from .subsets import (
    MAX_FAMILY,
    SubsetMask,
    array_ops,
    gray_sums,
    masks_of_cardinality,
    search_order_sums,
)

__all__ = [
    "IdentityReport",
    "SimplexReport",
    "alternating_subset_det_sum",
    "check_alternating_product_identity",
    "monomial_coefficient_check",
    "check_alternating_det_identity",
    "det_expansion_certificate",
    "generic_matrix_family",
    "perturbation_identity_residual",
    "find_perturbing_subset",
    "homogeneous_alternating_sum",
    "simplex_centroid_check",
    "PRODUCT_IDENTITY_SIZE_CAP",
    "DET_IDENTITY_CAPS",
]

PRODUCT_IDENTITY_SIZE_CAP = 36        # m*n cap for the symbolic product identity
DET_IDENTITY_CAPS = (3, 5)            # (max n, max m) for generic-matrix checks
# m cap for monomial_coefficient_check's 2^free superset loop.  The product
# identity counts its coefficients, but keeps refusing m past the cap, since
# that refusal is part of the verify-lemma3 contract.
COEFFICIENT_CHECK_FAMILY_CAP = 24
# For each n served, the least m from which an int-lifted alternating sum
# is split into two half-walks; below, the walk of all 2^m subsets.  Walk
# against split, us per call (timeit, one pinned CPU, random entries), at
# m = 5 and 6: Z n=2 79/65, 122/62; n=3 103/99, 179/117; Z/10 n=2 53/42,
# 83/47; n=3 66/59, 112/77 (one earlier run had the split behind at m = 5,
# n = 3: 98/106); at n = 4, m = 7 and 8: Z 303/256, 546/318; Z/10 231/206,
# 459/268; F2xF3xF5 284/404, 825/492.
SPLIT_MIN_M = {1: 6, 2: 6, 3: 6, 4: 8}


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity evaluation.

    ``holds`` is true iff ``residual`` is the zero element of its ring;
    ``term_count`` is the number of subset terms the sum ranges over
    (2^m for full-subset identities).
    """

    identity: str
    parameters: dict
    residual: RingElement
    holds: bool
    term_count: int


@dataclass(frozen=True)
class SimplexReport:
    """Result of the singular-simplex centroid check.

    ``failing_subsets`` lists the nonempty proper subsets whose sum has a
    nonzero determinant; the premise holds iff that list is empty.
    """

    premise_holds: bool
    centroid_singular: bool
    failing_subsets: tuple[SubsetMask, ...]


def alternating_subset_det_sum(matrices: Sequence[SquareMatrix]) -> RingElement:
    """Signed sum of det(subset sum) over all 2^m subsets.

    The empty subset contributes det(0) = 0 and is counted but never
    evaluated.  The result is exactly zero whenever m > n, over any
    commutative ring.  A family that lifts to ints, at an n of
    ``SPLIT_MIN_M`` and m at or above its crossover, is summed by one
    split into two half-walks (:func:`_split_alternating_sum`); any
    other walks all 2^m subsets (:func:`_walk_alternating_sum`).
    """
    ring, n = family_ring_shape(matrices)
    m = len(matrices)
    if m > MAX_FAMILY:
        raise TooManyMatrices(f"family of {m} exceeds the {MAX_FAMILY}-element limit")
    lift = lift_family(ring, [a.rows for a in matrices], m)
    if lift.ring == INTEGERS and m >= SPLIT_MIN_M.get(n, MAX_FAMILY + 1):
        acc = lift.det_ring.from_int(_split_alternating_sum(lift, n))
    else:
        acc = _walk_alternating_sum(lift)
    return RingElement(ring, lift.finish(acc), _normalized=True)


def _walk_alternating_sum(lift: Lift) -> object:
    """The alternating sum in ``lift.det_ring``, one determinant per
    subset of a Gray walk.  It serves every family that the split does
    not, and checks the split in the ``alt-sum-split`` fuzz suite.
    """
    det, det_ring = lift.det, lift.det_ring
    add, sub = det_ring.add, det_ring.sub
    acc = det_ring.zero
    for bits, value in gray_sums(lift.members, lift.add, lift.sub):
        d = det(value)
        acc = sub(acc, d) if bits.bit_count() & 1 else add(acc, d)
    return acc


def _split_alternating_sum(lift: Lift, n: int) -> int:
    """The alternating sum of a family of m >= 2 members whose walked
    values have int cells (``lift.ring`` is Z), as an int that
    ``lift.det_ring.from_int`` maps to the walk's value.

    The generalized Laplace expansion (Marcus, "Determinants of sums",
    College Math. J. 21 (1990)) writes det(P + X) as the sum over pairs
    of k x k minors (R, C), k = 0..n, of +-det P[R, C] * det X[R', C'],
    R' and C' the complements.  Split the members into halves H and L;
    a subset S is S_H + S_L, so the alternating sum is the sum over
    (R, C) of +-beta(R, C) * alpha(R', C'), where beta(R, C) is the sum
    of (-1)^|S_H| times the (R, C) minor of the sum of S_H, over every
    S_H in H, and alpha likewise over L.  Each half is walked once:
    2 * 2^(m/2) subsets instead of 2^m.  The empty minor is 1, so its
    beta is the sum of (-1)^|S_H|, which is 0 for nonempty H; the terms
    with k = 0 or k = n vanish, and at n = 1 so does every term.  All
    of it is exact in Z, and the determinant is an integer polynomial
    in the entries, so the one reduction at the end gives the walk's
    value.
    """
    if n == 1:
        return 0
    minors, pairs = _laplace_minors(n)
    half = len(lift.members) // 2
    beta = _signed_minor_sums(lift, lift.members[:half], minors, len(pairs))
    alpha = _signed_minor_sums(lift, lift.members[half:], minors, len(pairs))
    return sum(sign * beta[i] * alpha[j] for i, j, sign in pairs)


# Walked values whose minors are held at once; an even count.
_SPLIT_CHUNK = 1 << 10


def _signed_minor_sums(lift: Lift, members: Sequence, minors, count: int) -> list[int]:
    # Each minor summed over the nonempty subsets S of members, with sign
    # (-1)^|S|; the empty subset's minors are 0.  A Gray walk toggles one
    # member per step, so its subsets alternate odd and even, odd first,
    # and a chunk of even length starts with an odd one.
    sums = [0] * count
    walk = (value for _, value in gray_sums(members, lift.add, lift.sub))
    cells = lift.cells
    while chunk := list(itertools.islice(walk, _SPLIT_CHUNK)):
        odd = zip(*map(minors, map(cells, chunk[0::2])))
        even = zip(*map(minors, map(cells, chunk[1::2])))
        sums = [
            s + sum(e) - sum(o)
            for s, (e, o) in zip(sums, itertools.zip_longest(even, odd, fillvalue=()))
        ]
    return sums


def check_alternating_product_identity(
    m: int, n: int, enforce_hypothesis: bool = True
) -> IdentityReport:
    """Symbolic check that sum_S (-1)^|S| prod_j (sum_{i in S} z_ij) = 0.

    The polynomial is built over m*n integer variables, z_ij sitting at
    flat index i*n + j; it must cancel to the zero polynomial whenever
    m > n.  With ``enforce_hypothesis=False`` the sum is built for any
    sizes so the failure of small families can be inspected.

    The coefficient of a monomial is c(T) of its support T, counted by
    :func:`superset_sign_counts` without visiting the 2^m subsets; only
    m <= n leaves a nonzero c(T), whose monomials are expanded.  Besides
    m*n <= 36, m is capped at ``COEFFICIENT_CHECK_FAMILY_CAP``.
    """
    if m < 1 or n < 1:
        raise InvalidParameters(f"need m, n >= 1, got m={m}, n={n}")
    if m * n > PRODUCT_IDENTITY_SIZE_CAP:
        raise SizeLimit(f"m*n = {m * n} exceeds the cap {PRODUCT_IDENTITY_SIZE_CAP}")
    if m > COEFFICIENT_CHECK_FAMILY_CAP:
        raise SizeLimit(f"m = {m} exceeds the cap {COEFFICIENT_CHECK_FAMILY_CAP}")
    if enforce_hypothesis and m <= n:
        raise HypothesisViolation(f"the identity needs m > n, got m={m} <= n={n}")

    # The coefficient of z_{pick[0],0} ... z_{pick[n-1],n-1} is c(support of pick).
    terms: dict[tuple[int, ...], int] = {}
    for support, c in superset_sign_counts(m, n).items():
        members = list(SubsetMask(support, m))
        for pick in itertools.product(members, repeat=n):
            if len(set(pick)) == len(members):
                exps = [0] * (m * n)
                for j, i in enumerate(pick):
                    exps[i * n + j] = 1
                terms[tuple(exps)] = c

    residual = SparsePoly(m * n, terms)
    return IdentityReport(
        identity="alternating-product",
        parameters={"m": m, "n": n},
        residual=RingElement(IntPolyRing(m * n), residual, _normalized=True),
        holds=residual.is_zero(),
        term_count=1 << m,
    )


def superset_sign_counts(m: int, size: int) -> dict[int, int]:
    """Map each mask T with 1 <= |T| <= size to its nonzero c(T).

    c(T) is the sum of (-1)^|S| over the supersets S of T in ``{0..m-1}``.
    A t-set has C(m - t, k) supersets with t + k members, so c(T) depends
    on t alone and is a sum of m - t + 1 signed binomials.
    """
    counts: dict[int, int] = {}
    for t in range(1, min(size, m) + 1):
        c = sum((-1) ** (t + k) * math.comb(m - t, k) for k in range(m - t + 1))
        if c:
            counts.update(dict.fromkeys(masks_of_cardinality(m, t), c))
    return counts


def monomial_coefficient_check(m: int, n: int, indices: Sequence[int]) -> int:
    """Coefficient of z_{i_1,1}...z_{i_n,n} in the alternating product sum.

    Computed two independent ways: (a) summing (-1)^|S| over every subset
    containing all the chosen indices, and (b) the binomial closed form
    over the complement size.  Both must agree; the common value (always
    0 when m > n) is returned.  Indices are 0-based.
    """
    if m <= n:
        raise HypothesisViolation(f"needs m > n, got m={m} <= n={n}")
    if len(indices) != n:
        raise ArityMismatch(f"expected {n} indices, got {len(indices)}")
    if any(i < 0 or i >= m for i in indices):
        raise InvalidParameters(f"indices must lie in [0, {m}), got {list(indices)}")
    if m > COEFFICIENT_CHECK_FAMILY_CAP:
        raise SizeLimit(f"m = {m} exceeds the cap {COEFFICIENT_CHECK_FAMILY_CAP}")

    support = set(indices)
    distinct = len(support)
    free = m - distinct

    base_sign = -1 if distinct & 1 else 1
    direct = 0
    for extra in range(1 << free):
        direct += -base_sign if extra.bit_count() & 1 else base_sign

    closed = sum(
        math.comb(free, l) * (-1) ** (l + distinct) for l in range(free + 1)
    )
    if direct != closed:
        raise ContractViolation(
            f"superset enumeration gave {direct}, closed form gave {closed}"
        )
    return direct


def generic_matrix_family(m: int, n: int) -> list[SquareMatrix]:
    """m generic n x n matrices over the m*n^2-variable polynomial ring.

    The (b, g) entry of matrix i is the variable at flat index
    i*n^2 + b*n + g.
    """
    ring = IntPolyRing(m * n * n)
    mats = []
    for i in range(m):
        rows = tuple(
            tuple(ring.variable(i * n * n + b * n + g) for g in range(n))
            for b in range(n)
        )
        mats.append(_raw_matrix(ring, n, rows))
    return mats


def _check_det_identity_caps(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise InvalidParameters(f"need m, n >= 1, got m={m}, n={n}")
    if m <= n:
        raise HypothesisViolation(f"the identity needs m > n, got m={m} <= n={n}")
    max_n, max_m = DET_IDENTITY_CAPS
    if n > max_n or m > max_m:
        raise SizeLimit(
            f"symbolic determinant checks are capped at n <= {max_n}, m <= {max_m}"
        )


def check_alternating_det_identity(m: int, n: int) -> IdentityReport:
    """Symbolic proof on generic matrices that the alternating det sum is 0.

    Builds m generic n x n matrices with independent integer variables
    and evaluates the full signed subset sum as one polynomial, which
    must cancel identically for m > n.
    """
    _check_det_identity_caps(m, n)
    residual = alternating_subset_det_sum(generic_matrix_family(m, n))
    return IdentityReport(
        identity="alternating-determinant",
        parameters={"m": m, "n": n},
        residual=residual,
        holds=residual.is_zero(),
        term_count=1 << m,
    )


def det_expansion_certificate(m: int, n: int) -> list[tuple[SubsetMask, int]]:
    """Expansion of det(sum of all m matrices) into |S| <= n subset terms.

    For m > n the coefficient of det(sum over S) depends only on
    k = |S|: c_S = (-1)^(n-k) * C(m-k-1, n-k), for every S with
    1 <= k <= n.  Returns (mask, integer coefficient) pairs in
    (cardinality, mask) order, and verifies the expansion symbolically
    before returning it.
    """
    _check_det_identity_caps(m, n)
    certificate = [
        (SubsetMask(bits, m), (-1) ** (n - k) * math.comb(m - k - 1, n - k))
        for k in range(1, n + 1)
        for bits in masks_of_cardinality(m, k)
    ]
    _verify_certificate(m, n, certificate)
    return certificate


def _verify_certificate(m: int, n: int, certificate: list[tuple[SubsetMask, int]]) -> None:
    # The certificate lists its subsets in the lifted walk's (cardinality,
    # mask) order, so the two zip term by term; both sides are compared in
    # det_ring.
    mats = generic_matrix_family(m, n)
    lift = lift_family(mats[0].ring, [a.rows for a in mats], m)
    det, ring = lift.det, lift.det_ring
    lhs = det(functools.reduce(lift.add, lift.members))
    rhs = ring.zero
    for (_, value), (_, c) in zip(search_order_sums(lift.members, lift.add, n), certificate):
        rhs = ring.add(rhs, ring.mul(ring.from_int(c), det(value)))
    if lhs != rhs:
        raise ContractViolation(
            f"certificate for (m={m}, n={n}) failed symbolic verification"
        )


def _perturbation_ring_shape(
    family: Sequence[SquareMatrix], perturbation: SquareMatrix
) -> tuple[Ring, int]:
    ring, n = family_ring_shape([*family, perturbation])
    if len(family) != n:
        raise ShapeMismatch(
            f"need exactly n = {n} family matrices for {n}x{n} inputs, got {len(family)}"
        )
    return ring, n


def perturbation_identity_residual(
    family: Sequence[SquareMatrix], perturbation: SquareMatrix
) -> RingElement:
    """Residual of the perturbation identity; always the zero element.

    For n matrices A_1..A_n and any B, all n x n, the signed sum over
    nonempty subsets of det(sum A_i) - det(sum A_i + B) equals det(B).
    Splitting the subsets of A_1..A_n, B by whether they hold B shows
    that the residual, that sum minus det(B), is the alternating sum of
    A_1..A_n, B: the identity on n + 1 matrices, so it vanishes
    identically.
    """
    _perturbation_ring_shape(family, perturbation)
    return alternating_subset_det_sum([*family, perturbation])


def find_perturbing_subset(
    family: Sequence[SquareMatrix], perturbation: SquareMatrix
) -> Optional[SubsetMask]:
    """Smallest nonempty subset whose determinant moves when B is added.

    Smallest in (cardinality, mask value) order.  Guaranteed to exist
    whenever det(B) != 0: if every subset determinant stayed fixed, the
    perturbation identity would force det(B) = 0.  Returns None only
    when no subset changes (possible only for det(B) = 0).
    """
    ring, n = _perturbation_ring_shape(family, perturbation)
    lift = lift_family(ring, [a.rows for a in (*family, perturbation)], n + 1)
    det, walk_add, b = lift.det, lift.add, lift.members[n]
    for bits, value in search_order_sums(lift.members[:n], walk_add, n):
        if det(value) != det(walk_add(value, b)):
            return SubsetMask(bits, n)
    return None


def homogeneous_alternating_sum(
    poly: SparsePoly, vectors: Sequence[Sequence[RingElement]]
) -> RingElement:
    """Signed sum of f(subset sums of vectors) over all subsets.

    f must be homogeneous; the sum is exactly zero whenever the family is
    larger than deg f, which generalizes the determinant identity (det of
    an n x n matrix is homogeneous of degree n in its entries).  The
    empty subset contributes f(0), nonzero only for a constant f.

    f has integer coefficients, so it may be evaluated on integer lifts
    of the coordinates and the sum mapped into the ring at the end.  The
    vectors are lifted once and walked in Gray order as plain int lists,
    and f is evaluated at each point from a monomial list compiled once
    (:func:`_int_alternating_sum`):

    * Z          -- the coordinates as they are;
    * Z/N, F_p   -- the residues, summed as plain ints; the sum is
      reduced mod N once, at the end;
    * Q          -- every coordinate scaled by D, the lcm of all the
      denominators.  f is homogeneous of degree d, so f(D·v) = D^d·f(v),
      and the sum over Q is the integer sum divided by D^d (D^0 = 1);
    * products   -- one walk per component, as the alternating sum over
      R_1 x ... x R_k is the tuple of the components' sums; no CRT, so
      non-coprime moduli are covered too;
    * Z[x...]    -- the points are summed and f evaluated by ring
      arithmetic (:func:`_ring_alternating_sum`).
    """
    degree = poly.homogeneous_degree()
    if degree is None:
        raise NotHomogeneous("polynomial has terms of different total degrees")
    m = len(vectors)
    if m < 1:
        raise ShapeMismatch("empty vector family")
    if m > MAX_FAMILY:
        raise TooManyElements(f"family of {m} exceeds the {MAX_FAMILY}-element limit")
    if poly.var_count == 0:
        raise ArityMismatch("polynomial in zero variables has no evaluation point")

    ring = None
    raw_vectors = []
    for vec in vectors:
        if len(vec) != poly.var_count:
            raise ArityMismatch(
                f"vector of length {len(vec)}, polynomial has {poly.var_count} variables"
            )
        raw = []
        for el in vec:
            if ring is None:
                ring = el.ring
            elif el.ring != ring:
                raise RingMismatch(f"vectors mix {ring!r} and {el.ring!r}")
            raw.append(el.value)
        raw_vectors.append(raw)

    value = _homogeneous_sum(ring, poly, degree, raw_vectors)
    return RingElement(ring, value, _normalized=True)


def _homogeneous_sum(ring: Ring, poly: SparsePoly, degree: int, vectors) -> object:
    # The raw alternating sum over ring, walked on int lifts where it has them.
    if isinstance(ring, ProductRing):
        return tuple(
            _homogeneous_sum(comp, poly, degree, [[x[c] for x in vec] for vec in vectors])
            for c, comp in enumerate(ring.components)
        )
    if isinstance(ring, IntegerRing):
        return _int_alternating_sum(poly, vectors)
    if isinstance(ring, ModRing):
        return _int_alternating_sum(poly, vectors) % ring.n
    if isinstance(ring, RationalRing):
        scale = math.lcm(*(x.denominator for vec in vectors for x in vec))
        lifted = [[x.numerator * (scale // x.denominator) for x in vec] for vec in vectors]
        return Fraction(_int_alternating_sum(poly, lifted), scale**degree)
    return _ring_alternating_sum(poly, ring, vectors)


def _vector_add(a: list[int], b: list[int]) -> list[int]:
    return list(map(operator.add, a, b))


def _vector_sub(a: list[int], b: list[int]) -> list[int]:
    return list(map(operator.sub, a, b))


def _int_alternating_sum(poly: SparsePoly, vectors: Sequence[list[int]]) -> int:
    """Sum of (-1)^|S| f(sum of S) over every subset S, on int vectors.

    f is compiled once into monomials (coeff, indices), each index
    repeated as often as its exponent: x0^2*x2 becomes (c, (0, 0, 2)).
    The empty subset adds f(0), the coefficient of a constant f.
    """
    monomials = [
        (coeff, tuple(i for i, e in enumerate(exps) for _ in range(e)))
        for exps, coeff in poly.terms.items()
    ]
    acc = sum(coeff for coeff, indices in monomials if not indices)
    for bits, point in gray_sums(vectors, _vector_add, _vector_sub):
        value = 0
        for coeff, indices in monomials:
            for i in indices:
                coeff *= point[i]
            value += coeff
        if bits.bit_count() & 1:
            acc -= value
        else:
            acc += value
    return acc


def _ring_alternating_sum(poly: SparsePoly, ring: Ring, vectors) -> object:
    """The same sum by ring arithmetic: each point is summed with
    ``ring.add`` and ``ring.sub`` and f evaluated by ``eval_raw``.  It
    serves Z[x...] and checks the int walks in the
    ``homogeneous-lift-agreement`` fuzz suite.
    """
    add, sub = ring.add, ring.sub
    acc = poly.eval_raw(ring, [ring.zero] * poly.var_count)  # empty subset: f(0)
    for bits, (point,) in gray_sums([[vec] for vec in vectors], *array_ops(ring)):
        value = poly.eval_raw(ring, point)
        acc = sub(acc, value) if bits.bit_count() & 1 else add(acc, value)
    return acc


def simplex_centroid_check(points: Sequence[SquareMatrix]) -> SimplexReport:
    """Centroid membership for a simplex on the determinant cone.

    Takes n+1 rational n x n matrices, the vertices of an n-simplex in
    matrix space.  Every barycentric-subdivision vertex other than the
    centroid is a scaled proper subset sum, and scaling does not change
    determinant vanishing, so the premise reduces to: every nonempty
    proper subset sum is singular.  When the premise holds the centroid
    (the scaled full sum) must be singular too.
    """
    ring, n = family_ring_shape(points)
    if ring != RATIONALS:
        raise UnsupportedRing("the centroid check runs over the rationals only")
    if len(points) != n + 1:
        raise ShapeMismatch(f"need n+1 = {n + 1} points for {n}x{n} matrices, got {len(points)}")
    m = n + 1
    full = (1 << m) - 1
    lift = lift_family(ring, [p.rows for p in points], m)
    det, is_zero = lift.det, lift.det_ring.is_zero
    failing = []
    for bits, value in search_order_sums(lift.members, lift.add, m):
        singular = is_zero(det(value))
        if bits == full:
            centroid_singular = singular
        elif not singular:
            failing.append(SubsetMask(bits, m))
    return SimplexReport(
        premise_holds=not failing,
        centroid_singular=centroid_singular,
        failing_subsets=tuple(failing),
    )
