"""Alternating subset-sum identities, exactly.

The central fact: for matrices A_1..A_m of size n over any commutative
ring, the signed sum over all subsets S of det(sum of the selected
matrices), weighted by (-1)^|S|, vanishes whenever m > n.  This module
evaluates that sum numerically over any supported ring, proves it
symbolically on generic inputs, extracts an explicit rewriting of the
full-family determinant into small-subset determinants, and exposes two
consequences: a perturbation detector and a singular-simplex centroid
check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    SquareMatrix,
    _raw_matrix,
    det_rows,
    family_ring_shape,
    lift_family,
    subset_sum,
)
from .rings import RATIONALS, IntPolyRing, RingElement, SparsePoly
from .subsets import (
    MAX_FAMILY,
    SubsetMask,
    array_ops,
    gray_sums,
    search_order_sums,
    superset_sign_sums,
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
COEFFICIENT_CHECK_FAMILY_CAP = 24     # m cap for the 2^m subset walks


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
    commutative ring.
    """
    ring, _ = family_ring_shape(matrices)
    m = len(matrices)
    if m > MAX_FAMILY:
        raise TooManyMatrices(f"family of {m} exceeds the {MAX_FAMILY}-element limit")
    lift = lift_family(ring, [a.rows for a in matrices], m)
    det, det_ring = lift.det, lift.det_ring
    add, sub = det_ring.add, det_ring.sub
    acc = det_ring.zero
    for bits, value in gray_sums(lift.members, lift.add, lift.sub):
        count = bits.bit_count()
        d = det(value, count)
        acc = sub(acc, d) if count & 1 else add(acc, d)
    return RingElement(ring, lift.finish(acc), _normalized=True)


def check_alternating_product_identity(
    m: int, n: int, enforce_hypothesis: bool = True
) -> IdentityReport:
    """Symbolic check that sum_S (-1)^|S| prod_j (sum_{i in S} z_ij) = 0.

    The polynomial is built over m*n integer variables, z_ij sitting at
    flat index i*n + j, by walking all 2^m subsets and expanding each
    product of column sums; it must cancel to the zero polynomial
    whenever m > n.  With ``enforce_hypothesis=False`` the sum is built
    for any sizes so the failure of small families can be inspected.

    The coefficient of a monomial depends only on its support T, so one
    walk over the 2^m subsets S sums the signs per T with |T| <= n, at a
    cost of sum_{k<n} C(|S|, k) per step (constant for n == 1); only
    m <= n leaves a nonzero sum to expand.  Besides m*n <= 36, the walk
    caps m at 24.
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
    for support, c in superset_sign_sums(m, n).items():
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

    Repeatedly rewrites any determinant of more than n generic summands
    through the alternating identity on that subfamily, starting from the
    full family, until only subsets of size at most n remain.  Returns
    (mask, integer coefficient) pairs in (cardinality, mask) order, and
    verifies the expansion symbolically before returning it.
    """
    _check_det_identity_caps(m, n)
    coeffs: dict[int, int] = {(1 << m) - 1: 1}
    while True:
        oversized = [bits for bits in coeffs if bits.bit_count() > n]
        if not oversized:
            break
        bits = max(oversized, key=lambda b: (b.bit_count(), b))
        c = coeffs.pop(bits)
        size = bits.bit_count()
        # Proper nonempty sub-subsets; the rewritten term det(sum over bits)
        # equals sum over them of (-1)^(size - |S| + 1) * det(sum over S).
        sub = (bits - 1) & bits
        while sub:
            sign = -1 if (size - sub.bit_count() + 1) & 1 else 1
            acc = coeffs.get(sub, 0) + c * sign
            if acc:
                coeffs[sub] = acc
            else:
                coeffs.pop(sub, None)
            sub = (sub - 1) & bits

    ordered = sorted(coeffs.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
    certificate = [(SubsetMask(bits, m), c) for bits, c in ordered]

    _verify_certificate(m, n, certificate)
    return certificate


def _verify_certificate(m: int, n: int, certificate: list[tuple[SubsetMask, int]]) -> None:
    ring = IntPolyRing(m * n * n)
    mats = generic_matrix_family(m, n)
    lhs = det_rows(ring, subset_sum(mats, SubsetMask.full(m)).rows)
    rhs = ring.zero
    for mask, c in certificate:
        d = det_rows(ring, subset_sum(mats, mask).rows)
        rhs = ring.add(rhs, ring.mul(ring.from_int(c), d))
    if lhs != rhs:
        raise ContractViolation(
            f"certificate for (m={m}, n={n}) failed symbolic verification"
        )


def perturbation_identity_residual(
    family: Sequence[SquareMatrix], perturbation: SquareMatrix
) -> RingElement:
    """Residual of the perturbation identity; always the zero element.

    For n matrices A_1..A_n and any B, all n x n, the signed sum over
    nonempty subsets of det(sum A_i) - det(sum A_i + B) equals det(B);
    the returned residual subtracts det(B) and must vanish identically.
    """
    ring, n = family_ring_shape(list(family) + [perturbation])
    if len(family) != n:
        raise ShapeMismatch(
            f"need exactly n = {n} family matrices for {n}x{n} inputs, got {len(family)}"
        )
    lift = lift_family(ring, [a.rows for a in family], n + 1, perturbation.rows)
    det, walk_add, b = lift.det, lift.add, lift.perturb
    det_ring = lift.det_ring
    add, sub = det_ring.add, det_ring.sub
    acc = det_ring.zero
    for bits, value in gray_sums(lift.members, walk_add, lift.sub):
        count = bits.bit_count()
        term = sub(det(value, count), det(walk_add(value, b), count + 1))
        acc = sub(acc, term) if count & 1 else add(acc, term)
    acc = ring.sub(lift.finish(acc), det_rows(ring, perturbation.rows))
    return RingElement(ring, acc, _normalized=True)


def find_perturbing_subset(
    family: Sequence[SquareMatrix], perturbation: SquareMatrix
) -> Optional[SubsetMask]:
    """Smallest nonempty subset whose determinant moves when B is added.

    Smallest in (cardinality, mask value) order.  Guaranteed to exist
    whenever det(B) != 0: if every subset determinant stayed fixed, the
    perturbation identity would force det(B) = 0.  Returns None only
    when no subset changes (possible only for det(B) = 0).
    """
    ring, n = family_ring_shape(list(family) + [perturbation])
    if len(family) != n:
        raise ShapeMismatch(
            f"need exactly n = {n} family matrices for {n}x{n} inputs, got {len(family)}"
        )
    lift = lift_family(ring, [a.rows for a in family], n + 1, perturbation.rows)
    det, walk_add, b = lift.det, lift.add, lift.perturb
    for bits, value in search_order_sums(lift.members, walk_add, n):
        count = bits.bit_count()
        if det(value, count) != det(walk_add(value, b), count + 1):
            return SubsetMask(bits, n)
    return None


def homogeneous_alternating_sum(
    poly: SparsePoly, vectors: Sequence[Sequence[RingElement]]
) -> RingElement:
    """Signed sum of f(subset sums of vectors) over all subsets.

    f must be homogeneous; the sum is exactly zero whenever the family is
    larger than deg f, which generalizes the determinant identity (det of
    an n x n matrix is homogeneous of degree n in its entries).
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

    add, sub = ring.add, ring.sub
    acc = poly.eval_raw(ring, [ring.zero] * poly.var_count)  # empty subset: f(0)
    for bits, (point,) in gray_sums([[vec] for vec in raw_vectors], *array_ops(ring)):
        value = poly.eval_raw(ring, point)
        acc = sub(acc, value) if bits.bit_count() & 1 else add(acc, value)
    return RingElement(ring, acc, _normalized=True)


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
        singular = is_zero(det(value, bits.bit_count()))
        if bits == full:
            centroid_singular = singular
        elif not singular:
            failing.append(SubsetMask(bits, m))
    return SimplexReport(
        premise_holds=not failing,
        centroid_singular=centroid_singular,
        failing_subsets=tuple(failing),
    )
