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

The numeric sums, of determinants and of homogeneous polynomials, are
taken one member at a time by the multilinear expansion that proves the
identity, with one state per minor or per divisor of a term of f, on the
values' own ``+ - *`` with one reduction at the end, a product per
component; a Gray walk of the 2^m subsets serves small m and n past the
recurrence's memory bound, and checks the rest.  The symbolic
identities and the certificate are decided by the same expansion over
maps from rows to members, which leaves only the integer counts of
:func:`superset_sign_counts` to check.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
    CLOSED_FORM_MAX_N,
    Lift,
    SquareMatrix,
    _laplace_minors,
    _minor_keys,
    _raw_matrix,
    family_ring_shape,
    lift_family,
)
from .rings import (
    RATIONALS,
    IntPolyRing,
    ProductRing,
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
# m cap for monomial_coefficient_check's 2^free superset loop.
COEFFICIENT_CHECK_FAMILY_CAP = 24
# The largest n at which an alternating sum may run the recurrence, set by
# the memory of its tables, which the count does not weigh: 2.14M moves
# and 250-290 MB of RSS at n = 8, 17.3M moves and ~2.3 GB at n = 9.
RECURRENCE_MAX_N = 8


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

    The empty subset contributes det(0) = 0.  The result is exactly zero
    whenever m > n, over any commutative ring.  A family is summed member
    by member (:func:`_recurrence_alternating_sum`) when a closed-form
    count finds that cheaper, and otherwise walks all 2^m subsets
    (:func:`_walk_alternating_sum`).  A product whose lift walks tuple
    arrays is split into one family per component, each summed so.
    """
    ring, n = family_ring_shape(matrices)
    m = len(matrices)
    if m > MAX_FAMILY:
        raise TooManyMatrices(f"family of {m} exceeds the {MAX_FAMILY}-element limit")
    lift = lift_family(ring, [a.rows for a in matrices], m)
    if isinstance(lift.ring, ProductRing):  # one family per component
        parts = zip(ring.components, zip(*(zip(*[zip(*row) for row in a.rows]) for a in matrices)))
        value = tuple(alternating_subset_det_sum([_raw_matrix(c, n, rows) for rows in fam]).value for c, fam in parts)
    elif _recurrence_is_faster(n, m):
        value = lift.finish(_recurrence_alternating_sum(lift, n))
    else:
        value = lift.finish(_walk_alternating_sum(lift))
    return RingElement(ring, value, _normalized=True)


@functools.lru_cache(maxsize=None)  # n <= DET_SIZE_CAP, m <= MAX_FAMILY
def _recurrence_is_faster(n: int, m: int) -> bool:
    # Products, counted: the recurrence reads at most n + 1 members, each
    # taking one product per move, sum_k C(n, k)^2 (C(2k, k) - 1) of them
    # (a pair of k-sets takes a move from each pair of equal-size parts
    # but itself), plus 4 a call and 10 a move past 2^18 of the ~25 a move
    # that its tables take to build once per process.  The walk takes 2^m
    # determinants of n * 2^(n - 1) products, ~n^3 past CLOSED_FORM_MAX_N.
    # The fixed cost sends n = 1 at m <= 2 to the walk, 1.4-1.6x faster.
    moves = sum(math.comb(n, k) ** 2 * (math.comb(2 * k, k) - 1) for k in range(1, n + 1))
    det = n << (n - 1) if n <= CLOSED_FORM_MAX_N else n**3
    return n <= RECURRENCE_MAX_N and 4 + max(0, 10 * moves - (1 << 18)) + min(m, n + 1) * moves < det << m


def _walk_alternating_sum(lift: Lift) -> object:
    """The alternating sum in ``lift.det_ring``, one determinant per
    subset of a Gray walk.  It serves the families that the count sends
    it, and checks the recurrence and the split of a product's tuple
    arrays in the ``alt-sum-recurrence`` fuzz suite.
    """
    det, det_ring = lift.det, lift.det_ring
    add, sub = det_ring.add, det_ring.sub
    acc = det_ring.zero
    for bits, value in gray_sums(lift.members, lift.add, lift.sub):
        d = det(value)
        acc = sub(acc, d) if bits.bit_count() & 1 else add(acc, d)
    return acc


def _recurrence_alternating_sum(lift: Lift, n: int) -> object:
    """The alternating sum in ``lift.det_ring``, as the walk gives it, of
    a family whose walked values have cells with ``+ - *``: ints, Q's
    fractions or ``SparsePoly`` values, never a product's tuples.

    Let s(R, C) be the signed sum, over the subsets S of the members so
    far, of the (R, C) minor of the sum of S; the empty minor is 1.  By
    the generalized Laplace expansion (Marcus, "Determinants of sums",
    College Math. J. 21 (1990)), member X takes s(R, C) to -sum e *
    s(R1, C1) * det X[R - R1, C - C1] over R1 in R and C1 in C of one
    size, (R1, C1) != (R, C), e being -1 to the sum of the positions of
    R1 in R and of C1 in C.  From s = 1 at the empty minor and 0
    elsewhere, the answer is s at the whole matrix.  A k x k state is 0
    once k + 1 members are in, and zero states stay zero, so the loop
    stops there.  The minors are integer polynomials in the entries, so
    the one ``det_ring.normalize`` at the end, a reduction mod N on
    residues, gives the walk's value.
    """
    det_ring = lift.det_ring
    minors, moves, zero = _laplace_minors(n), _laplace_moves(n), det_ring.zero
    state = [det_ring.one] + [zero] * (len(moves) - 1)
    for member in lift.members:
        x = minors(lift.cells(member))
        new = [zero] * len(moves)
        for s, (plus, minus) in zip(state, moves):
            if s:
                for target, i in plus:
                    new[target] += s * x[i]
                for target, i in minus:
                    new[target] -= s * x[i]
        state = new
        if not any(state):
            break
    return det_ring.normalize(state[-1])


@functools.lru_cache(maxsize=None)
def _laplace_moves(n: int) -> tuple[tuple[tuple, tuple], ...]:
    # The recurrence's terms by source state: state 0 is the empty minor
    # and state i + 1 the minor i of _minor_keys(n).  Entry i is (plus,
    # minus), the (target state, member minor) pairs whose product with
    # s(i) is added to and subtracted from the target.  Each set of rows
    # (or columns) is split, by size, into a part, the rest and the
    # parity of the part's positions.
    keys = [((), ())] + _minor_keys(n)
    index = {key: i for i, key in enumerate(keys)}
    splits = {
        picked: [
            [
                (tuple(picked[p] for p in at), tuple(x for p, x in enumerate(picked) if p not in at), sum(at) & 1)
                for at in itertools.combinations(range(len(picked)), size)
            ]
            for size in range(len(picked))
        ]
        for picked in {rows for rows, _ in keys}
    }
    moves = [([], []) for _ in keys]
    for target, (rows, cols) in enumerate(keys):
        for row_parts, col_parts in zip(splits[rows], splits[cols]):
            for (r1, r2, rp), (c1, c2, cp) in itertools.product(row_parts, col_parts):
                moves[index[r1, c1]][1 - (rp ^ cp)].append((target, index[r2, c2] - 1))
    return tuple((tuple(plus), tuple(minus)) for plus, minus in moves)


def check_alternating_product_identity(
    m: int, n: int, enforce_hypothesis: bool = True
) -> IdentityReport:
    """Symbolic check that sum_S (-1)^|S| prod_j (sum_{i in S} z_ij) = 0.

    The polynomial is built over m*n integer variables, z_ij sitting at
    flat index i*n + j; it must cancel to the zero polynomial whenever
    m > n.  With ``enforce_hypothesis=False`` the sum is built for any
    sizes so the failure of small families can be inspected.

    The coefficient of a monomial is c(T) of its support T, given by
    :func:`superset_sign_counts` without visiting the 2^m subsets; only
    m <= n leaves a nonzero c(T), whose monomials are expanded, and
    m*n <= 36 bounds that expansion.
    """
    if m < 1 or n < 1:
        raise InvalidParameters(f"need m, n >= 1, got m={m}, n={n}")
    if m * n > PRODUCT_IDENTITY_SIZE_CAP:
        raise SizeLimit(f"m*n = {m * n} exceeds the cap {PRODUCT_IDENTITY_SIZE_CAP}")
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
    A t-set has C(m - t, k) supersets with t + k members, so c(T) is
    (-1)^t * (1 - 1)^(m - t): (-1)^m for T = ``{0..m-1}`` and 0 for every
    smaller T.
    """
    return {(1 << m) - 1: (-1) ** m} if 0 < m <= size else {}


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

    The determinant is multilinear in rows, so det(A_S), for A_S the sum
    of the members in S, is sum_f det(rows f) over the maps f from the n
    rows to S, where row j of det(rows f) is row j of A_{f(j)}.  On m
    generic n x n matrices, with independent integer variables, distinct
    maps give disjoint sets of monomials.  Collecting the maps by their
    image T, the alternating sum is sum_f c(im f) * det(rows f), c(T)
    being the sum of (-1)^|S| over the supersets S of T.  So it is the
    zero polynomial iff c(T) = 0 for every T with 1 <= |T| <= min(m, n).
    Those are the counts :func:`superset_sign_counts` gives Lemma 3, and
    no polynomial is built.  The residual reported is the zero of the
    m*n^2-variable ring; a nonzero count raises ``ContractViolation``.
    """
    _check_det_identity_caps(m, n)
    if superset_sign_counts(m, n):
        raise ContractViolation(f"a superset count c(T) is nonzero at (m={m}, n={n})")
    ring = IntPolyRing(m * n * n)
    residual = RingElement(ring, ring.zero, _normalized=True)
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
    (cardinality, mask) order, and verifies the expansion over every
    commutative ring (:func:`_check_certificate`) before returning it.
    """
    _check_det_identity_caps(m, n)
    certificate = [
        (SubsetMask(bits, m), (-1) ** (n - k) * math.comb(m - k - 1, n - k))
        for k in range(1, n + 1)
        for bits in masks_of_cardinality(m, k)
    ]
    _check_certificate(m, n, certificate)
    return certificate


def _check_certificate(m: int, n: int, certificate: Sequence[tuple[SubsetMask, int]]) -> None:
    """Raise ``ContractViolation`` unless det(A_1 + ... + A_m) equals
    sum c_S * det(A_S) over the listed (S, c_S), for all matrices over
    every commutative ring.

    Expand each determinant over the maps f from the n rows to the
    members, as in :func:`check_alternating_det_identity`: det(rows f)
    with image T occurs in det(A_S) iff S contains T, and on generic
    matrices these terms are independent.  So the expansion holds iff
    the c_S of the listed S that contain T sum to 1, for every T with
    1 <= |T| <= n.  The list must name every S with 1 <= |S| <= n once,
    in (cardinality, mask) order, and give all S of one size k the one
    coefficient c_k; then a t-set T lies in C(m - t, k - t) of the
    k-sets, and the test is sum_{k=t}^{n} C(m - t, k - t) * c_k = 1 for
    t = 1..n.  Each c_k is read from the list.
    """
    coeffs = {mask.cardinality(): c for mask, c in certificate}
    ok = (
        [(mask.m, mask.bits) for mask, _ in certificate]
        == [(m, bits) for k in range(1, n + 1) for bits in masks_of_cardinality(m, k)]
        and all(coeffs[mask.cardinality()] == c for mask, c in certificate)
        and all(
            sum(math.comb(m - t, k - t) * coeffs[k] for k in range(t, n + 1)) == 1
            for t in range(1, n + 1)
        )
    )
    if not ok:
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

    The sum is taken one of two ways, whichever a closed-form count finds
    cheaper (:func:`_recurrence_is_cheaper`): member by member
    (:func:`_recurrence_homogeneous_sum`), or by a Gray walk of all 2^m
    points (:func:`_ring_alternating_sum`).  A product's vectors are
    split into one family per component, each summed so.
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

    engine = _recurrence_homogeneous_sum if _recurrence_is_cheaper(poly, degree, m) else _ring_alternating_sum
    if isinstance(ring, ProductRing):  # one family per component
        value = tuple(engine(poly, c, fam) for c, fam in zip(ring.components, zip(*(zip(*v) for v in raw_vectors))))
    else:
        value = engine(poly, ring, raw_vectors)
    return RingElement(ring, value, _normalized=True)


def _recurrence_is_cheaper(poly: SparsePoly, degree: int, m: int) -> bool:
    # Ring products, counted without listing a divisor: the recurrence
    # reads at most d + 1 vectors, each taking about one product per pair
    # b <= a <= e for each term e, which is prod_i C(e_i + 2, 2) pairs,
    # plus a fixed cost per call, its plan and its state lists, worth
    # about 5 products of the walk; the walk evaluates f at 2^m points,
    # about d + 1 products per term.  The fixed cost sends m = 1 to the
    # walk, where the recurrence took 1.1-5.7x its time.
    pairs = sum(math.prod(math.comb(e + 2, 2) for e in exps if e) for exps in poly.terms)
    return 5 + min(m, degree + 1) * pairs <= (1 << m) * len(poly.terms) * (degree + 1)


def _recurrence_homogeneous_sum(poly: SparsePoly, ring: Ring, vectors) -> object:
    """The alternating sum, one vector at a time, on the values' ``+ - *``.

    Let t(a) be the signed sum, over the subsets of the vectors so far,
    of x^a at their sum, for each a that divides a term of f.  Expanding
    (p + v)^a, vector v takes t(a) to -sum over b < a of C(a, b) * t(b) *
    v^(a - b), with C(a, b) = prod_i C(a_i, b_i).  From t = 1 at a = 0
    and 0 elsewhere, the answer is sum c_e * t(e) over the terms c_e x^e
    of f.  A state of degree k is 0 once k + 1 vectors are in, and zero
    states stay zero, so the loop stops there.  The states are integer
    polynomials in the coordinates, so one final ``ring.normalize`` (mod N
    on residues) gives the walk's value.
    """
    support = sorted({i for exps in poly.terms for i, e in enumerate(exps) if e})
    steps, moves, ends = _homogeneous_plan(tuple(tuple(exps[i] for i in support) for exps in poly.terms))
    zero, one = ring.zero, ring.one
    state = [one] + [zero] * (len(moves) - 1)
    for v in vectors:
        point = [v[i] for i in support]
        power = [one]
        for prev, i in steps:
            power.append(power[prev] * point[i])
        new = [zero] * len(moves)
        for t, out in zip(state, moves):
            if t:
                for target, coeff, d in out:
                    new[target] -= coeff * t * power[d]
        state = new
        if not any(state):
            break
    return ring.normalize(sum((c * state[k] for k, c in zip(ends, poly.terms.values())), zero))


@functools.lru_cache(maxsize=64)
def _homogeneous_plan(exponents: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple, tuple]:
    """The recurrence's plan for terms with these exponents over the
    variables that occur, cached so that polynomials of one shape share
    it over every ring: (steps, moves, ends) over the divisors a of the
    terms.  Divisor k > 0 is the power v^a = power[prev] * v_i for
    steps[k - 1] = (prev, i); moves[k] lists (target, C(target, a),
    target - a) for each target above a; ends[j] is the divisor that is
    term j itself.
    """
    # In lexicographic order, 0 comes first and a - u before a, u the unit
    # at the first i with a_i > 0, so that v^a is v^(a - u) * v_i.
    divisors = sorted({a for e in exponents for a in itertools.product(*(range(k + 1) for k in e))})
    index = {a: k for k, a in enumerate(divisors)}
    steps = []
    for a in divisors[1:]:
        i = next(i for i, k in enumerate(a) if k)
        steps.append((index[a[:i] + (a[i] - 1,) + a[i + 1:]], i))
    moves = [[] for _ in divisors]
    for target, a in enumerate(divisors):
        for b in itertools.product(*(range(k + 1) for k in a)):
            if b != a:
                moves[index[b]].append((target, math.prod(map(math.comb, a, b)), index[tuple(map(operator.sub, a, b))]))
    return tuple(steps), tuple(map(tuple, moves)), tuple(index[e] for e in exponents)


def _ring_alternating_sum(poly: SparsePoly, ring: Ring, vectors) -> object:
    """The same sum by a Gray walk of the 2^m points, each evaluated by
    ``eval_raw``; it checks the recurrence in the
    ``homogeneous-lift-agreement`` fuzz suite.
    """
    add, sub = ring.add, ring.sub
    acc = poly.eval_raw(ring, [ring.zero] * poly.var_count)  # empty subset: f(0)
    for bits, point in gray_sums(vectors, *array_ops(ring.add, ring.sub)):
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
