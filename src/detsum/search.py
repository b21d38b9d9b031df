"""Small-subset searches for invertible sums, and what defeats them.

Over a field (or any local ring) a family of n x n matrices with an
invertible total sum always contains a subfamily of at most n matrices
whose sum is invertible, and n is tight.  Over rings with two or more
maximal ideals that bound fails; this module builds the standard
counterexample family over Z/N, computes the stabilizing chain of
determinant ideals over Z and Z/N, and carries the same story for plain
ring elements over products of prime fields, including an exhaustive
miner for mixed-characteristic counterexamples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    ContractViolation,
    InvalidParameters,
    MixedComponentFields,
    RingMismatch,
    SearchSpaceTooLarge,
    TooManyElements,
    TooManyMatrices,
    UnsupportedRing,
)
from .matrices import SquareMatrix, family_ring_shape, lift_family
from .rings import ModRing, PrimeField, ProductRing, RingElement
from .subsets import MAX_FAMILY, SubsetMask, search_order_sums

__all__ = [
    "IdealChain",
    "SemilocalInstance",
    "find_invertible_subsum",
    "local_counterexample_matrices",
    "ideal_chain",
    "semilocal_find_unit_subsum",
    "embed_product_to_matrices",
    "semilocal_counterexample_instances",
    "mixed_char_counterexample_search",
    "IDEAL_CHAIN_FAMILY_CAP",
    "MINER_CAPS",
]

IDEAL_CHAIN_FAMILY_CAP = 20
MINER_CAPS = {"max_fields": 4, "max_field_size": 7, "max_family": 5}
MINER_MULTISET_BUDGET = 5_000_000


def find_invertible_subsum(
    matrices: Sequence[SquareMatrix], bound: int
) -> Optional[SubsetMask]:
    """First nonempty subset of size <= bound whose sum is invertible.

    "First" in (cardinality, mask value) order, so the result is a
    minimal witness.  Over a field or local ring this succeeds whenever
    the total sum is invertible and bound >= n; over other rings it may
    legitimately find nothing.
    """
    ring, _ = family_ring_shape(matrices)
    m = len(matrices)
    if m > MAX_FAMILY:
        raise TooManyMatrices(f"family of {m} exceeds the {MAX_FAMILY}-element limit")
    if not 1 <= bound <= m:
        raise InvalidParameters(f"bound must be in [1, {m}], got {bound}")
    lift = lift_family(ring, [a.rows for a in matrices], bound)
    det, is_unit = lift.det, lift.is_unit
    for bits, value in search_order_sums(lift.members, lift.add, bound):
        if is_unit(det(value)):
            return SubsetMask(bits, m)
    return None


def local_counterexample_matrices(
    modulus: int, m1: int, m2: int, n: int
) -> list[SquareMatrix]:
    """n+1 matrices over Z/N whose total is the identity but whose small
    subset sums are never invertible.

    Needs m1 + m2 = 1 (mod N) with both residues non-units, which forces
    N to have at least two distinct prime factors.  The first n matrices
    put m1 in one diagonal slot each; the last is m2 times the identity.
    Every subset of size <= n then has determinant 0, m1^n, or a power
    of m2, all non-units.  A family of more than ``MAX_FAMILY`` members is
    refused before any matrix is built.
    """
    if modulus < 2:
        raise InvalidParameters(f"modulus must be at least 2, got {modulus}")
    if n < 1:
        raise InvalidParameters(f"matrix size must be positive, got {n}")
    ring = ModRing(modulus)
    r1, r2 = m1 % modulus, m2 % modulus
    if (r1 + r2) % modulus != 1 % modulus:
        raise InvalidParameters(f"{m1} + {m2} is not 1 modulo {modulus}")
    if math.gcd(r1, modulus) == 1:
        raise InvalidParameters(f"{m1} is a unit modulo {modulus}")
    if math.gcd(r2, modulus) == 1:
        raise InvalidParameters(f"{m2} is a unit modulo {modulus}")
    if n + 1 > MAX_FAMILY:
        raise TooManyMatrices(f"family of {n + 1} exceeds the {MAX_FAMILY}-element limit")
    family = [
        SquareMatrix.diagonal(ring, [r1 if i == j else 0 for j in range(n)])
        for i in range(n)
    ]
    family.append(SquareMatrix.diagonal(ring, [r2] * n))
    return family


@dataclass(frozen=True)
class IdealChain:
    """Principal generators of the chain of determinant ideals.

    ``generators[j]`` generates the ideal spanned by all subset-sum
    determinants with |S| <= j.  ``modulus`` is 0 for the integers and N
    for Z/N; over Z/N each generator is stored as gcd(., N), so the zero
    ideal at positions >= 1 appears as N itself.  generators[0] is the
    empty-sum convention 0, and generators[j+1] always divides
    generators[j] (the chain ascends; every integer divides 0).  For the
    matrix size n, g_0..g_n come from the subsets of at most n members,
    and g_j = g_n for j > n by the subset-sum identity.
    """

    modulus: int
    generators: tuple[int, ...]


def ideal_chain(matrices: Sequence[SquareMatrix]) -> IdealChain:
    """Generators g_0..g_m of the subset-sum determinant ideals.

    The chain stabilizes at the matrix size n: for |S| > n the identity
    writes det(sum_S A_i) as a signed sum of the determinants of S's
    proper subsets, so by induction it lies in the ideal of the sums of
    at most n members, and g_j = g_n for every j >= n.  So g_0..g_n are
    taken from the sum_{k<=n} C(m, k) subsets of at most n members, and
    g_n is repeated up to position m; the full-family determinant is
    divisible by g_n.  Only the integers and Z/N are supported, where
    every ideal is principal and a gcd is a canonical generator.
    """
    ring, n = family_ring_shape(matrices)
    if ring.kind not in ("integers", "mod"):  # F_p is a ModRing of its own kind
        raise UnsupportedRing(f"ideal chains need Z or Z/N, got {ring!r}")
    modulus = ring.n if ring.kind == "mod" else 0
    m = len(matrices)
    if m > IDEAL_CHAIN_FAMILY_CAP:
        raise TooManyMatrices(
            f"family of {m} exceeds the {IDEAL_CHAIN_FAMILY_CAP}-element chain cap"
        )
    top = min(n, m)
    lift = lift_family(ring, [a.rows for a in matrices], top)
    det, finish = lift.det, lift.finish
    generators = [0]
    acc = 0
    for bits, value in search_order_sums(lift.members, lift.add, top):
        if bits.bit_count() == len(generators) + 1:  # the level below is complete
            generators.append(math.gcd(acc, modulus))  # gcd(acc, 0) = acc
        acc = math.gcd(acc, finish(det(value)))
    generators += [math.gcd(acc, modulus)] * (m - top + 1)
    return IdealChain(modulus=modulus, generators=tuple(generators))


@dataclass(frozen=True)
class SemilocalInstance:
    """Ring elements in a finite product of prime fields.

    The product models a reduced ring with one maximal ideal per
    component; an element is a unit iff every coordinate is nonzero.
    """

    ring: ProductRing
    elements: tuple[RingElement, ...] = field(default=())

    def __post_init__(self):
        if not all(isinstance(c, PrimeField) for c in self.ring.components):
            raise UnsupportedRing("instance components must all be prime fields")
        for el in self.elements:
            if el.ring != self.ring:
                raise RingMismatch(f"element from {el.ring!r} in instance over {self.ring!r}")

    @classmethod
    def from_raw(cls, ring: ProductRing, tuples: Sequence[Sequence[int]]) -> "SemilocalInstance":
        return cls(ring, tuple(ring.element(tuple(t)) for t in tuples))

    @property
    def n_components(self) -> int:
        return self.ring.arity

    def raw_elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(el.value for el in self.elements)


def semilocal_find_unit_subsum(
    instance: SemilocalInstance, bound: int
) -> Optional[SubsetMask]:
    """First nonempty subset of size <= bound summing to a unit.

    Succeeds whenever all component fields share one characteristic, the
    total sum is a unit, and bound covers the component count; with mixed
    characteristics it may find nothing even then.  The search is
    :func:`find_invertible_subsum` on the 1x1 matrices of the elements,
    since a 1x1 matrix is invertible exactly when its entry is a unit.
    """
    m = len(instance.elements)
    if m > MAX_FAMILY:
        raise TooManyElements(f"family of {m} exceeds the {MAX_FAMILY}-element limit")
    return find_invertible_subsum(
        [SquareMatrix(instance.ring, [[el.value]]) for el in instance.elements], bound
    )


def embed_product_to_matrices(instance: SemilocalInstance) -> list[SquareMatrix]:
    """Each product element becomes the diagonal matrix of its coordinates.

    All components must be the same prime field F_p; the image then lives
    in the n x n matrices over F_p, and an element is a unit exactly when
    its image is invertible, so matrix subset searches transfer back.
    """
    components = instance.ring.components
    first = components[0]
    if any(c != first for c in components):
        raise MixedComponentFields(
            f"embedding needs identical component fields, got {components!r}"
        )
    return [
        SquareMatrix.diagonal(first, list(el.value)) for el in instance.elements
    ]


def semilocal_counterexample_instances() -> tuple[SemilocalInstance, SemilocalInstance]:
    """The two built-in mixed-characteristic counterexample families.

    (a) four elements of F2 x F3 x F5 summing to 1 with no proper subset
    summing to a unit; (b) five pairwise-distinct elements of
    F2 x F3 x F5 x F7 with the same property.  Both are re-verified
    exhaustively at construction time.
    """
    f2, f3, f5, f7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
    instances = []
    # All but the last member; the last one closes the total to 1.
    for label, fields, first in (
        ("a", [f2, f3, f5], [(0, 1, 1), (1, 2, 0), (1, 2, 0)]),
        ("b", [f2, f3, f5, f7], [(0, 0, 0, 1), (1, 2, 0, 0), (1, 2, 0, 1), (1, 2, 0, 2)]),
    ):
        ring = ProductRing(fields)
        partial = ring.zero
        for t in first:
            partial = ring.add(partial, ring.normalize(t))
        inst = SemilocalInstance.from_raw(ring, first + [ring.sub(ring.one, partial)])
        raw = inst.raw_elements()
        total = ring.zero
        for t in raw:
            total = ring.add(total, t)
        if not ring.is_unit(total):
            raise ContractViolation(f"instance ({label}): total sum is not a unit")
        if semilocal_find_unit_subsum(inst, len(raw) - 1) is not None:
            raise ContractViolation(f"instance ({label}): some proper subset sums to a unit")
        instances.append(inst)
    instance_a, instance_b = instances
    if len(set(instance_b.raw_elements())) != len(instance_b.elements):
        raise ContractViolation("instance (b): elements are not pairwise distinct")
    return instance_a, instance_b


def mixed_char_counterexample_search(
    component_fields: Sequence[PrimeField], m: int, subset_bound: int
) -> list[SemilocalInstance]:
    """Exhaustively mine m-element families defeating the small-subset bound.

    Enumerates multisets (families up to permutation) over the product of
    the given prime fields whose total sum is a unit while no nonempty
    subset of size <= subset_bound sums to a unit.  Since any unit
    element alone would qualify as a size-1 subset, only non-unit
    elements can appear, which prunes the pool up front.  Over
    equal-characteristic components the result is provably empty when
    subset_bound covers the component count; over two components it is
    empty regardless of characteristics once subset_bound >= 2.

    The pool is lifted once (to Z/M, M the product of the primes, when
    they are distinct).  The multisets are walked depth-first, in
    ``itertools.combinations_with_replacement`` order, and each depth
    keeps the sums of its prefix's subsets of fewer than subset_bound
    members.  A new member is tested only in the sums that contain it,
    and a prefix with a unit among them is dropped with every multiset
    that extends it.  The last member is tested in the total first.
    """
    caps = MINER_CAPS
    if not 1 <= len(component_fields) <= caps["max_fields"]:
        raise SearchSpaceTooLarge(
            f"miner accepts 1..{caps['max_fields']} component fields, got {len(component_fields)}"
        )
    for f in component_fields:
        if not isinstance(f, PrimeField):
            raise UnsupportedRing(f"components must be prime fields, got {f!r}")
        if f.p > caps["max_field_size"]:
            raise SearchSpaceTooLarge(
                f"component field size {f.p} exceeds the cap {caps['max_field_size']}"
            )
    if not 1 <= m <= caps["max_family"]:
        raise SearchSpaceTooLarge(
            f"miner accepts family sizes 1..{caps['max_family']}, got {m}"
        )
    if subset_bound < 1:
        raise InvalidParameters(f"subset bound must be positive, got {subset_bound}")

    ring = ProductRing(component_fields)
    pool = [
        t
        for t in itertools.product(*(range(f.p) for f in ring.components))
        if not ring.is_unit(t)
    ]
    multisets = math.comb(len(pool) + m - 1, m)
    if multisets > MINER_MULTISET_BUDGET:
        raise SearchSpaceTooLarge(
            f"{multisets} candidate multisets exceed the budget {MINER_MULTISET_BUDGET}"
        )

    bound = min(subset_bound, m)
    lift = lift_family(ring, [((t,),) for t in pool], m)
    members, add, det, is_unit = lift.members, lift.add, lift.det, lift.is_unit
    found = []
    chosen = [0] * m

    def extend(depth: int, start: int, total, levels: list) -> None:
        # The pool indices chosen[:depth] sum to total, and levels[k] holds
        # the sums of their subsets of k + 1 members, for k + 1 < bound.  No
        # subset of at most bound of them sums to a unit; pool members are
        # never units, so a new member alone needs no test.
        if depth == m - 1:
            kept = [s for level in levels for s in level]
            for i in range(start, len(members)):
                x = members[i]
                if is_unit(det(add(total, x))) and not any(is_unit(det(add(s, x))) for s in kept):
                    chosen[depth] = i
                    found.append(SemilocalInstance.from_raw(ring, [pool[j] for j in chosen]))
            return
        for i in range(start, len(members)):
            x = members[i]
            grown = [[x]]  # the sums that contain x, by size
            for level in levels:
                sums = [add(s, x) for s in level]
                if any(is_unit(det(s)) for s in sums):
                    break
                grown.append(sums)
            else:
                chosen[depth] = i
                extend(depth + 1, i, add(total, x), [a + b for a, b in zip(levels, grown)])

    # A member minus itself is the lifted zero, whatever the lift.
    extend(0, 0, lift.sub(members[0], members[0]), [[] for _ in range(bound - 1)])
    return found
