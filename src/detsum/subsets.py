"""Bitmask subsets of a fixed index family, and the walks over them.

A mask selects indices out of ``{0, ..., m-1}`` with ``m <= 64``.  All
search routines in this package enumerate subsets by increasing
cardinality, ties broken by ascending mask value, so the first hit is
always the minimal witness in that order.

This module is the one place that walks subsets and builds their sums.
A walk takes the members and the operation that sums two of them, so it
does not know what a member is: a lifted family's packed int (one
``int`` addition per sum, see :func:`detsum.matrices.lift_family`), a
plain int, or a flat array of ring values (a matrix's cells row by row,
or a vector) summed cell by cell with :func:`array_ops`.
:func:`gray_sums` visits every nonempty subset with one addition or
subtraction per step, and :func:`search_order_sums` visits subsets in
search order with one addition per sum.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, TypeVar

MAX_FAMILY = 64

T = TypeVar("T")


class SubsetMask:
    """Immutable subset of ``{0, ..., m-1}`` stored as a bitmask.

    Invariant: every set bit is below ``m``.
    """

    __slots__ = ("bits", "m")

    def __init__(self, bits: int, m: int):
        if not 0 <= m <= MAX_FAMILY:
            raise ValueError(f"family size must be in [0, {MAX_FAMILY}], got {m}")
        if bits < 0 or bits >> m:
            raise ValueError(f"mask {bits:#x} has bits outside a family of size {m}")
        self.bits = bits
        self.m = m

    @classmethod
    def from_indices(cls, m: int, indices: Iterable[int]) -> "SubsetMask":
        bits = 0
        for i in indices:
            if not 0 <= i < m:
                raise ValueError(f"index {i} outside family of size {m}")
            bits |= 1 << i
        return cls(bits, m)

    @classmethod
    def empty(cls, m: int) -> "SubsetMask":
        return cls(0, m)

    @classmethod
    def full(cls, m: int) -> "SubsetMask":
        return cls((1 << m) - 1, m)

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == (1 << self.m) - 1

    def sort_key(self) -> tuple[int, int]:
        """Key for the canonical (cardinality, mask value) search order."""
        return (self.bits.bit_count(), self.bits)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.m and (self.bits >> i) & 1 == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubsetMask)
            and self.bits == other.bits
            and self.m == other.m
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.m))

    def __repr__(self) -> str:
        inside = ", ".join(map(str, self))
        return f"SubsetMask({{{inside}}}, m={self.m})"


def masks_of_cardinality(m: int, k: int) -> Iterator[int]:
    """Raw masks of all k-subsets of ``{0..m-1}`` in ascending numeric order."""
    if k == 0:
        yield 0
        return
    if k > m:
        return
    mask = (1 << k) - 1
    limit = 1 << m
    while mask < limit:
        yield mask
        # Gosper's hack: next larger mask with the same popcount.
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


def masks_in_search_order(
    m: int,
    max_cardinality: int | None = None,
    include_empty: bool = False,
) -> Iterator[int]:
    """Raw masks by increasing cardinality, ties by ascending value."""
    top = m if max_cardinality is None else min(max_cardinality, m)
    start = 0 if include_empty else 1
    for k in range(start, top + 1):
        yield from masks_of_cardinality(m, k)


def array_ops(add: Callable, sub: Callable) -> tuple[Callable, Callable]:
    """(add, sub) of two flat arrays of one length, cell by cell by ``add`` and ``sub``.

    A matrix walks as its n^2 cells, row by row, and a vector as its
    entries.  Each returns a new list, so a walk may yield its sums and
    keep them.
    """

    def array_add(a, b):
        return list(map(add, a, b))

    def array_sub(a, b):
        return list(map(sub, a, b))

    return array_add, array_sub


def gray_sums(
    members: Sequence[T], add: Callable[[T, T], T], sub: Callable[[T, T], T]
) -> Iterator[tuple[int, T]]:
    """Yield (mask, sum) for the 2^m - 1 nonempty subsets, in Gray order.

    Step k moves from subset gray(k-1) to gray(k) = k ^ (k >> 1) by
    toggling one member, and the sum follows with one ``add`` or ``sub``
    of that member.  The first sum is member 0 itself.  Every running sum
    is a subset sum, never a difference.  Exact ring addition is
    order-independent, so any signed total over the walk matches the
    cardinality-ordered one exactly.
    """
    total = members[0]
    yield 1, total
    gray = 1
    for k in range(2, 1 << len(members)):
        bit = k & -k
        gray ^= bit
        member = members[bit.bit_length() - 1]
        total = add(total, member) if gray & bit else sub(total, member)
        yield gray, total


def search_order_sums(
    members: Sequence[T], add: Callable[[T, T], T], bound: int
) -> Iterator[tuple[int, T]]:
    """Yield (mask, sum) for the nonempty subsets of size <= bound.

    The order is that of :func:`masks_in_search_order`.  Within one
    cardinality the walk is depth-first, highest member first, which is
    ascending mask order; each sum is one ``add`` onto the partial sum
    of the subset's higher members, and at most ``bound`` partial sums
    are alive at a time.  A sum must not be modified; a one-member sum is
    the member itself.
    """

    def below(k: int, limit: int, high: int, partial):
        # k more members from {0..limit-1} on top of those in high, whose sum
        # is partial (None when high is empty).
        for t in range(k - 1, limit):
            total = members[t] if partial is None else add(partial, members[t])
            if k == 1:
                yield high | 1 << t, total
            else:
                yield from below(k - 1, t, high | 1 << t, total)

    for k in range(1, min(bound, len(members)) + 1):
        yield from below(k, len(members), 0, None)
