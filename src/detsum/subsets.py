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
subtraction per step.  :func:`search_order_batches` hands out the
subsets in search order as batches, each one partial sum plus a list of
values, the members or the sums of their pairs, that it is added to;
:func:`search_order_sums` flattens them into one addition per sum.
:func:`first_residue_subsum` does not walk: over Z/M it keeps the set of
sums of each cardinality as one M-bit int, so its cost follows M, not
the number of subsets.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

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


def search_order_batches(
    members: Sequence[T], add: Callable[[T, T], T], bound: int
) -> Iterator[tuple[int, Optional[T], list[int], Sequence[T], int]]:
    """Yield (high, partial, bits, values, count) for the nonempty subsets
    of size <= bound, in the order of :func:`masks_in_search_order`.

    A batch stands for the subsets ``high | bits[j]``, j < count, whose
    sums are ``add(partial, values[j])``, or ``values[j]`` itself when
    ``partial`` is None.  ``values`` holds the members at cardinalities 1
    and 2; at cardinality k >= 3 it is the table of the pair sums
    {a, b}, a < b, in ascending mask order, and ``high`` holds k - 2
    members above the pair, whose sum is ``partial``.  The pairs below
    member c are the first C(c, 2), so a batch reads a prefix of the
    table, and the table is extended lazily, to the pairs below the
    highest member that the walk has reached: a walk that stops at a
    pair or single has built no pair, and one that stops at three
    members none above them.  Within one cardinality the highs are
    walked depth-first, highest member first, which is ascending mask
    order, so at most ``bound - 2`` partial sums of them are alive at a
    time.  No batch, sum or table entry may be modified.
    """
    m = len(members)
    top = min(bound, m)
    if top < 1:
        return
    member_bits = [1 << t for t in range(m)]
    yield 0, None, member_bits, members, m
    for b in range(1, m if top >= 2 else 0):
        yield member_bits[b], members[b], member_bits, members, b
    pair_bits: list[int] = []
    pair_values: list = []
    reached = 1  # the table holds the pairs {a, b} with b < reached

    def above(k: int, limit: int, high: int, partial):
        # k more high members from {2..limit-1} on top of those in high, whose
        # sum is partial (None when high is empty), then the pairs below them.
        nonlocal reached
        for t in range(k + 1, limit):
            total = members[t] if partial is None else add(partial, members[t])
            if k > 1:
                yield from above(k - 1, t, high | 1 << t, total)
                continue
            for b in range(reached, t):
                pair_bits.extend(member_bits[b] | member_bits[a] for a in range(b))
                pair_values.extend(add(members[b], members[a]) for a in range(b))
            reached = max(reached, t)
            yield high | 1 << t, total, pair_bits, pair_values, t * (t - 1) // 2

    for k in range(3, top + 1):
        yield from above(k - 2, m, 0, None)


def search_order_sums(
    members: Sequence[T], add: Callable[[T, T], T], bound: int
) -> Iterator[tuple[int, T]]:
    """Yield (mask, sum) for the nonempty subsets of size <= bound.

    The order is that of :func:`masks_in_search_order`: the batches of
    :func:`search_order_batches`, one ``add`` per sum onto the batch's
    partial sum.  A sum must not be modified; a one-member sum is the
    member itself.
    """
    for high, partial, bits, values, count in search_order_batches(members, add, bound):
        sums = values if partial is None else map(add, repeat(partial), values)
        for mask, value in zip(bits[:count], sums):
            yield high | mask, value


def first_residue_subsum(residues: Sequence[int], modulus: int, targets: int, bound: int) -> Optional[int]:
    """The first mask of :func:`masks_in_search_order`, of at most bound
    members, whose sum of ``residues`` mod ``modulus`` is a bit of
    ``targets``, or None.

    Bellman's table of distinct sums over Z/M, M = ``modulus``, each set
    of residues one M-bit int, bit s for residue s, so that adding r to
    every sum in a set rotates it by r.  ``levels[k]`` holds the sums of
    k of the members taken so far, and member i adds itself to the sums
    of k - 1 of the members before it, k from the top down.  The least k
    whose level meets ``targets`` is the witness's size.  The mask is
    read back from the top: a mask below 2^(i+1) is below every mask
    with a higher member, so the highest member is the first i whose
    snapshot ``snaps[i][k]`` meets the targets, which then move by -r_i
    for the k - 1 members below it.  A member alone in ``targets`` is
    the witness; without one, the first pair in them ends the table at
    its higher member.  Residues and targets lie in [0, M).  The cost is
    at most m * bound rotations of M-bit ints and as many snapshot reads.
    """
    single = next((1 << i for i, r in enumerate(residues) if targets >> r & 1), None)
    if single is not None or bound == 1:
        return single
    full = (1 << modulus) - 1
    levels = [1] + [0] * bound  # the empty sum is 0
    snaps = []
    for i, r in enumerate(residues):
        back = modulus - r
        for k in range(min(bound, i + 1), 0, -1):
            below = levels[k - 1]
            levels[k] |= (below << r | below >> back) & full
        snaps.append(levels[:])
        if levels[2] & targets:
            break
    k = next((k for k in range(2, bound + 1) if levels[k] & targets), 0)
    if not k:
        return None
    mask, top = 0, len(snaps)
    while k:
        top = next(i for i in range(top) if snaps[i][k] & targets)
        mask |= 1 << top
        r = residues[top]
        targets = (targets >> r | targets << (modulus - r)) & full  # each target less r
        k -= 1
    return mask
