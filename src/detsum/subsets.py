"""Bitmask subsets of a fixed index family, and the walks over them.

A mask selects indices out of ``{0, ..., m-1}`` with ``m <= 64``.  All
search routines in this package enumerate subsets by increasing
cardinality, ties broken by ascending mask value, so the first hit is
always the minimal witness in that order.

This module is the one place that walks subsets and builds their sums.
A member is a raw array (a sequence of rows of ring values); a vector is
a one-row array and a ring element a 1x1 array.  :func:`gray_sums` visits
every nonempty subset with one in-place update per step,
:func:`search_order_sums` visits subsets in search order with one
addition per sum, and :func:`superset_sign_sums` walks all subsets in
Gray order to sum signs over the supersets of each small subset.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_FAMILY = 64


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


def gray_walk(m: int) -> Iterator[tuple[int, int, int]]:
    """Yield (toggled index, added, parity of size) along the Gray code.

    Step k moves from subset gray(k-1) to gray(k) = k ^ (k >> 1) by
    toggling one index, so callers can keep running state with one update
    per step; ``added`` is 1 when that index joins the subset, and
    |gray(k)| has the parity of k.
    """
    gray = 0
    for k in range(1, 1 << m):
        idx = (k & -k).bit_length() - 1
        gray ^= 1 << idx
        yield idx, (gray >> idx) & 1, k & 1


def gray_sums(ring, members: Sequence[Sequence[Sequence[object]]]) -> Iterator[tuple[int, list]]:
    """Yield (parity of size, sum) for the 2^m - 1 nonempty subsets.

    Subsets come in Gray-code order.  The sum is one array, updated in
    place by adding or subtracting one member per step, so it must be
    read before the next step and copied if kept.  Exact ring addition is
    order-independent, so any signed total over the walk matches the
    cardinality-ordered one exactly.
    """
    add, sub = ring.add, ring.sub
    total = [[ring.zero] * len(row) for row in members[0]]
    rows, cols = range(len(total)), range(len(total[0]))
    for idx, added, parity in gray_walk(len(members)):
        op = add if added else sub
        src = members[idx]
        for i in rows:
            row, srow = total[i], src[i]
            for j in cols:
                row[j] = op(row[j], srow[j])
        yield parity, total


def superset_sign_sums(m: int, size: int) -> dict[int, int]:
    """Map each mask T with 1 <= |T| <= size to its nonzero c(T).

    c(T) is the sum of (-1)^|S| over the supersets S of T; ``size`` must
    be at least 1.  One Gray walk visits all 2^m subsets of ``{0..m-1}``
    and keeps the signed count of those visited so far.  A T records that
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


def search_order_sums(
    ring, members: Sequence[Sequence[Sequence[object]]], bound: int
) -> Iterator[tuple[int, Sequence[Sequence[object]]]]:
    """Yield (mask, sum) for the nonempty subsets of size <= bound.

    The order is that of :func:`masks_in_search_order`.  Within one
    cardinality the walk is depth-first, highest member first, which is
    ascending mask order; each sum is one addition onto the partial sum
    of the subset's higher members, and at most ``bound`` partial sums
    are alive at a time.  A sum must not be modified; a one-member sum is
    the member itself.
    """
    add = ring.add

    def below(k: int, limit: int, high: int, partial):
        # k more members from {0..limit-1} on top of those in high, whose sum
        # is partial (None when high is empty).
        for t in range(k - 1, limit):
            if partial is None:
                total = members[t]
            else:
                total = [list(map(add, p, a)) for p, a in zip(partial, members[t])]
            if k == 1:
                yield high | 1 << t, total
            else:
                yield from below(k - 1, t, high | 1 << t, total)

    for k in range(1, min(bound, len(members)) + 1):
        yield from below(k, len(members), 0, None)
