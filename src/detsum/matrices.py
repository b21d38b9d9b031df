"""Square matrices over any supported ring, with exact determinants.

:func:`det_route` is the one choice of determinant algorithm.  Given the
ring and n it returns a function of the matrix's n^2 cells, row by row;
it refuses n > 64.  The routes:

* Z             -- for n <= 7 the Laplace expansion compiled into
  straight-line int code (:func:`_laplace_det`); fraction-free Bareiss
  elimination above, compiled the same way at n = 8
  (:func:`_bareiss_det`, up to ``COMPILED_BAREISS_MAX_N``) and a loop
  past that
* Q             -- each row scaled to integers by the lcm of its
  denominators, the integer route, then divided by the row multipliers
* Z/N and F_p   -- one route: F_p is Z/p (a ``ModRing`` whose prime, of
  at most 4096 bits, is certified), on cells of any integer
  representatives (exact: the determinant is an integer polynomial in
  the entries): the same compiled expansion for n <= 7, reduced mod N
  by the compiled code itself; Gaussian elimination mod N above, where a
  column with no unit to pivot on is cleared by Euclid's steps between
  rows, so N is never factored
* products      -- the cells split into one matrix per component, each
  taking its component's route (the engines walk coprime Z/N and F_p
  products as one Z/M instead; see below)
* Z[x...]       -- the same compiled expansion on the ``SparsePoly``
  entries, which have ``+ - *``, for n <= 7, and Berkowitz above;
  neither ever divides, so both hold over any commutative ring

:func:`det_rows` takes the route per call; a :class:`Lift` takes it once
per family.

:func:`lift_family` readies a family for the engines' subset walks: Z,
Z/N and F_p members, Q members scaled by shared row multipliers, and
members of a product of Z/n_c and F_p with pairwise coprime moduli,
taken by the Chinese remainder theorem into Z/M with M = prod n_c, are
summed as ints, and only each determinant is mapped back.  Such a
product's determinants therefore run the Z/M route.  Each lifted member
is packed into one int, the sum of cell_k * 2^(k*w) over its entries
with one w-bit slot each (Kronecker substitution), so that a subset sum
is one int addition; the returned :class:`Lift` unpacks a sum and runs
its route on the cells.  Other families, and lifted entries too wide for
a 64-bit slot, walk as flat arrays of their n^2 cells, whose
determinant is the route itself.

:func:`minor_floor` gives a lifted family's floor, the ideal of maximal
minors of its members stacked side by side and on top of each other,
which holds every subset-sum determinant; the searches and the ideal
chain stop at it.

Invertibility always reduces to the determinant being a unit; no matrix
inverse is ever formed.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import struct
from fractions import Fraction
from functools import lru_cache, partial
from types import FunctionType
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import MaskOutOfRange, RingMismatch, ShapeMismatch, SizeLimit
from .rings import (
    INTEGERS,
    IntegerRing,
    IntPolyRing,
    ModRing,
    ProductRing,
    RationalRing,
    Ring,
    RingElement,
)
from .subsets import SubsetMask, array_ops

__all__ = [
    "SquareMatrix",
    "subset_sum",
    "det",
    "det_rows",
    "det_route",
    "is_invertible",
    "random_matrix",
]

DET_SIZE_CAP = 64
# The compiled Laplace expansion (_laplace_det) up to this n over Z, Q,
# Z/N, F_p and Z[x...].  us/det at n = 7, expansion/Bareiss/
# elimination mod N: 48/69/- on 64-bit ints, 14/31/32 over Z/10,
# 668/752/849 over Z/(2^512-1), 495/764/735 over F_(2^521-1); at n = 8,
# 152/106/- on 64-bit ints and 1,348/1,948/908 over Z/(2^512-1) (timeit,
# one pinned CPU).  Compiling takes 0.6, 1.2 and 3.7 ms at n = 5, 6 and
# 7.  ms/det over Z[x...] with random entries, expansion/Berkowitz:
# IntPolyRing(2) 0.34/1.37 at n = 5, 1.60/6.20 at 6, 6.0/19.2 at 7;
# IntPolyRing(3) 0.59/2.96, 2.85/16.8, 17.9/152 (median of 15 matrices,
# best of 3 runs, one pinned CPU).
CLOSED_FORM_MAX_N = 7
# Bareiss compiled into straight-line int code (_bareiss_det) above
# CLOSED_FORM_MAX_N up to this n over Z and Q, the loop past it.  us/det,
# loop/compiled, on entries |x| <= 90 and of 67 bits: n = 8 41/12 and
# 90/58, n = 12 136/59 and 406/325 (timeit, one pinned CPU).  Compiling
# costs 1.9 ms at n = 8 and 7.2 ms at n = 12, once per process and n, so
# it pays off only after 60-95 determinants of one size.  det_large
# takes 511 per operation at n = 8 over Z, and no benchmark workload takes
# a Z or Q determinant above n = 8, so the cap stays there until one does.
COMPILED_BAREISS_MAX_N = 8
# Q families walk on integers while n times the bits that the shared row
# scales add to the members' own stays at or below this.  Alt-sum with
# m = n + 1, lifted over unlifted time, crosses 1 near 9000 for n = 5..8.
RATIONAL_LIFT_MAX_EXCESS_BITS = 4096
# Products of Z/n_c and F_p with pairwise coprime moduli walk as Z/M while
# M has at most this many bits.  Per determinant at n = 3..12, Z/M over the
# split product: 0.15-0.54x for F2xF3xF5, 0.35-0.90x for 2x64 bits,
# 0.51-1.01x for 2x128 bits, 0.78-0.98x for 64x521 bits, 1.27-1.45x for
# 2x512 bits (timeit, one pinned CPU).
PRODUCT_LIFT_MAX_BITS = 256


class SquareMatrix:
    """An immutable n x n matrix over one ring.

    ``rows`` holds raw ring values (canonical form) as a tuple of row
    tuples; ``entry`` wraps single entries as :class:`RingElement`.
    """

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring: Ring, rows: Sequence[Sequence[object]]):
        n = len(rows)
        if n < 1:
            raise ShapeMismatch("a square matrix needs at least one row")
        norm = []
        for row in rows:
            if len(row) != n:
                raise ShapeMismatch(f"row of length {len(row)} in a {n}x{n} matrix")
            out = []
            for e in row:
                if isinstance(e, RingElement):
                    if e.ring != ring:
                        raise RingMismatch(f"entry from {e.ring!r} in a matrix over {ring!r}")
                    out.append(e.value)
                else:
                    out.append(ring.normalize(e))
            norm.append(tuple(out))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    @classmethod
    def zero(cls, ring: Ring, n: int) -> "SquareMatrix":
        z = ring.zero
        return _raw_matrix(ring, n, tuple((z,) * n for _ in range(n)))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "SquareMatrix":
        z, o = ring.zero, ring.one
        return _raw_matrix(
            ring, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    @classmethod
    def diagonal(cls, ring: Ring, values: Sequence[object]) -> "SquareMatrix":
        n = len(values)
        if n < 1:
            raise ShapeMismatch("a diagonal matrix needs at least one entry")
        vals = [ring.normalize(v.value if isinstance(v, RingElement) else v) for v in values]
        z = ring.zero
        return _raw_matrix(
            ring, n, tuple(tuple(vals[i] if i == j else z for j in range(n)) for i in range(n))
        )

    def entry(self, i: int, j: int) -> RingElement:
        return RingElement(self.ring, self.rows[i][j], _normalized=True)

    def __getitem__(self, ij: tuple[int, int]) -> RingElement:
        i, j = ij
        return self.entry(i, j)

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")
        if self.n != other.n:
            raise ShapeMismatch(f"{self.n}x{self.n} vs {other.n}x{other.n}")
        add = self.ring.add
        return _raw_matrix(
            self.ring,
            self.n,
            tuple(
                tuple(add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def scaled(self, c) -> "SquareMatrix":
        """Entrywise scalar multiple by a ring element (or plain int)."""
        ring = self.ring
        if isinstance(c, RingElement):
            if c.ring != ring:
                raise RingMismatch(f"scalar from {c.ring!r}, matrix over {ring!r}")
            cv = c.value
        elif isinstance(c, int) and not isinstance(c, bool):
            cv = ring.from_int(c)
        else:
            cv = ring.normalize(c)
        mul = ring.mul
        return _raw_matrix(
            ring, self.n, tuple(tuple(mul(cv, e) for e in row) for row in self.rows)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SquareMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.rows))

    def __repr__(self) -> str:
        return f"SquareMatrix({self.ring!r}, {[list(r) for r in self.rows]!r})"


def _raw_matrix(ring: Ring, n: int, rows: tuple[tuple[object, ...], ...]) -> SquareMatrix:
    # Internal fast path: entries must already be canonical raw values.
    mat = SquareMatrix.__new__(SquareMatrix)
    object.__setattr__(mat, "ring", ring)
    object.__setattr__(mat, "n", n)
    object.__setattr__(mat, "rows", rows)
    return mat


def family_ring_shape(matrices: Sequence[SquareMatrix]) -> tuple[Ring, int]:
    """Common (ring, n) of a nonempty family; raises on any mismatch."""
    if not matrices:
        raise ShapeMismatch("empty matrix family")
    ring = matrices[0].ring
    n = matrices[0].n
    for a in matrices[1:]:
        if a.ring != ring:
            raise RingMismatch(f"family mixes {ring!r} and {a.ring!r}")
        if a.n != n:
            raise ShapeMismatch(f"family mixes sizes {n} and {a.n}")
    return ring, n


def subset_sum(matrices: Sequence[SquareMatrix], mask: SubsetMask) -> SquareMatrix:
    """Sum of the selected matrices; the empty mask gives the zero matrix."""
    ring, n = family_ring_shape(matrices)
    if mask.m != len(matrices):
        raise MaskOutOfRange(
            f"mask over a family of {mask.m}, got {len(matrices)} matrices"
        )
    add = ring.add
    rows = [[ring.zero] * n for _ in range(n)]
    for idx in mask:
        src = matrices[idx].rows
        for i in range(n):
            row = rows[i]
            srow = src[i]
            for j in range(n):
                row[j] = add(row[j], srow[j])
    return _raw_matrix(ring, n, tuple(tuple(r) for r in rows))


def _det_berkowitz(ring: Ring, rows: Sequence[Sequence[object]]) -> object:
    # Berkowitz (1984): the characteristic polynomial of each trailing
    # principal submatrix follows from the next smaller one by a Toeplitz
    # product, in O(n^4) ring operations and without division.
    n = len(rows)
    add, mul, zero = ring.add, ring.mul, ring.zero

    def dot(xs, ys):
        acc = zero
        for x, y in zip(xs, ys):
            acc = add(acc, mul(x, y))
        return acc

    # poly = coefficients of det(x*I - A_k), leading first, where A_k is the
    # trailing submatrix from row and column k on.
    poly = [ring.one, ring.neg(rows[n - 1][n - 1])]
    for k in range(n - 2, -1, -1):
        head = rows[k][k + 1:]
        block = [row[k + 1:] for row in rows[k + 1:]]
        vec = [row[k] for row in rows[k + 1:]]
        # Toeplitz column: 1, -a_kk, then -head . block^i . vec for i < n-k-1.
        toeplitz = [ring.one, ring.neg(rows[k][k]), ring.neg(dot(head, vec))]
        for _ in range(n - k - 2):
            vec = [dot(row, vec) for row in block]
            toeplitz.append(ring.neg(dot(head, vec)))
        poly = [dot(toeplitz[i::-1], poly) for i in range(len(poly) + 1)]
    return poly[n] if n % 2 == 0 else ring.neg(poly[n])


def _minor_keys(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (rows, columns) of every k x k minor of an n x n matrix, 0 < k
    <= n, by k, rows, then columns; the last is the whole matrix."""
    return [key for k in range(1, n + 1) for key in itertools.product(itertools.combinations(range(n), k), repeat=2)]


def _compile(name: str, n: int, body: Sequence[str], head: str = "cells", **names) -> Callable:
    """``name(head)`` with ``body``, its code one statement a line; when
    ``cells``, an n x n int matrix's n^2 cells row by row, is its first
    parameter, they are first unpacked into the locals ``c0``, ``c1``,
    ....  ``names`` are the globals that it calls.
    """
    lines = [f"{_cells(n)} = cells", *body] if head.startswith("cells") else body
    source = f"def {name}({head}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = dict(names)
    exec(compile(source, f"<{name} of {n}x{n}>", "exec"), namespace)
    return namespace[name]


def _cells(n: int) -> str:
    # The locals c0, c1, ... that an n x n matrix's cells are unpacked into.
    return f"{', '.join(f'c{k}' for k in range(n * n))},"


def _expansion(n: int, keys) -> tuple[list[str], list[str]]:
    """(body, names): straight-line code on the cells ``c0``, ``c1``, ...
    of an n x n matrix whose cells have ``+ - *``: ints, fractions or
    ``SparsePoly`` values.  Each minor of ``keys``, listed after the
    minors one size smaller that it needs, is expanded along its first
    row into cells times those minors; ``names`` are the locals that hold
    them, in the order of ``keys``.  No ring calls, no division.
    """
    index = {key: i for i, key in enumerate(keys)}
    names, body = [], []
    for i, (rows, cols) in enumerate(keys):
        first, below = rows[0], rows[1:]
        if not below:
            names.append(f"c{first * n + cols[0]}")
            continue
        terms = " ".join(
            f"{'-' if j & 1 else '+'} c{first * n + col} * {names[index[below, cols[:j] + cols[j + 1:]]]}"
            for j, col in enumerate(cols)
        )
        names.append(f"m{i}")
        body.append(f"m{i} = {terms.removeprefix('+ ')}")
    return body, names


@lru_cache(maxsize=None)
def _laplace_minors(n: int) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """``minors(cells)``, compiled on first use, lists every minor of an
    n x n int matrix, in the order of :func:`_minor_keys`.  A loop over
    the same expansion table took 0.39, 5.8 and 30 us a call at n = 2, 3
    and 4, against 0.11, 0.38 and 4.3 (timeit, one pinned CPU).
    """
    body, names = _expansion(n, _minor_keys(n))
    return _compile("minors", n, [*body, f"return ({', '.join(names)},)"])


def _laplace(n: int) -> tuple[list[str], str]:
    """(body, name): the determinant of an n x n matrix as straight-line
    code on its cells, and the local that ends up holding it: the minors
    on the trailing k rows, k = 1..n, each expanded along its first row,
    n * 2^(n-1) products in all.  Both :func:`_laplace_det` and
    :func:`_laplace_first_unit` are compiled from it.
    """
    keys = [
        (tuple(range(n - k, n)), cols) for k in range(1, n + 1) for cols in itertools.combinations(range(n), k)
    ]
    body, names = _expansion(n, keys)
    return body, names[-1]


@lru_cache(maxsize=None)
def _laplace_det(n: int) -> Callable[..., int]:
    """``laplace(cells, modulus=None)``, compiled on first use, is the
    determinant of an n x n int matrix (:func:`_laplace`), reduced mod
    ``modulus`` if given.
    """
    body, last = _laplace(n)
    body.append(f"return {last} if modulus is None else {last} % modulus")
    return _compile("laplace", n, body, "cells, modulus=None")


@lru_cache(maxsize=None)
def _laplace_first_unit(n: int) -> Callable[..., int]:
    """``laplace_first_unit(partial, values, modulus, ...)``, compiled on
    first use: the index of the first residue lift value v, of an n x n
    matrix over Z/``modulus``, for which ``partial + v`` (v itself when
    ``partial`` is None) has a unit determinant, or -1.  One loop runs
    the unpack of a packed value (``unpack`` and ``nbytes`` of
    :func:`_layout`, which :func:`batch_unit_test` binds with
    ``modulus``) or, at n = 1, takes the plain int; then the expansion
    of :func:`_laplace`, and tests gcd(det, modulus) = 1 on the
    unreduced determinant, which has the same gcd.
    """
    body, last = _laplace(n)
    if n == 1:
        head, read = "partial, values, modulus", "c0 = partial + value"
    else:
        head = "partial, values, modulus, unpack, nbytes"
        read = f"{_cells(n)} = unpack((partial + value).to_bytes(nbytes, 'little'))"
    return _compile(
        "laplace_first_unit",
        n,
        [
            "if partial is None:",
            "    partial = 0",
            "for j, value in enumerate(values):",
            *(f"    {line}" for line in (read, *body)),
            f"    if gcd({last}, modulus) == 1:",
            "        return j",
            "return -1",
        ],
        head,
        gcd=math.gcd,
    )


@lru_cache(maxsize=None)
def _bareiss_det(n: int) -> Callable[[Sequence[int]], int]:
    """``bareiss(cells)``, compiled on first use, is the determinant of an
    n x n int matrix by fraction-free Bareiss elimination written out on
    the cells, without row swaps: step k takes each a_ij with i, j > k
    to (a_kk * a_ij - a_ik * a_kj) // prev, prev being the pivot of step
    k - 1 (1 at k = 0).  A zero pivot at step k hands the (n - k) x
    (n - k) block from a_kk on to :func:`_det_bareiss`, which pivots, and
    divides by prev^(n - k - 1): by Sylvester's identity that block's
    determinant is det(A) times the leading k x k minor, prev, to that
    power, so the division is exact.
    """
    cell = [[f"c{i * n + j}" for j in range(n)] for i in range(n)]
    body = []
    for k in range(n - 1):
        pivot, prev, rest = cell[k][k], cell[k - 1][k - 1] if k else "1", range(k, n)
        block = ", ".join(cell[i][j] for i in rest for j in rest)
        body.append(f"if not {pivot}: return _det_bareiss(({block},)) // {prev} ** {n - k - 1}")
        divide = f" // {prev}" if k else ""
        body.extend(
            f"{cell[i][j]} = ({pivot} * {cell[i][j]} - {cell[i][k]} * {cell[k][j]}){divide}"
            for i in range(k + 1, n)
            for j in range(k + 1, n)
        )
    return _compile("bareiss", n, [*body, f"return {cell[n - 1][n - 1]}"], _det_bareiss=_det_bareiss)


def _rows(cells: Sequence, n: int) -> list[list]:
    # An n x n matrix's n^2 cells, row by row, as n rows of their own.
    return [list(cells[k:k + n]) for k in range(0, n * n, n)]


def _det_bareiss(cells: Sequence[int]) -> int:
    # Fraction-free elimination over Python ints (Bareiss 1968): every
    # division by the previous pivot is exact.
    n = math.isqrt(len(cells))
    m = _rows(cells, n)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            row_i[k + 1:] = [
                (pivot * a - lead * b) // prev for a, b in zip(row_i[k + 1:], row_k[k + 1:])
            ]
        prev = pivot
    return sign * m[n - 1][n - 1]


def _det_elimination_mod(cells: Sequence[int], modulus: int) -> int:
    # Gaussian elimination over Z/N on reduced ints; N is never factored.
    # A column's first unit in row order (over a field, its first nonzero
    # entry) clears it, one row operation per row.  A column with no unit
    # is cleared by Euclid's steps between the pivot row and each row below,
    # a row subtraction (det 1) and a swap (det -1), till their gcd is on top.
    n = math.isqrt(len(cells))
    m = _rows([e % modulus for e in cells], n)
    det = 1
    for k in range(n - 1):
        for i in range(k, n):
            if m[i][k] and math.gcd(m[i][k], modulus) == 1:
                if i != k:
                    m[k], m[i] = m[i], m[k]
                    det = -det
                row_k = m[k]
                inv = pow(row_k[k], -1, modulus)
                tail = row_k[k + 1:]
                for row_i in m[k + 1:]:
                    f = row_i[k] * inv % modulus
                    if f:
                        row_i[k + 1:] = [(a - f * b) % modulus for a, b in zip(row_i[k + 1:], tail)]
                break
        else:
            for i in range(k + 1, n):
                while m[i][k]:
                    row_k, row_i = m[k], m[i]
                    q = row_k[k] // row_i[k]
                    row_k[k:] = [(a - q * b) % modulus for a, b in zip(row_k[k:], row_i[k:])]
                    m[k], m[i] = row_i, row_k
                    det = -det
        det = det * m[k][k] % modulus
        if not det:
            return 0
    return det * m[n - 1][n - 1] % modulus


def det_route(ring: Ring, n: int) -> Callable[[Sequence], object]:
    """The determinant over ``ring`` of an n x n matrix, as a function of
    its n^2 cells, row by row: the one choice of algorithm for (ring, n),
    which :func:`det_rows` makes per call and a :class:`Lift` once per
    family.  Refuses n > ``DET_SIZE_CAP``.  Over Z/N and F_p the cells
    may be any integer representatives; the result is the reduced
    residue.
    """
    if n > DET_SIZE_CAP:
        raise SizeLimit(f"determinants are capped at n <= {DET_SIZE_CAP}, got {n}")
    if isinstance(ring, ModRing):
        if n <= CLOSED_FORM_MAX_N:
            # The expansion's own code with N as the default of its modulus,
            # so a packed determinant makes no Python call but the
            # expansion's: a closure around it cost ~3.5% of scan's ops/s.
            laplace = _laplace_det(n)
            return FunctionType(laplace.__code__, laplace.__globals__, laplace.__name__, (ring.n,))
        return partial(_det_elimination_mod, modulus=ring.n)
    if isinstance(ring, ProductRing):
        routes = [det_route(comp, n) for comp in ring.components]

        def product(cells):
            return tuple(route(part) for route, part in zip(routes, zip(*cells)))

        return product
    if isinstance(ring, RationalRing):
        integer = det_route(INTEGERS, n)

        def rational(cells):
            # Each row scaled to integers by the lcm of its denominators:
            # det(A) = det(D*A) / det(D) with D diagonal.
            scale, scaled = 1, []
            for row in _rows(cells, n):
                d = math.lcm(*(e.denominator for e in row))
                scale *= d
                scaled += [e.numerator * (d // e.denominator) for e in row]
            return Fraction(integer(scaled), scale)

        return rational
    if n <= CLOSED_FORM_MAX_N:  # Z, and Z[x...] on its entries' own operators
        return _laplace_det(n)
    if isinstance(ring, IntPolyRing):

        def berkowitz(cells):
            return _det_berkowitz(ring, _rows(cells, n))

        return berkowitz
    return _bareiss_det(n) if n <= COMPILED_BAREISS_MAX_N else _det_bareiss


def det_rows(ring: Ring, rows: Sequence[Sequence[object]]) -> object:
    """Determinant on raw rows; the low-level path behind :func:`det`.

    Over Z/N and F_p the rows may hold any integer representatives; the
    result is the reduced residue.
    """
    return det_route(ring, len(rows))([e for row in rows for e in row])


class Lift(NamedTuple):
    """A family made ready for its subset walks by :func:`lift_family`.

    An engine walks ``members`` with ``add`` (and ``sub`` in Gray order).
    ``det(value)`` is the determinant, in ``det_ring``, of a walked
    value, and ``finish`` maps it into the family's ring.  ``finish`` is
    additive and one-to-one, so determinants may be added, subtracted
    and compared in ``det_ring`` before it, and zero tests may skip it.
    ``is_unit(d)`` tells whether ``finish(d)`` is a unit of the family's
    ring without taking it: ``det_ring.is_unit``, as ``finish`` keeps
    units and non-units apart, except over Q lifted to Z, where every
    nonzero d is one.  ``cells(value)`` is the value's n^2 entries
    over ``ring``, row by row.

    ``width`` says what a walked value is: a packed int of n^2 slots of
    ``width`` bits, a plain int (the entry of a 1x1 array) when it is 0,
    and a flat array of its n^2 cells over ``ring``, row by row, when it
    is None; then ``det`` is the :func:`det_route` of ``det_ring`` and
    ``cells`` the identity.  Engines need not know.
    """

    ring: Ring
    members: Sequence
    add: Callable[[object, object], object]
    sub: Callable[[object, object], object]
    det: Callable[[object], object]
    cells: Callable[[object], Sequence]
    det_ring: Ring
    finish: Callable[[object], object]
    is_unit: Callable[[object], bool]
    width: Optional[int]


def _unchanged(value):
    return value


def batch_unit_test(lift: Lift, n: int) -> Callable[[object, Sequence], int]:
    """``first_unit(partial, values)`` on the n x n walked values of
    ``lift``: the index of the first value v in ``values`` for which
    ``lift.is_unit(lift.det(lift.add(partial, v)))``, with v itself for a
    ``partial`` of None, or -1.

    Residue lifts (Z/N, F_p and coprime products) of packed or 1x1
    values at n <= ``CLOSED_FORM_MAX_N`` run it as one compiled loop
    (:func:`_laplace_first_unit`), compiled on the first such search per
    n; every other lift as ``map`` and ``compress`` over its own ``add``,
    ``det`` and ``is_unit``, so the loop runs in C and only the calls are
    Python.
    """
    if isinstance(lift.det_ring, ModRing) and lift.width is not None and n <= CLOSED_FORM_MAX_N:
        scan = _laplace_first_unit(n)
        layout = _layout(n, lift.width) if n > 1 else None
        read = (layout.unpack, layout.size) if layout else ()
        return FunctionType(scan.__code__, scan.__globals__, scan.__name__, (lift.det_ring.n, *read))
    add, det, is_unit = lift.add, lift.det, lift.is_unit

    def first_unit(partial, values):
        sums = values if partial is None else map(add, itertools.repeat(partial), values)
        return next(itertools.compress(itertools.count(), map(is_unit, map(det, sums))), -1)

    return first_unit


def minor_floor(lift: Lift, n: int) -> Optional[int]:
    """The generator, in ``lift.det_ring``, of I_n(H) ∩ I_n(V), or None
    where it is not taken.

    H = [A_1 | ... | A_m] and V = [A_1; ...; A_m] stack the lifted
    members side by side and on top of each other, and I_n is the ideal
    of their n x n minors.  det(sum_S A_i) is multilinear in the columns,
    so it is a sum of determinants of n columns of H, each a maximal
    minor of H or 0; by rows the same holds for V.  So every subset-sum
    determinant is a multiple of the floor, and no subset sum is
    invertible when the floor is not a unit.  The floor is
    lcm(floor_H, floor_V):

    * Z/N (F_p, and coprime products lifted to Z/M): the column
      operations of :func:`_minor_gcd_mod`, as a residue: 1 for the unit
      ideal, 0 for the zero ideal;
    * Z, and Q lifted to Z: :func:`_nonzero_maximal_minor` gives one
      nonzero maximal minor D, or 0 below full rank, and the Z/|D| route
      the gcd of all of them, which divides D;
    * every other lift (Z[x...], other products, Q walked as fractions):
      None.

    A stack whose floor is 0 ends it, as the lcm is then 0.
    """
    modulus = lift.det_ring.n if isinstance(lift.det_ring, ModRing) else 0
    if not modulus and lift.det_ring != INTEGERS:
        return None
    members, cells, unpacked = lift.members, lift.cells, []

    def lines(cuts):
        # Line j of every member, then line j + 1: a family of full rank
        # shows it in its first n lines.  Members are unpacked once, as
        # far as the lines reach.
        for cut in cuts:
            for i, value in enumerate(members):
                if i == len(unpacked):
                    unpacked.append(cells(value))
                yield unpacked[i][cut]

    floor = 1
    for cuts in ([slice(j, None, n) for j in range(n)], [slice(k, k + n) for k in range(0, n * n, n)]):
        if modulus:
            g = _minor_gcd_mod(lines(cuts), n, modulus)
        else:
            minor = abs(_nonzero_maximal_minor(lines(cuts), n))
            residues = ([e % minor for e in c] for c in lines(cuts))
            g = minor if minor <= 1 else _minor_gcd_mod(residues, n, minor) or minor
        if not g:
            return 0
        floor = math.lcm(floor, g)
    return floor % modulus if modulus else floor


def _minor_gcd_mod(columns, n: int, modulus: int) -> int:
    """gcd(N, the n x n minors of the n-row matrix of ``columns``, whose
    entries lie in [0, N)) as a residue mod N: 1 for the unit ideal, 0
    for the zero ideal.

    Column operations, which keep the ideal, take the matrix to [L | 0]
    with L lower triangular, whose one maximal minor is prod L_kk; N is
    never factored.  The columns are inserted one at a time: ``slots[k]``
    holds the rows from k on of the column whose row k leads, and a new
    column meets each slot in turn.  A unit lead clears the other's row
    k (the columns swap first if only the new one's is a unit); two
    non-units take Euclid's steps between the columns, a subtraction and
    a swap, till the slot holds their gcd.  The rest of the column then
    meets slot k + 1.  It stops at the unit ideal once every slot leads
    with a unit, which a family of full rank over a field reaches after
    about n of its columns.  A row that no column reaches gives 0.
    """
    slots: list = [None] * n
    inverses = [0] * n  # the inverse of each slot's unit lead, 0 for a non-unit
    units = 0
    for tail in columns:
        for k in range(n):
            if tail[0] and not inverses[k]:
                # Row k has no unit lead: the column takes the slot if it is
                # free or leads with a unit, else meets it by Euclid's steps.
                slot = slots[k]
                if slot is None or math.gcd(tail[0], modulus) == 1:
                    slots[k], tail = tail, slot
                else:
                    while tail[0]:
                        q = slot[0] // tail[0]
                        slot, tail = tail, [(a - q * b) % modulus for a, b in zip(slot, tail)]
                    slots[k] = slot
                lead = slots[k][0]
                if math.gcd(lead, modulus) == 1:
                    inverses[k] = pow(lead, -1, modulus)
                    units += 1
                    if units == n:
                        return 1
                if tail is None:
                    break
            if tail[0]:  # the slot leads with a unit
                f = tail[0] * inverses[k] % modulus
                tail = [(a - f * b) % modulus for a, b in zip(tail[1:], slots[k][1:])]
            else:
                tail = tail[1:]
    if None in slots:
        return 0
    g = 1
    for slot in slots:
        g = math.gcd(g * slot[0], modulus)
    return g % modulus


def _nonzero_maximal_minor(columns: Iterable[Sequence[int]], n: int) -> int:
    """One nonzero n x n minor of the n-row int matrix of ``columns``, or
    0 when its rank is below n.

    The minor is that of the first n columns that are linearly
    independent, so a matrix of full rank is read only as far as they
    reach.  Each column is reduced against the ones kept so far, each
    with its pivot row r and pivot p, fraction-free (c -> p c - c_r b),
    and kept if anything is left, divided by the gcd of its entries so
    that they stay the size of a minor.  The kept columns' determinant
    is then taken by fraction-free (Bareiss) elimination with column
    pivoting: step k takes the first column left with a nonzero row k as
    its pivot and takes each other column c to (p_k c - c_k p) // prev
    on the rows below, an exact division by the pivot of step k - 1, and
    the last pivot is the determinant.
    """
    kept, reduced = [], []
    for column in columns:
        c = column
        for r, b in reduced:
            if c[r]:
                c = [b[r] * x - c[r] * y for x, y in zip(c, b)]
        r = next((r for r, x in enumerate(c) if x), None)
        if r is None:
            continue
        g = math.gcd(*c)
        kept.append(column)
        reduced.append((r, [x // g for x in c]))
        if len(kept) < n:
            continue
        prev = 1
        for _ in range(n):
            pivot = kept.pop(next(j for j, c in enumerate(kept) if c[0]))
            lead, rest = pivot[0], pivot[1:]
            kept = [[(lead * a - c[0] * b) // prev for a, b in zip(c[1:], rest)] for c in kept]
            prev = lead
        return prev
    return 0


def lift_family(ring: Ring, members: Sequence, size: int) -> Lift:
    """Lift a family's raw arrays once, so that its subset sums add as ints.

    ``members`` are the arrays as rows; ``size`` is the most arrays that
    one walked sum adds up: the bound of a search, m for a Gray walk or a
    chain.  Each array is flattened to its n^2 cells first.  The
    determinant is an integer polynomial in the entries, so over any
    commutative ring it may be taken on integer lifts and mapped into
    the ring at the end:

    * Z          -- the members as they are;
    * Z/N, F_p   -- the residues as they are, summed as plain ints; each
      determinant is reduced mod N;
    * Q          -- row i of every member scaled by D_i, the lcm of the
      row-i denominators across all of them; the determinant over Z
      divided by prod D_i is the one over Q.  This runs only while the
      D_i stay near the members' own row lcms
      (:func:`_shared_row_scales`); otherwise the walk adds fractions;
    * products of Z/n_c and F_p with pairwise coprime moduli -- each
      element the CRT integer sum_c x_c e_c mod M, with e_c = 1 mod n_c
      and 0 mod the other moduli, while M = prod n_c has at most
      ``PRODUCT_LIFT_MAX_BITS`` bits; the determinant is taken over Z/M
      and split into its residues mod each n_c, a ring isomorphism;
    * Z[x...] and other products -- walked as flat arrays in the ring
      itself.

    A lifted 1x1 member is its plain int.  Larger lifted members are
    packed into one int each (Kronecker substitution) when every entry
    of every walked sum fits a slot of 8, 16, 32 or 64 bits
    (:func:`_slot_width`), so that a subset sum is one int addition;
    wider entries walk as flat int arrays.  Over Z, and Q after scaling,
    the slots are signed, so a packed value may be a negative int.  The
    determinant route is picked once, here.
    """
    n = len(members[0])
    flat = [[e for row in a for e in row] for a in members]
    if isinstance(ring, (IntegerRing, ModRing)):
        return _int_lift(flat, n, size, ring, _unchanged)
    if isinstance(ring, ProductRing):
        moduli = _coprime_moduli(ring)
        if moduli is not None:
            modulus = math.prod(moduli)
            basis = [(modulus // q) * pow(modulus // q, -1, q) for q in moduli]
            return _int_lift(
                [[sum(map(operator.mul, e, basis)) % modulus for e in a] for a in flat],
                n,
                size,
                ModRing(modulus),
                lambda d: tuple(d % q for q in moduli),
            )
    if isinstance(ring, RationalRing):
        scales = _shared_row_scales(flat, n)
        if scales is not None:
            cell_scales = [d for d in scales for _ in range(n)]
            lifted = [[e.numerator * (d // e.denominator) for e, d in zip(a, cell_scales)] for a in flat]
            scale = math.prod(scales)
            lift = _int_lift(lifted, n, size, INTEGERS, lambda d: Fraction(d, scale))
            return lift._replace(is_unit=bool)
    return _array_lift(ring, flat, n, ring, _unchanged)


def _array_lift(walk_ring: Ring, flat, n: int, det_ring: Ring, finish) -> Lift:
    # The walk adds flat arrays cell by cell in walk_ring.
    array_add, array_sub = array_ops(walk_ring.add, walk_ring.sub)
    route = det_route(det_ring, n)
    return Lift(walk_ring, flat, array_add, array_sub, route, _unchanged, det_ring, finish, det_ring.is_unit, None)


# Slot widths of a packed member, each the size of a struct cell.
_SLOT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _slot_width(size: int, low: int, high: int, signed: bool) -> Optional[int]:
    """The least slot width that holds every walked sum, or None.

    ``low`` and ``high`` bound every lifted entry.  Residues are never
    negative, and a slot holds a sum of at most ``size`` of them as it
    is: size * high < 2^w.  Over Z (and Q after scaling) a slot holds a
    signed sum, read as a signed w-bit cell, so
    size * max(-low, high) < 2^(w-1).
    """
    top = 2 * size * max(-low, high) if signed else size * high
    return next((w for w in _SLOT_CODES if top < 1 << w), None)


def _int_lift(flat, n: int, size: int, det_ring: Ring, finish) -> Lift:
    # flat holds each member's n^2 int cells; det_ring is Z, Z/N or F_p.
    modulus = 0 if det_ring == INTEGERS else det_ring.n
    if n == 1:
        width, values = 0, [c[0] for c in flat]
        cells = _one_cell
        det = (lambda value: value % modulus) if modulus else _unchanged
    else:
        width = _slot_width(size, min(map(min, flat)), max(map(max, flat)), signed=not modulus)
        if width is None:  # entries too wide for a 64-bit slot walk as int arrays
            return _array_lift(INTEGERS, flat, n, det_ring, finish)
        values, cells, det = _packed(flat, n, width, det_route(det_ring, n), modulus)
    return Lift(INTEGERS, values, operator.add, operator.sub, det, cells, det_ring, finish, det_ring.is_unit, width)


def _one_cell(value):
    return (value,)


def _layout(n: int, width: int) -> struct.Struct:
    # The n^2 unsigned cells of a packed value of width-bit slots.
    return struct.Struct(f"<{n * n}{_SLOT_CODES[width]}")


def _packed(flat, n: int, width: int, route, modulus: int):
    """Each array's n^2 cells packed into one int; the unpack and det of a
    sum.

    An array packs to the sum of cell_k * 2^(k*width), so packed values
    add and subtract as the arrays do, and a walked value alone fixes
    its cells.  The unpack is one ``to_bytes`` and one ``struct`` read of
    all cells (:func:`_layout`, which :func:`_laplace_first_unit`
    inlines), and the det is ``route`` on them.  Residues (``modulus``
    > 0) are never negative and are read as unsigned cells.  Over Z,
    adding ``signs``, 2^(w-1) in every slot, leaves each cell plus
    2^(w-1), in [0, 2^w) by :func:`_slot_width`, so no slot borrows or
    carries; flipping each slot's top bit then leaves the cell's w-bit
    two's complement, read as a signed cell.
    """
    layout = _layout(n, width)
    nbytes = layout.size
    if modulus:
        values = [int.from_bytes(layout.pack(*c), "little") for c in flat]
        unpack = layout.unpack

        def cells(value):
            return unpack(value.to_bytes(nbytes, "little"))

        def det(value):
            return route(unpack(value.to_bytes(nbytes, "little")))

        return values, cells, det
    half = 1 << (width - 1)
    signs = int.from_bytes(layout.pack(*[half] * (n * n)), "little")
    values = [int.from_bytes(layout.pack(*[e + half for e in c]), "little") - signs for c in flat]
    unpack = struct.Struct(layout.format.lower()).unpack

    def cells(value):
        return unpack(((value + signs) ^ signs).to_bytes(nbytes, "little"))

    def det(value):
        return route(unpack(((value + signs) ^ signs).to_bytes(nbytes, "little")))

    return values, cells, det


def _coprime_moduli(ring: ProductRing) -> Optional[list[int]]:
    """The component moduli, when a product is Z/M by the CRT; else None.

    That needs every component to be Z/n_c or F_p, the moduli pairwise
    coprime, and their product within ``PRODUCT_LIFT_MAX_BITS``.
    """
    moduli = []
    for comp in ring.components:
        if not isinstance(comp, ModRing):
            return None
        moduli.append(comp.n)
    modulus = math.prod(moduli)
    if math.lcm(*moduli) != modulus or modulus.bit_length() > PRODUCT_LIFT_MAX_BITS:
        return None
    return moduli


def _shared_row_scales(flat: Sequence[Sequence[Fraction]], n: int) -> Optional[list[int]]:
    """The lcm D_i of the row-i denominators over all flat arrays, or None.

    The excess of row i is the bit length of D_i less that of the
    largest single array's row-i lcm.  None when n times the summed
    excess passes ``RATIONAL_LIFT_MAX_EXCESS_BITS``: then every lifted
    sum carries the denominators of the whole family (pairwise coprime
    ones, say), and adding fractions is the cheaper walk.
    """
    scales = []
    excess = 0
    for k in range(0, n * n, n):
        own = [math.lcm(*(e.denominator for e in a[k:k + n])) for a in flat]
        shared = math.lcm(*own)
        excess += shared.bit_length() - max(own).bit_length()
        scales.append(shared)
    return scales if n * excess <= RATIONAL_LIFT_MAX_EXCESS_BITS else None


def det(matrix: SquareMatrix) -> RingElement:
    """Exact determinant of a square matrix."""
    value = det_rows(matrix.ring, matrix.rows)
    return RingElement(matrix.ring, value, _normalized=True)


def is_invertible(matrix: SquareMatrix) -> bool:
    """True iff the determinant is a unit of the base ring."""
    return matrix.ring.is_unit(det_rows(matrix.ring, matrix.rows))


def mat_mul(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Matrix product; kept for the validation suites (multiplicativity)."""
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring!r} vs {b.ring!r}")
    if a.n != b.n:
        raise ShapeMismatch(f"{a.n}x{a.n} vs {b.n}x{b.n}")
    ring, n = a.ring, a.n
    add, mul = ring.add, ring.mul
    rows = []
    for i in range(n):
        arow = a.rows[i]
        out = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = add(acc, mul(arow[k], b.rows[k][j]))
            out.append(acc)
        rows.append(tuple(out))
    return _raw_matrix(ring, n, tuple(rows))


def random_matrix(ring: Ring, n: int, rng: random.Random) -> SquareMatrix:
    """Matrix with small random entries; drives the seeded suites."""
    return _raw_matrix(
        ring, n, tuple(tuple(ring.random(rng) for _ in range(n)) for _ in range(n))
    )
