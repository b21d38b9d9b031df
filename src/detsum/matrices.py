"""Square matrices over any supported ring, with exact determinants.

:func:`det_rows` is the one determinant entry.  It refuses n > 64 and
picks its route from the ring and n:

* n == 1        -- the entry itself, reduced over Z/N and F_p
* products      -- the rows split into one matrix per component in one
  pass, each taking its component's route (the engines walk coprime
  Z/N and F_p products as one Z/M instead; see below)
* Z             -- the closed-form integer determinant for n <= 4
  (:func:`_det_cofactor`), fraction-free Bareiss elimination above
* Q             -- each row scaled to integers by the lcm of its
  denominators, the same integer determinant, then divided by the row
  multipliers
* Z/N and F_p   -- one route: F_p is Z/p (a ``ModRing`` whose prime, of
  at most 4096 bits, is certified), on rows of any integer
  representatives (exact: the determinant is an integer polynomial in
  the entries): the closed form for n <= 4 and integer Bareiss for
  n <= 7, each reduced mod N at the end; Gaussian elimination mod N
  above, where a column with no unit to pivot on is cleared by Euclid's
  steps between rows, so N is never factored
* Z[x...]       -- the entries packed once into dicts of int monomial
  keys (:class:`_PackedPolyRing`), so that a monomial product is one int
  addition; on them Leibniz (signed permutation sum) for n <= 6,
  Berkowitz above; neither ever divides, so both hold over any
  commutative ring.  The result is unpacked once.  A JSON descriptor
  names at most MAX_FAMILY * DET_SIZE_CAP**2 variables, and only those
  that occur in the entries get a slot of the key

:func:`lift_family` readies a family for the engines' subset walks: Z,
Z/N and F_p members, Q members scaled by shared row multipliers, and
members of a product of Z/n_c and F_p with pairwise coprime moduli,
taken by the Chinese remainder theorem into Z/M with M = prod n_c, are
summed as ints, and only each determinant is mapped back.  Such a
product's determinants therefore run the Z/M route.  Each lifted member
is packed into one int, the sum of cell_k * 2^(k*w) over its entries
with one w-bit slot each (Kronecker substitution), so that a subset sum
is one int addition; the returned :class:`Lift` unpacks a sum and takes
its determinant, the closed form on the unpacked cells for n <= 4 and
rows sliced from them above.  A Z[x...] family is packed entry by entry
as :func:`det_rows` packs its rows, and walks as arrays of those dicts.

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
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import MaskOutOfRange, RingMismatch, ShapeMismatch, SizeLimit
from .rings import (
    INTEGERS,
    IntegerRing,
    IntPolyRing,
    ModRing,
    PrimeField,
    ProductRing,
    RationalRing,
    Ring,
    RingElement,
    SparsePoly,
    _raw_poly,
)
from .subsets import SubsetMask, array_ops

__all__ = [
    "SquareMatrix",
    "subset_sum",
    "det",
    "det_rows",
    "is_invertible",
    "random_matrix",
]

DET_SIZE_CAP = 64
CLOSED_FORM_MAX_N = 4
# Z/N and F_p above the closed form: integer Bareiss on the residues up
# to this n, elimination mod N above it.
RESIDUE_BAREISS_MAX_N = 7
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
# Leibniz or Berkowitz over Z[x...] only, on packed keys.  ms/det with
# random IntPolyRing(2) entries, Leibniz vs Berkowitz (median of 6 to 20
# matrices, unpinned): 1.4-3.7 vs 1.8-3.5 at n=6, a tie; 19 vs 7.7 at n=7.
LEIBNIZ_MAX_N = 6


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


@lru_cache(maxsize=None)
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


def _det_cofactor(cells: Sequence[int]) -> int:
    # Closed-form determinant of a 2x2, 3x3 or 4x4 matrix of Python ints,
    # given as its n^2 cells row by row: ad - bc, the cofactor expansion
    # along the first row, and the Laplace expansion of the top two rows
    # against the bottom two (six pairs of complementary 2x2 minors).  No
    # ring calls, no division.
    if len(cells) == 4:
        a, b, c, d = cells
        return a * d - b * c
    if len(cells) == 9:
        a, b, c, d, e, f, g, h, i = cells
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = cells
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


def _det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    # Fraction-free elimination over Python ints (Bareiss 1968): every
    # division by the previous pivot is exact.
    n = len(rows)
    m = [list(r) for r in rows]
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


def _reduced(rows: Sequence[Sequence[int]], modulus: int) -> list[list[int]]:
    return [[e % modulus for e in row] for row in rows]


def _det_elimination_mod(rows: Sequence[Sequence[int]], modulus: int) -> int:
    # Gaussian elimination over Z/N on reduced ints; N is never factored.
    # A column's first unit in row order (over a field, its first nonzero
    # entry) clears it, one row operation per row.  A column with no unit
    # is cleared by Euclid's steps between the pivot row and each row below,
    # a row subtraction (det 1) and a swap (det -1), till their gcd is on top.
    n = len(rows)
    m = _reduced(rows, modulus)
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


# One route per ring type; each takes (ring, rows) at any n >= 1.


def _det_integer(ring: Ring, rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n <= CLOSED_FORM_MAX_N:
        return _det_cofactor([e for row in rows for e in row])
    return _det_bareiss(rows)


def _det_rational(ring: Ring, rows: Sequence[Sequence[Fraction]]) -> Fraction:
    # Scale each row to integers by the lcm of its denominators, so that
    # det(A) = det(D*A) / det(D) with D diagonal.
    if len(rows) == 1:
        return rows[0][0]
    scale = 1
    scaled = []
    for row in rows:
        d = math.lcm(*(e.denominator for e in row))
        scale *= d
        scaled.append([e.numerator * (d // e.denominator) for e in row])
    return Fraction(_det_integer(INTEGERS, scaled), scale)


def _det_residue(ring: ModRing, rows: Sequence[Sequence[int]]) -> int:
    # Z/N, F_p among them, on any integer representatives.
    modulus = ring.n
    n = len(rows)
    if n <= CLOSED_FORM_MAX_N:
        return (rows[0][0] if n == 1 else _det_cofactor([e for row in rows for e in row])) % modulus
    if n <= RESIDUE_BAREISS_MAX_N:
        return _det_bareiss(_reduced(rows, modulus)) % modulus
    return _det_elimination_mod(rows, modulus)


def _det_product(ring: ProductRing, rows: Sequence[Sequence[tuple]]) -> tuple:
    # One pass over the rows splits them into one matrix per component.
    if len(rows) == 1:
        return rows[0][0]
    parts = zip(*[zip(*row) for row in rows])  # component c's rows, for each c
    return tuple(
        _ROUTES.get(type(comp), _det_generic)(comp, part)
        for comp, part in zip(ring.components, parts)
    )


def _det_int_poly(ring: IntPolyRing, rows: Sequence[Sequence[SparsePoly]]) -> SparsePoly:
    # The rows packed once, the determinant taken on the packed dicts.
    if len(rows) == 1:
        return rows[0][0]
    packed = _PackedPolyRing.covering(ring.var_count, [rows])
    pack = packed.pack
    return packed.unpack(_det_generic(packed, [[pack(e) for e in row] for row in rows]))


def _det_generic(ring: Ring, rows: Sequence[Sequence[object]]) -> object:
    # Packed Z[x...] and any other commutative ring: neither route divides.
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n <= LEIBNIZ_MAX_N:
        return _det_leibniz(ring, rows)
    return _det_berkowitz(ring, rows)


class _PackedPolyRing(Ring):
    """Z[x...] on packed monomial keys, for determinants and subset walks.

    A value is a dict ``{key: coeff}`` of nonzero coefficients.  The key
    of a monomial is the sum of e_v * 2^(width * s) over the slots s of
    ``variables``, the variables that occur in the packed entries, so a
    product of monomials is one int addition of keys.  That is exact
    while every exponent stays below 2^width: :meth:`covering` takes
    width = bit_length(n * E), E the largest exponent of an entry.  Every
    value that a walk, a determinant of an n x n array of walked sums or
    a sum of such determinants forms is a sum of products of at most n
    entries, so its exponents are at most n * E.  Values are never
    mutated, so an operation may return an operand as it is.
    """

    kind = "int_poly"

    __slots__ = ("var_count", "variables", "width", "_offsets")

    def __init__(self, var_count: int, variables: tuple[int, ...], width: int):
        self.var_count = var_count
        self.variables = variables
        self.width = width
        self._offsets = {v: s * width for s, v in enumerate(variables)}

    @classmethod
    def covering(cls, var_count: int, arrays) -> "_PackedPolyRing":
        """The packing for determinants of sums of the n x n ``arrays``."""
        used: set[int] = set()
        top = 0
        for poly in (e for a in arrays for row in a for e in row):
            for exps in poly.terms:
                used.update(itertools.compress(range(var_count), exps))
                top = max(top, max(exps, default=0))
        n = len(arrays[0])
        return cls(var_count, tuple(sorted(used)), max(1, (n * top).bit_length()))

    def pack(self, poly: SparsePoly) -> dict[int, int]:
        offsets = self._offsets
        return {
            sum(exps[v] << offsets[v] for v in itertools.compress(range(len(exps)), exps)): c
            for exps, c in poly.terms.items()
        }

    def unpack(self, value: dict[int, int]) -> SparsePoly:
        width, mask = self.width, (1 << self.width) - 1
        terms = {}
        for key, c in value.items():
            exps = [0] * self.var_count
            for v in self.variables:
                if not key:
                    break
                exps[v] = key & mask
                key >>= width
            terms[tuple(exps)] = c
        return _raw_poly(self.var_count, terms)

    @property
    def zero(self):
        return {}

    @property
    def one(self):
        return {0: 1}

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return a
        acc = dict(a)
        for k, c in b.items():
            if k not in acc:
                acc[k] = c
            elif c := acc[k] + c:
                acc[k] = c
            else:
                del acc[k]
        return acc

    def sub(self, a, b):
        if not b:
            return a
        acc = dict(a)
        for k, c in b.items():
            if k not in acc:
                acc[k] = -c
            elif c := acc[k] - c:
                acc[k] = c
            else:
                del acc[k]
        return acc

    def mul(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:  # distinct keys stay distinct under one shift
            ((k2, c2),) = b.items()
            return {k + k2: c * c2 for k, c in a.items()}
        acc: dict[int, int] = {}
        terms = b.items()
        for k1, c1 in a.items():
            for k2, c2 in terms:
                k = k1 + k2
                if k in acc:
                    acc[k] += c1 * c2
                else:
                    acc[k] = c1 * c2
        return {k: c for k, c in acc.items() if c}

    def neg(self, a):
        return {k: -c for k, c in a.items()}

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1 and a.get(0) in (1, -1)

    def from_int(self, k):
        return {0: k} if k else {}

    def _key(self):
        return (self.var_count, self.variables, self.width)


_ROUTES = {
    IntegerRing: _det_integer,
    RationalRing: _det_rational,
    ModRing: _det_residue,
    PrimeField: _det_residue,
    ProductRing: _det_product,
    IntPolyRing: _det_int_poly,
}


def det_rows(ring: Ring, rows: Sequence[Sequence[object]]) -> object:
    """Determinant on raw rows; the low-level path behind :func:`det`.

    Over Z/N and F_p the rows may hold any integer representatives; the
    result is the reduced residue.
    """
    if len(rows) > DET_SIZE_CAP:
        raise SizeLimit(f"determinants are capped at n <= {DET_SIZE_CAP}, got {len(rows)}")
    return _ROUTES.get(type(ring), _det_generic)(ring, rows)


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
    and an array over ``ring`` when it is None.  Engines need not know.
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


def lift_family(ring: Ring, members: Sequence, size: int) -> Lift:
    """Lift a family's raw arrays once, so that its subset sums add as ints.

    ``size`` is the most arrays that one walked sum adds up: the bound
    of a search, m for a Gray walk or a chain.  The determinant is an
    integer polynomial in the entries, so over any commutative ring it
    may be taken on integer lifts and mapped into the ring at the end:

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
    * Z[x...]    -- each entry packed once into a dict of int monomial
      keys, with a slot for each variable that occurs in the family
      (:class:`_PackedPolyRing`, also the ``det_ring``); the walk adds
      arrays of those dicts, and each result is unpacked once;
    * other products -- walked as arrays in the ring itself.

    A lifted 1x1 member is its plain int.  Larger lifted members are
    packed into one int each (Kronecker substitution) when every entry
    of every walked sum fits a slot of 8, 16, 32 or 64 bits
    (:func:`_slot_width`), so that a subset sum is one int addition;
    wider entries walk as int arrays.  Over Z, and Q after scaling, the
    slots are signed, so a packed value may be a negative int.
    """
    if isinstance(ring, (IntegerRing, ModRing)):
        return _int_lift(members, size, ring, _unchanged)
    if isinstance(ring, ProductRing):
        moduli = _coprime_moduli(ring)
        if moduli is not None:
            modulus = math.prod(moduli)
            basis = [(modulus // n) * pow(modulus // n, -1, n) for n in moduli]

            def crt(a):
                return [[sum(map(operator.mul, e, basis)) % modulus for e in row] for row in a]

            return _int_lift(
                [crt(a) for a in members],
                size,
                ModRing(modulus),
                lambda d: tuple(d % n for n in moduli),
            )
    if isinstance(ring, RationalRing):
        scales = _shared_row_scales(members)
        if scales is not None:
            lifted = [
                [[e.numerator * (d // e.denominator) for e in row] for row, d in zip(a, scales)]
                for a in members
            ]
            scale = math.prod(scales)
            lift = _int_lift(lifted, size, INTEGERS, lambda d: Fraction(d, scale))
            return lift._replace(is_unit=bool)
    if isinstance(ring, IntPolyRing):
        packed = _PackedPolyRing.covering(ring.var_count, members)
        pack = packed.pack
        lifted = [[[pack(e) for e in row] for row in a] for a in members]
        return _array_lift(packed, lifted, packed, packed.unpack)
    return _array_lift(ring, members, ring, _unchanged)


def _array_lift(walk_ring: Ring, members, det_ring: Ring, finish) -> Lift:
    add, sub = array_ops(walk_ring)

    def det(rows):
        return det_rows(det_ring, rows)

    def cells(rows):
        return tuple(e for row in rows for e in row)

    return Lift(walk_ring, members, add, sub, det, cells, det_ring, finish, det_ring.is_unit, None)


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


def _int_lift(members, size: int, det_ring: Ring, finish) -> Lift:
    # members are arrays of ints; det_ring is Z, Z/N or F_p.
    n = len(members[0])
    flat = [[e for row in a for e in row] for a in members]
    modulus = 0 if det_ring == INTEGERS else det_ring.n
    if n == 1:
        width, values = 0, [c[0] for c in flat]
        cells = _one_cell
        det = (lambda value: value % modulus) if modulus else _unchanged
    else:
        width = _slot_width(size, min(map(min, flat)), max(map(max, flat)), signed=not modulus)
        if width is None:
            return _array_lift(INTEGERS, members, det_ring, finish)
        values, cells, det = _packed(flat, n, width, det_ring, modulus)
    return Lift(
        INTEGERS, values, operator.add, operator.sub, det, cells, det_ring, finish, det_ring.is_unit, width
    )


def _one_cell(value):
    return (value,)


def _packed(flat, n: int, width: int, det_ring: Ring, modulus: int):
    """Each array's n^2 cells packed into one int; the unpack and det of a sum.

    An array packs to the sum of cell_k * 2^(k*width), so packed values
    add and subtract as the arrays do, and a walked value alone fixes
    its cells.  The unpack is one ``to_bytes`` and one ``struct`` read of
    all cells.  Residues (``modulus`` > 0) are never negative and are read
    as unsigned cells, each determinant reduced mod N.  Over Z, adding
    ``signs``, 2^(w-1) in every slot, leaves each cell plus 2^(w-1), in
    [0, 2^w) by :func:`_slot_width`, so no slot borrows or carries;
    flipping each slot's top bit then leaves the cell's w-bit two's
    complement, read as a signed cell.  Up to n = 4 the closed form takes
    the cells as they come; above, rows sliced from them go to
    :func:`det_rows`.
    """
    code = _SLOT_CODES[width]
    layout = struct.Struct(f"<{n * n}{code}")
    nbytes = layout.size
    if modulus:
        values = [int.from_bytes(layout.pack(*c), "little") for c in flat]
        unpack = layout.unpack

        def cells(value):
            return unpack(value.to_bytes(nbytes, "little"))

        def small_det(value):
            return _det_cofactor(unpack(value.to_bytes(nbytes, "little"))) % modulus

    else:
        half = 1 << (width - 1)
        signs = int.from_bytes(layout.pack(*[half] * (n * n)), "little")
        values = [int.from_bytes(layout.pack(*[e + half for e in c]), "little") - signs for c in flat]
        unpack = struct.Struct(f"<{n * n}{code.lower()}").unpack

        def cells(value):
            return unpack(((value + signs) ^ signs).to_bytes(nbytes, "little"))

        def small_det(value):
            return _det_cofactor(unpack(((value + signs) ^ signs).to_bytes(nbytes, "little")))

    if n <= CLOSED_FORM_MAX_N:
        return values, cells, small_det

    def det(value):
        entries = cells(value)
        return det_rows(det_ring, [entries[i:i + n] for i in range(0, n * n, n)])

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


def _shared_row_scales(arrays: Sequence[Sequence[Sequence[Fraction]]]) -> Optional[list[int]]:
    """The lcm D_i of the row-i denominators over all arrays, or None.

    The excess of row i is the bit length of D_i less that of the
    largest single array's row-i lcm.  None when n times the summed
    excess passes ``RATIONAL_LIFT_MAX_EXCESS_BITS``: then every lifted
    sum carries the denominators of the whole family (pairwise coprime
    ones, say), and adding fractions is the cheaper walk.
    """
    n = len(arrays[0])
    scales = []
    excess = 0
    for i in range(n):
        own = [math.lcm(*(e.denominator for e in a[i])) for a in arrays]
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
