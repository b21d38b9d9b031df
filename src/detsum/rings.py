"""Commutative rings with exact arithmetic.

Supported rings: the integers, the rationals, modular rings Z/N, prime
fields F_p, finite products of rings, and multivariate polynomials with
integer coefficients.  A :class:`Ring` instance is a descriptor that
knows how to operate on raw values; :class:`RingElement` pairs a raw
value with its descriptor and overloads the arithmetic operators.

F_p is Z/p: :class:`PrimeField` is the :class:`ModRing` of a prime of at
most ``PRIME_FIELD_MAX_BITS`` = 4096 bits, certified at construction; it
inherits all its arithmetic, since gcd(a, p) = 1 exactly when a != 0.  A JSON ``int_poly`` names at
most ``MAX_FAMILY * DET_SIZE_CAP**2`` variables (``jsonio.MAX_VAR_COUNT``).

Raw value representations (always canonical):

* integers        -- arbitrary-precision ``int``
* rationals       -- ``fractions.Fraction`` (lowest terms, positive
  denominator, as the stdlib guarantees)
* F_p and Z/N     -- ``int`` residue in ``[0, N)``
* products        -- ``tuple`` of component raw values
* polynomials     -- :class:`SparsePoly`
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ArityMismatch, RingMismatch

__all__ = [
    "Ring",
    "IntegerRing",
    "RationalRing",
    "PrimeField",
    "ModRing",
    "ProductRing",
    "IntPolyRing",
    "INTEGERS",
    "RATIONALS",
    "RingElement",
    "SparsePoly",
    "poly_eval",
    "is_probable_prime",
    "PRIME_FIELD_MAX_BITS",
    "random_poly",
    "random_homogeneous_poly",
]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The longest prime a PrimeField certifies.  The certificate's cost grows
# about with the cube of the bit length: a fraction of a second at this
# cap, seconds past 10,000 bits.
PRIME_FIELD_MAX_BITS = 4096


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: a strong probable-prime test to base 2 (Miller-Rabin)
    plus a strong Lucas test with Selfridge's parameters.

    No composite passing both is known, and none exists below 2^64
    (every base-2 strong pseudoprime there has been checked), so the
    answer is exact for every modulus a desk-scale computation meets.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(2, d, n)
    if x not in (1, n - 1):
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return _strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2.

    Selfridge's method A: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, and P = 1, Q = (1 - D)/4.  Writing n + 1 = d * 2^s with d
    odd, n passes when U_d = 0 or V_(d*2^r) = 0 for some 0 <= r < s.
    """
    root = math.isqrt(n)
    if root * root == n:  # no D has (D/n) = -1, and n is composite
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # D shares a factor with n
            return abs(D) == n
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def half(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) // 2

    # Left-to-right over the bits of d, from index 1: (U_k, V_k, Q^k).
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(P * U + V), half(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class SparsePoly:
    """Multivariate polynomial with arbitrary-precision integer coefficients.

    ``terms`` maps exponent vectors (tuples of ``var_count`` nonnegative
    ints) to nonzero coefficients.  The zero polynomial is the empty map.
    Instances are immutable and canonical, so ``==`` is exact equality of
    polynomials.
    """

    __slots__ = ("var_count", "terms")

    def __init__(
        self,
        var_count: int,
        terms: Mapping[tuple[int, ...], int] | Iterable[tuple[Sequence[int], int]] = (),
    ):
        if var_count < 0:
            raise ValueError("var_count must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        canon: dict[tuple[int, ...], int] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != var_count:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {var_count}"
                )
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be nonnegative ints, got {exps}")
            coeff = int(coeff)
            if coeff == 0:
                continue
            acc = canon.get(exps, 0) + coeff
            if acc:
                canon[exps] = acc
            else:
                canon.pop(exps, None)
        object.__setattr__(self, "var_count", var_count)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @classmethod
    def zero(cls, var_count: int) -> "SparsePoly":
        return cls(var_count)

    @classmethod
    def constant(cls, var_count: int, c: int) -> "SparsePoly":
        if c == 0:
            return cls(var_count)
        return cls(var_count, {(0,) * var_count: c})

    @classmethod
    def variable(cls, var_count: int, index: int) -> "SparsePoly":
        if not 0 <= index < var_count:
            raise ValueError(f"variable index {index} out of range [0, {var_count})")
        exps = [0] * var_count
        exps[index] = 1
        return _raw_poly(var_count, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> Optional[int]:
        """Common total degree of all terms, or None if degrees are mixed.

        The zero polynomial counts as homogeneous of degree 0.
        """
        if not self.terms:
            return 0
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def _require_same_arity(self, other: "SparsePoly") -> None:
        if self.var_count != other.var_count:
            raise ArityMismatch(
                f"polynomials over {self.var_count} and {other.var_count} variables"
            )

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._require_same_arity(other)
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            v = acc.get(exps, 0) + c
            if v:
                acc[exps] = v
            else:
                acc.pop(exps, None)
        return _raw_poly(self.var_count, acc)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._require_same_arity(other)
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            v = acc.get(exps, 0) - c
            if v:
                acc[exps] = v
            else:
                acc.pop(exps, None)
        return _raw_poly(self.var_count, acc)

    def __neg__(self) -> "SparsePoly":
        return _raw_poly(self.var_count, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "SparsePoly | int") -> "SparsePoly":
        if isinstance(other, int):
            if other == 0:
                return SparsePoly(self.var_count)
            return _raw_poly(self.var_count, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._require_same_arity(other)
        acc: dict[tuple[int, ...], int] = {}
        add = operator.add
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                v = acc.get(key, 0) + c1 * c2
                if v:
                    acc[key] = v
                else:
                    acc.pop(key, None)
        return _raw_poly(self.var_count, acc)

    def __rmul__(self, other: int) -> "SparsePoly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "SparsePoly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = SparsePoly.constant(self.var_count, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def evaluate(self, point: Sequence["RingElement"]) -> "RingElement":
        """Evaluate at a point of ring elements (all in one ring).

        Integer coefficients travel through the canonical map from the
        integers into the target ring.
        """
        if len(point) != self.var_count:
            raise ArityMismatch(
                f"point has {len(point)} coordinates, polynomial has {self.var_count} variables"
            )
        if self.var_count == 0:
            raise ArityMismatch("evaluation needs a target ring; got an empty point")
        ring = point[0].ring
        values = []
        for el in point:
            if el.ring != ring:
                raise RingMismatch(f"point mixes rings {ring!r} and {el.ring!r}")
            values.append(el.value)
        return RingElement(ring, self.eval_raw(ring, values), _normalized=True)

    def eval_raw(self, ring: "Ring", values: Sequence[object]) -> object:
        """Evaluate on raw values; low-level path used by the engines."""
        if len(values) != self.var_count:
            raise ArityMismatch(
                f"point has {len(values)} coordinates, polynomial has {self.var_count} variables"
            )
        acc = ring.zero
        powers: dict[tuple[int, int], object] = {}
        for exps, coeff in self.terms.items():
            term = ring.from_int(coeff)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                pw = powers.get((i, e))
                if pw is None:
                    pw = values[i]
                    for _ in range(e - 1):
                        pw = ring.mul(pw, values[i])
                    powers[(i, e)] = pw
                term = ring.mul(term, pw)
            acc = ring.add(acc, term)
        return acc

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms sorted by exponent vector; the canonical external order."""
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.var_count == other.var_count
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.var_count, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def _raw_poly(var_count: int, canon: dict[tuple[int, ...], int]) -> SparsePoly:
    # Internal fast path: `canon` must already be canonical.
    poly = SparsePoly.__new__(SparsePoly)
    object.__setattr__(poly, "var_count", var_count)
    object.__setattr__(poly, "terms", canon)
    return poly


class Ring:
    """A commutative ring descriptor operating on raw values.

    Subclasses implement exact arithmetic, canonical normalization, unit
    tests and inverses.  Descriptors are immutable value objects: two
    descriptors compare equal iff they present the same ring, that is,
    share a class and a :meth:`_key`, which also gives the hash and repr.
    """

    kind: str = "ring"

    # -- raw arithmetic ------------------------------------------------
    def normalize(self, value: object) -> object:
        raise NotImplementedError

    @property
    def zero(self) -> object:
        raise NotImplementedError

    @property
    def one(self) -> object:
        raise NotImplementedError

    def add(self, a: object, b: object) -> object:
        raise NotImplementedError

    def sub(self, a: object, b: object) -> object:
        raise NotImplementedError

    def mul(self, a: object, b: object) -> object:
        raise NotImplementedError

    def neg(self, a: object) -> object:
        raise NotImplementedError

    def is_zero(self, a: object) -> bool:
        return a == self.zero

    def is_unit(self, a: object) -> bool:
        raise NotImplementedError

    def try_inverse(self, a: object) -> Optional[object]:
        raise NotImplementedError

    def from_int(self, k: int) -> object:
        """Image of the integer k under the canonical map into this ring."""
        raise NotImplementedError

    def random(self, rng: random.Random) -> object:
        """A small random raw value; drives the seeded property suites."""
        raise NotImplementedError

    # -- conveniences ---------------------------------------------------
    def element(self, value: object) -> "RingElement":
        return RingElement(self, value)

    # -- identity -------------------------------------------------------
    def _key(self) -> tuple:
        """The constructor arguments that tell rings of one class apart."""
        return ()

    def __eq__(self, other: object) -> bool:
        return other is self or (type(other) is type(self) and other._key() == self._key())

    def __hash__(self) -> int:
        return hash((self.kind, *self._key()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"


def _check_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer value, got {value!r}")
    return value


class IntegerRing(Ring):
    """The ring of arbitrary-precision integers."""

    kind = "integers"

    def normalize(self, value):
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return value.numerator
            raise ValueError(f"{value} is not an integer")
        return _check_int(value)

    zero = property(lambda self: 0)
    one = property(lambda self: 1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a == 1 or a == -1

    def try_inverse(self, a):
        return a if a in (1, -1) else None

    def from_int(self, k):
        return k

    def random(self, rng):
        return rng.randrange(-9, 10)


class RationalRing(Ring):
    """The field of rationals, stored as reduced ``Fraction`` values."""

    kind = "rationals"

    def normalize(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an int or Fraction, got {value!r}")
        return Fraction(value)

    zero = property(lambda self: Fraction(0))
    one = property(lambda self: Fraction(1))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def try_inverse(self, a):
        return 1 / a if a else None

    def from_int(self, k):
        return Fraction(k)

    def random(self, rng):
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))


class ModRing(Ring):
    """The ring Z/N of residues modulo N >= 2 (N need not be prime)."""

    kind = "mod"

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"modulus must be at least 2, got {n}")
        self.n = n

    def normalize(self, value):
        return _check_int(value) % self.n

    zero = property(lambda self: 0)
    one = property(lambda self: 1 % self.n)

    def add(self, a, b):
        s = a + b
        return s - self.n if s >= self.n else s

    def sub(self, a, b):
        d = a - b
        return d + self.n if d < 0 else d

    def mul(self, a, b):
        return a * b % self.n

    def neg(self, a):
        return self.n - a if a else 0

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return math.gcd(a, self.n) == 1

    def try_inverse(self, a):
        return pow(a, -1, self.n) if math.gcd(a, self.n) == 1 else None

    def from_int(self, k):
        return k % self.n

    def random(self, rng):
        return rng.randrange(self.n)

    def _key(self):
        return (self.n,)


class PrimeField(ModRing):
    """F_p as Z/p for a certified prime p: every nonzero residue is a unit.

    A ring kind of its own, so ``PrimeField(7) != ModRing(7)``.
    """

    kind = "prime_field"

    __slots__ = ()

    def __init__(self, p: int):
        if p.bit_length() > PRIME_FIELD_MAX_BITS:
            raise ValueError(f"modulus of {p.bit_length()} bits exceeds the {PRIME_FIELD_MAX_BITS}-bit cap")
        if not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.n = p

    @property
    def p(self) -> int:
        return self.n


class ProductRing(Ring):
    """A finite product of rings with componentwise operations.

    Nested products are flattened at construction, so the component list
    never contains another product.
    """

    kind = "product"

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Ring]):
        flat: list[Ring] = []
        for comp in components:
            if isinstance(comp, ProductRing):
                flat.extend(comp.components)
            elif isinstance(comp, Ring):
                flat.append(comp)
            else:
                raise ValueError(f"not a ring descriptor: {comp!r}")
        if not flat:
            raise ValueError("a product ring needs at least one component")
        self.components = tuple(flat)

    @property
    def arity(self) -> int:
        return len(self.components)

    def normalize(self, value):
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"product values are tuples, got {value!r}")
        if len(value) != self.arity:
            raise ValueError(
                f"product value has {len(value)} components, ring has {self.arity}"
            )
        return tuple(r.normalize(v) for r, v in zip(self.components, value))

    @property
    def zero(self):
        return tuple(r.zero for r in self.components)

    @property
    def one(self):
        return tuple(r.one for r in self.components)

    def add(self, a, b):
        return tuple(r.add(x, y) for r, x, y in zip(self.components, a, b))

    def sub(self, a, b):
        return tuple(r.sub(x, y) for r, x, y in zip(self.components, a, b))

    def mul(self, a, b):
        return tuple(r.mul(x, y) for r, x, y in zip(self.components, a, b))

    def neg(self, a):
        return tuple(r.neg(x) for r, x in zip(self.components, a))

    def is_zero(self, a):
        return all(r.is_zero(x) for r, x in zip(self.components, a))

    def is_unit(self, a):
        return all(r.is_unit(x) for r, x in zip(self.components, a))

    def try_inverse(self, a):
        inverses = []
        for r, x in zip(self.components, a):
            inv = r.try_inverse(x)
            if inv is None:
                return None
            inverses.append(inv)
        return tuple(inverses)

    def from_int(self, k):
        return tuple(r.from_int(k) for r in self.components)

    def random(self, rng):
        return tuple(r.random(rng) for r in self.components)

    def _key(self):
        return (self.components,)

    def __repr__(self):
        inside = ", ".join(repr(r) for r in self.components)
        return f"ProductRing([{inside}])"


class IntPolyRing(Ring):
    """Multivariate polynomials over the integers in ``var_count`` variables.

    Units are exactly the constants +1 and -1.
    """

    kind = "int_poly"

    __slots__ = ("var_count",)

    def __init__(self, var_count: int):
        if var_count < 0:
            raise ValueError("var_count must be nonnegative")
        self.var_count = var_count

    def normalize(self, value):
        if isinstance(value, SparsePoly):
            if value.var_count != self.var_count:
                raise ValueError(
                    f"polynomial over {value.var_count} variables, ring has {self.var_count}"
                )
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected SparsePoly or int, got {value!r}")
        return SparsePoly.constant(self.var_count, value)

    @property
    def zero(self):
        return SparsePoly.zero(self.var_count)

    @property
    def one(self):
        return SparsePoly.constant(self.var_count, 1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        if len(a.terms) != 1:
            return False
        ((exps, coeff),) = a.terms.items()
        return (coeff == 1 or coeff == -1) and not any(exps)

    def try_inverse(self, a):
        return a if self.is_unit(a) else None  # +-1 are self-inverse

    def from_int(self, k):
        return SparsePoly.constant(self.var_count, k)

    def variable(self, index: int) -> SparsePoly:
        return SparsePoly.variable(self.var_count, index)

    def random(self, rng):
        return random_poly(self.var_count, rng, max_terms=3, max_exponent=2, coeff_bound=4)

    def _key(self):
        return (self.var_count,)


INTEGERS = IntegerRing()
RATIONALS = RationalRing()


class RingElement:
    """A raw value tagged by the ring it lives in.

    Arithmetic operators require both operands to share one ring
    descriptor (plain ints are coerced through the canonical map) and
    raise :class:`RingMismatch` otherwise.  Instances are immutable.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value: object, _normalized: bool = False):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value if _normalized else ring.normalize(value))

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _coerce(self, other: object) -> object:
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.add(self.value, v), _normalized=True)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(self.value, v), _normalized=True)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(v, self.value), _normalized=True)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.mul(self.value, v), _normalized=True)

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.value), _normalized=True)

    def is_zero(self) -> bool:
        return self.ring.is_zero(self.value)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.value)

    def inverse(self) -> Optional["RingElement"]:
        """Multiplicative inverse, or None when the element is not a unit."""
        inv = self.ring.try_inverse(self.value)
        if inv is None:
            return None
        return RingElement(self.ring, inv, _normalized=True)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.value))

    def __repr__(self) -> str:
        return f"RingElement({self.value!r}, {self.ring!r})"


def poly_eval(poly: SparsePoly, point: Sequence[RingElement]) -> RingElement:
    """Evaluate an integer polynomial at a point of ring elements."""
    return poly.evaluate(point)


def random_poly(
    var_count: int,
    rng: random.Random,
    *,
    max_terms: int = 4,
    max_exponent: int = 2,
    coeff_bound: int = 5,
) -> SparsePoly:
    """A small random polynomial (may be zero)."""
    acc: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exponent) for _ in range(var_count))
        coeff = rng.randint(-coeff_bound, coeff_bound)
        if coeff == 0:
            continue
        acc[exps] = acc.get(exps, 0) + coeff
    return SparsePoly(var_count, acc)


def random_homogeneous_poly(
    var_count: int,
    degree: int,
    rng: random.Random,
    *,
    max_terms: int = 4,
    coeff_bound: int = 5,
) -> SparsePoly:
    """A random nonzero homogeneous polynomial of the exact given degree."""
    if var_count < 1 or degree < 0:
        raise ValueError("need at least one variable and a nonnegative degree")
    acc: dict[tuple[int, ...], int] = {}
    while not acc:
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * var_count
            for _ in range(degree):
                exps[rng.randrange(var_count)] += 1
            coeff = rng.randint(-coeff_bound, coeff_bound)
            if coeff == 0:
                continue
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + coeff
            if acc[key] == 0:
                del acc[key]
    return SparsePoly(var_count, acc)
