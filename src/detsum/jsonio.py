"""JSON schemas for rings, elements, matrices, masks, and reports.

Integers ride as plain JSON numbers while they fit the 53-bit safe
range and as decimal strings beyond it, so arbitrary precision survives
any JSON parser.  Serialization is canonical: loading and re-serializing
a document is idempotent.

Ring descriptors:

    {"kind": "integers"}
    {"kind": "rationals"}
    {"kind": "prime_field", "p": 7}
    {"kind": "mod", "N": 6}
    {"kind": "product", "components": [<descriptor>, ...]}
    {"kind": "int_poly", "var_count": 4}

"prime_field" is Z/p for a certified prime p of at most 4096 bits, and
"var_count" is at most ``MAX_VAR_COUNT`` = MAX_FAMILY * DET_SIZE_CAP**2.

Elements: integers/residues as numbers-or-strings; rationals as "a/b"
strings (plain integers allowed on input); product elements as arrays;
polynomials as {"terms": [[[e0, e1, ...], coeff], ...]} sorted by
exponent vector.  A matrix document is
{"ring": ..., "n": ..., "matrices": [[[row], ...], ...]}.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import Any, Sequence

from .identities import IdentityReport, SimplexReport
from .matrices import DET_SIZE_CAP, SquareMatrix, _raw_matrix
from .rings import (
    INTEGERS,
    RATIONALS,
    IntegerRing,
    IntPolyRing,
    ModRing,
    PrimeField,
    ProductRing,
    RationalRing,
    Ring,
    RingElement,
    SparsePoly,
)
from .search import IdealChain, SemilocalInstance
from .subsets import MAX_FAMILY, SubsetMask

__all__ = [
    "SchemaError",
    "MAX_VAR_COUNT",
    "encode_int",
    "decode_int",
    "ring_to_json",
    "ring_from_json",
    "value_to_json",
    "value_from_json",
    "matrix_to_json",
    "matrices_to_json",
    "matrices_from_json",
    "mask_to_json",
    "chain_to_json",
    "instance_to_json",
    "instance_from_json",
    "identity_report_to_json",
    "simplex_report_to_json",
]

JSON_SAFE_INT = (1 << 53) - 1
# The variables of a generic family of the largest accepted shape: one per
# entry of each of MAX_FAMILY matrices of size DET_SIZE_CAP.
MAX_VAR_COUNT = MAX_FAMILY * DET_SIZE_CAP**2

_DECIMAL_INT = re.compile(r"-?[0-9]+")
_PLAIN_DIGITS = 640  # below every int/str digit limit an interpreter accepts
_EXCERPT_CHARS = 40


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""


def _int_str(v: int) -> str:
    # str(int) refuses values past the interpreter's digit limit; Decimal does
    # not.  Below 2000 bits a value has at most 603 digits, within _PLAIN_DIGITS.
    return str(v) if v.bit_length() < 2000 else str(Decimal(v))


def _excerpt(obj: Any) -> str:
    text = repr(obj)
    if len(text) <= _EXCERPT_CHARS:
        return text
    return f"{text[:_EXCERPT_CHARS]}... ({len(text)} characters)"


def encode_int(v: int) -> int | str:
    return v if -JSON_SAFE_INT <= v <= JSON_SAFE_INT else _int_str(v)


def decode_int(obj: Any, where: str) -> int:
    """An int from a JSON number or from a decimal string ``-?[0-9]+`` of any length."""
    if isinstance(obj, bool):
        raise SchemaError(f"{where}: expected an integer, got a boolean")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        if not _DECIMAL_INT.fullmatch(obj):
            raise SchemaError(f"{where}: {_excerpt(obj)} is not a decimal integer")
        return int(obj) if len(obj) <= _PLAIN_DIGITS else int(Decimal(obj))
    raise SchemaError(f"{where}: expected an integer or decimal string, got {_excerpt(obj)}")


def _expect_dict(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


# -- ring descriptors -------------------------------------------------------

def ring_to_json(ring: Ring) -> dict:
    if isinstance(ring, IntegerRing):
        return {"kind": "integers"}
    if isinstance(ring, RationalRing):
        return {"kind": "rationals"}
    if isinstance(ring, PrimeField):
        return {"kind": "prime_field", "p": encode_int(ring.p)}
    if isinstance(ring, ModRing):
        return {"kind": "mod", "N": encode_int(ring.n)}
    if isinstance(ring, ProductRing):
        return {"kind": "product", "components": [ring_to_json(c) for c in ring.components]}
    if isinstance(ring, IntPolyRing):
        return {"kind": "int_poly", "var_count": ring.var_count}
    raise SchemaError(f"no JSON form for ring {ring!r}")


def ring_from_json(obj: Any, where: str = "ring") -> Ring:
    obj = _expect_dict(obj, where)
    kind = obj.get("kind")
    try:
        if kind == "integers":
            return INTEGERS
        if kind == "rationals":
            return RATIONALS
        if kind == "prime_field":
            return PrimeField(decode_int(obj.get("p"), f"{where}.p"))
        if kind == "mod":
            return ModRing(decode_int(obj.get("N"), f"{where}.N"))
        if kind == "product":
            comps = obj.get("components")
            if not isinstance(comps, list) or not comps:
                raise SchemaError(f"{where}.components: expected a nonempty array")
            return ProductRing(
                [ring_from_json(c, f"{where}.components[{i}]") for i, c in enumerate(comps)]
            )
        if kind == "int_poly":
            var_count = decode_int(obj.get("var_count"), f"{where}.var_count")
            if var_count > MAX_VAR_COUNT:
                raise ValueError(f"var_count {var_count} exceeds the {MAX_VAR_COUNT}-variable limit")
            return IntPolyRing(var_count)
    except SchemaError:
        raise  # already names its own path
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    raise SchemaError(f"{where}.kind: unknown ring kind {kind!r}")


# -- raw values -------------------------------------------------------------

def value_to_json(ring: Ring, value: Any) -> Any:
    if isinstance(ring, (IntegerRing, ModRing)):
        return encode_int(value)
    if isinstance(ring, RationalRing):
        if value.denominator == 1:
            return encode_int(value.numerator)
        return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"
    if isinstance(ring, ProductRing):
        return [value_to_json(c, v) for c, v in zip(ring.components, value)]
    if isinstance(ring, IntPolyRing):
        return {
            "terms": [
                [list(exps), encode_int(coeff)] for exps, coeff in value.sorted_terms()
            ]
        }
    raise SchemaError(f"no JSON form for values of {ring!r}")


def value_from_json(ring: Ring, obj: Any, where: str = "value") -> Any:
    if isinstance(ring, (IntegerRing, ModRing)):
        return ring.normalize(decode_int(obj, where))
    if isinstance(ring, RationalRing):
        if isinstance(obj, str) and "/" in obj:
            num_s, _, den_s = obj.partition("/")
            num = decode_int(num_s, f"{where}.numerator")
            den = decode_int(den_s, f"{where}.denominator")
            if den == 0:
                raise SchemaError(f"{where}: zero denominator")
            return Fraction(num, den)
        return Fraction(decode_int(obj, where))
    if isinstance(ring, ProductRing):
        if not isinstance(obj, list) or len(obj) != ring.arity:
            raise SchemaError(f"{where}: expected an array of {ring.arity} components")
        return tuple(
            value_from_json(c, v, f"{where}[{i}]")
            for i, (c, v) in enumerate(zip(ring.components, obj))
        )
    if isinstance(ring, IntPolyRing):
        obj = _expect_dict(obj, where)
        raw_terms = obj.get("terms")
        if not isinstance(raw_terms, list):
            raise SchemaError(f"{where}.terms: expected an array")
        terms = []
        for i, pair in enumerate(raw_terms):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{where}.terms[{i}]: expected [exponents, coeff]")
            exps, coeff = pair
            if not isinstance(exps, list):
                raise SchemaError(f"{where}.terms[{i}][0]: expected an exponent array")
            terms.append(
                (
                    tuple(decode_int(e, f"{where}.terms[{i}][0][{k}]") for k, e in enumerate(exps)),
                    decode_int(coeff, f"{where}.terms[{i}][1]"),
                )
            )
        try:
            return SparsePoly(ring.var_count, terms)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    raise SchemaError(f"cannot decode values of {ring!r}")


def element_to_json(el: RingElement) -> Any:
    return value_to_json(el.ring, el.value)


# -- matrices ---------------------------------------------------------------

def matrix_to_json(matrix: SquareMatrix) -> list:
    return [
        [value_to_json(matrix.ring, e) for e in row] for row in matrix.rows
    ]


def matrices_to_json(matrices: Sequence[SquareMatrix]) -> dict:
    if not matrices:
        raise SchemaError("cannot serialize an empty matrix family")
    ring = matrices[0].ring
    return {
        "ring": ring_to_json(ring),
        "n": matrices[0].n,
        "matrices": [matrix_to_json(a) for a in matrices],
    }


def matrices_from_json(obj: Any) -> list[SquareMatrix]:
    obj = _expect_dict(obj, "document")
    ring = ring_from_json(obj.get("ring"), "ring")
    n = decode_int(obj.get("n"), "n")
    if not 1 <= n <= DET_SIZE_CAP:
        raise SchemaError(f"n: must be in [1, {DET_SIZE_CAP}], got {n}")
    raw = obj.get("matrices")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("matrices: expected a nonempty array")
    if len(raw) > MAX_FAMILY:
        raise SchemaError(f"matrices: family of {len(raw)} exceeds the {MAX_FAMILY} limit")
    out = []
    for mi, mat in enumerate(raw):
        if not isinstance(mat, list) or len(mat) != n:
            raise SchemaError(f"matrices[{mi}]: expected {n} rows")
        rows = []
        for ri, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"matrices[{mi}][{ri}]: expected {n} entries")
            rows.append(tuple(
                value_from_json(ring, e, f"matrices[{mi}][{ri}][{ci}]")
                for ci, e in enumerate(row)
            ))
        out.append(_raw_matrix(ring, n, tuple(rows)))
    return out


# -- masks, chains, instances, reports --------------------------------------

def mask_to_json(mask: SubsetMask | None) -> Any:
    if mask is None:
        return None
    return {"m": mask.m, "indices": list(mask)}


def chain_to_json(chain: IdealChain) -> dict:
    return {
        "modulus": encode_int(chain.modulus),
        "generators": [encode_int(g) for g in chain.generators],
    }


def instance_to_json(instance: SemilocalInstance) -> dict:
    return {
        "ring": ring_to_json(instance.ring),
        "elements": [element_to_json(el) for el in instance.elements],
    }


def instance_from_json(obj: Any) -> SemilocalInstance:
    obj = _expect_dict(obj, "document")
    ring = ring_from_json(obj.get("ring"), "ring")
    if not isinstance(ring, ProductRing):
        raise SchemaError("ring: a semilocal instance needs a product ring")
    raw = obj.get("elements")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("elements: expected a nonempty array")
    elements = tuple(
        RingElement(ring, value_from_json(ring, e, f"elements[{i}]"), _normalized=True)
        for i, e in enumerate(raw)
    )
    return SemilocalInstance(ring, elements)


def identity_report_to_json(report: IdentityReport) -> dict:
    return {
        "identity": report.identity,
        "parameters": report.parameters,
        "residual": element_to_json(report.residual),
        "holds": report.holds,
        "term_count": report.term_count,
    }


def simplex_report_to_json(report: SimplexReport) -> dict:
    return {
        "premise_holds": report.premise_holds,
        "centroid_singular": report.centroid_singular,
        "failing_subsets": [mask_to_json(m) for m in report.failing_subsets],
    }
