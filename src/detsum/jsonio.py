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

import json
import re
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence

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
    "dumps_indented",
    "ring_to_json",
    "ring_from_json",
    "value_to_json",
    "value_from_json",
    "matrix_to_json",
    "matrices_to_json",
    "matrices_from_json",
    "vectors_from_json",
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


class _EntryError(Exception):
    """A refused entry.  Its text is the path below the entry and the
    reason, as in ``.numerator: 'x' is not a decimal integer``; the caller
    that knows the entry's own path raises it as a SchemaError.
    """


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
    return _decoded(where, _int_entry, obj)


def dumps_indented(value: Any) -> str:
    """The text of ``json.dumps(value, indent=2)``, without the pure-Python
    encoder that ``indent`` selects.

    Values made of str, int, True, False, None, lists and dicts with str
    keys are written here; any other value (a float, a subclass of int or
    str, a tuple, a non-str key) and any value nested too deep for the
    writer's recursion is handed whole to ``json.dumps``.  The
    ``report-writer-agreement`` fuzz suite holds the two to the same text.
    """
    parts: list[str] = []
    try:
        _write_indented(value, "\n", parts.append)
    except (TypeError, RecursionError):
        return json.dumps(value, indent=2)
    return "".join(parts)


def _write_indented(value: Any, newline: str, append: Callable[[str], None]) -> None:
    # True and False are ints, so they are matched before the int check.
    # Only an exact str or int is written here; any other type, and a key
    # that is not a str (the escaper raises TypeError), goes to json.dumps.
    if value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif type(value) is str:
        append(encode_basestring_ascii(value))
    elif type(value) is int:
        append(int.__repr__(value))
    elif type(value) is list:
        if not value:
            return append("[]")
        inner = newline + "  "
        head = "[" + inner
        for item in value:
            append(head)
            head = "," + inner
            _write_indented(item, inner, append)
        append(newline + "]")
    elif type(value) is dict:
        if not value:
            return append("{}")
        inner = newline + "  "
        head = "{" + inner
        for key, item in value.items():
            append(head + encode_basestring_ascii(key) + ": ")
            head = "," + inner
            _write_indented(item, inner, append)
        append(newline + "}")
    else:
        raise TypeError(f"no indented form for {type(value).__name__}")


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


# An entry decoder turns one JSON entry into a canonical raw value of its
# ring.  It is picked once per document, by the ring's kind, so the entries
# of a family pay for no dispatch, and a path is formatted only for an
# entry that is refused.

def _int_entry(obj: Any) -> int:
    if type(obj) is int:
        return obj
    if isinstance(obj, bool):
        raise _EntryError(": expected an integer, got a boolean")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        if not _DECIMAL_INT.fullmatch(obj):
            raise _EntryError(f": {_excerpt(obj)} is not a decimal integer")
        return int(obj) if len(obj) <= _PLAIN_DIGITS else int(Decimal(obj))
    raise _EntryError(f": expected an integer or decimal string, got {_excerpt(obj)}")


def _within(step: str, decode: Callable, *args: Any) -> Any:
    """``decode(*args)``, a refusal's path prefixed by ``step``."""
    try:
        return decode(*args)
    except _EntryError as exc:
        raise _EntryError(f"{step}{exc}") from None


def _decoded(where: str, decode: Callable, *args: Any) -> Any:
    """``decode(*args)``, a refusal raised as a SchemaError at ``where``."""
    try:
        return decode(*args)
    except _EntryError as exc:
        raise SchemaError(f"{where}{exc}") from None


def _each(decode: Callable, items: list) -> list:
    """``decode`` applied to each item; a refusal names the item's index."""
    out = []
    try:
        for i, item in enumerate(items):
            out.append(decode(item))
    except _EntryError as exc:
        raise _EntryError(f"[{i}]{exc}") from None
    return out


def _rational_entry(obj: Any) -> Fraction:
    if isinstance(obj, str) and "/" in obj:
        num_s, _, den_s = obj.partition("/")
        num = _within(".numerator", _int_entry, num_s)
        den = _within(".denominator", _int_entry, den_s)
        if den == 0:
            raise _EntryError(": zero denominator")
        return Fraction(num, den)
    return Fraction(_int_entry(obj))


def _residue_decoder(ring: ModRing) -> Callable[[Any], int]:
    modulus = ring.n

    def residue(obj):
        return (obj if type(obj) is int else _int_entry(obj)) % modulus

    return residue


def _product_decoder(ring: ProductRing) -> Callable[[Any], tuple]:
    decoders = tuple(map(_entry_decoder, ring.components))
    arity = len(decoders)

    def product(obj):
        if not isinstance(obj, list) or len(obj) != arity:
            raise _EntryError(f": expected an array of {arity} components")
        values = []
        try:
            for i, decode in enumerate(decoders):
                values.append(decode(obj[i]))
        except _EntryError as exc:
            raise _EntryError(f"[{i}]{exc}") from None
        return tuple(values)

    return product


def _poly_term(pair: Any) -> tuple[tuple[int, ...], int]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise _EntryError(": expected [exponents, coeff]")
    exps, coeff = pair
    if not isinstance(exps, list):
        raise _EntryError("[0]: expected an exponent array")
    return tuple(_within("[0]", _each, _int_entry, exps)), _within("[1]", _int_entry, coeff)


def _poly_decoder(ring: IntPolyRing) -> Callable[[Any], SparsePoly]:
    var_count = ring.var_count

    def poly(obj):
        if not isinstance(obj, dict):
            raise _EntryError(f": expected an object, got {type(obj).__name__}")
        raw_terms = obj.get("terms")
        if not isinstance(raw_terms, list):
            raise _EntryError(".terms: expected an array")
        terms = _within(".terms", _each, _poly_term, raw_terms)
        try:
            return SparsePoly(var_count, terms)
        except ValueError as exc:
            raise _EntryError(f": {exc}") from None

    return poly


_ENTRY_DECODERS: dict[str, Callable[[Any], Callable[[Any], Any]]] = {
    "integers": lambda ring: _int_entry,
    "rationals": lambda ring: _rational_entry,
    "prime_field": _residue_decoder,
    "mod": _residue_decoder,
    "product": _product_decoder,
    "int_poly": _poly_decoder,
}


def _entry_decoder(ring: Ring) -> Callable[[Any], Any]:
    make = _ENTRY_DECODERS.get(ring.kind)
    if make is None:
        raise SchemaError(f"cannot decode values of {ring!r}")
    return make(ring)


def value_from_json(ring: Ring, obj: Any, where: str = "value") -> Any:
    return _decoded(where, _entry_decoder(ring), obj)


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
    entry = _entry_decoder(ring)

    def row(values):
        if not isinstance(values, list) or len(values) != n:
            raise _EntryError(f": expected {n} entries")
        return tuple(_each(entry, values))

    def matrix(rows):
        if not isinstance(rows, list) or len(rows) != n:
            raise _EntryError(f": expected {n} rows")
        return _raw_matrix(ring, n, tuple(_each(row, rows)))

    return _decoded("matrices", _each, matrix, raw)


def vectors_from_json(ring: Ring, var_count: int, obj: Any) -> list[list[RingElement]]:
    """The ``vectors`` of a ``homogeneous`` document: a nonempty array of
    ``var_count``-long arrays of entries of ``ring``."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError("vectors: expected a nonempty array")
    entry = _entry_decoder(ring)

    def vector(coords):
        if not isinstance(coords, list) or len(coords) != var_count:
            raise _EntryError(f": expected {var_count} coordinates")
        return [RingElement(ring, v, _normalized=True) for v in _each(entry, coords)]

    return _decoded("vectors", _each, vector, obj)


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
    values = _decoded("elements", _each, _entry_decoder(ring), raw)
    elements = tuple(RingElement(ring, v, _normalized=True) for v in values)
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
