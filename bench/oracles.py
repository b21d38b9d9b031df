"""Independent answer oracles for the detsum benchmark.

Nothing here imports detsum.  Ring values are handled in a lifted form:
every ring splits into components, each a plain ``(kind, modulus)``
pair -- ``("integers", 0)``, ``("rationals", 0)`` or ``("mod", N)`` for
both F_p and Z/N -- and a value is a tuple holding one Python int or
Fraction per component.  Residues are lifted to Z, so a determinant over
Z/N is the integer Bareiss determinant of the lifted matrix reduced mod
N, and a product ring is checked one component at a time.

``check(op, exit_code, report)`` returns None when the report is right
and a one-line description of the first mismatch otherwise.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional, Sequence

JSON_SAFE_INT = (1 << 53) - 1


# -- lifted ring values ------------------------------------------------------

def components(desc: dict) -> list[tuple[str, int]]:
    """The (kind, modulus) components of a JSON ring descriptor."""
    kind = desc["kind"]
    if kind == "integers":
        return [("integers", 0)]
    if kind == "rationals":
        return [("rationals", 0)]
    if kind == "prime_field":
        return [("mod", int(desc["p"]))]
    if kind == "mod":
        return [("mod", int(desc["N"]))]
    if kind == "product":
        return [c for sub in desc["components"] for c in components(sub)]
    raise ValueError(f"no lifted form for ring kind {kind!r}")


def encode_int(v: int) -> int | str:
    return v if -JSON_SAFE_INT <= v <= JSON_SAFE_INT else str(v)


def _decode_scalar(kind: str, modulus: int, obj: Any):
    if kind == "rationals":
        if isinstance(obj, str) and "/" in obj:
            num, _, den = obj.partition("/")
            return Fraction(int(num), int(den))
        return Fraction(int(obj))
    value = int(obj)
    return value % modulus if modulus else value


def _encode_scalar(kind: str, modulus: int, v) -> Any:
    if kind == "rationals":
        v = Fraction(v)
        if v.denominator == 1:
            return encode_int(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return encode_int(v % modulus if modulus else v)


def decode(desc: dict, obj: Any) -> tuple:
    comps = components(desc)
    if desc["kind"] == "product":
        return tuple(_decode_scalar(k, mod, o) for (k, mod), o in zip(comps, obj))
    (k, mod), = comps
    return (_decode_scalar(k, mod, obj),)


def encode(desc: dict, value: Sequence) -> Any:
    comps = components(desc)
    parts = [_encode_scalar(k, mod, v) for (k, mod), v in zip(comps, value)]
    return parts if desc["kind"] == "product" else parts[0]


def is_zero(comps: Sequence[tuple[str, int]], value: Sequence) -> bool:
    return all((v % mod if mod else v) == 0 for (_, mod), v in zip(comps, value))


def is_unit(comps: Sequence[tuple[str, int]], value: Sequence) -> bool:
    for (kind, mod), v in zip(comps, value):
        if kind == "integers" and v not in (1, -1):
            return False
        if kind == "rationals" and v == 0:
            return False
        if kind == "mod" and math.gcd(v % mod, mod) != 1:
            return False
    return True


# -- exact determinants -------------------------------------------------------

def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free Bareiss elimination over Z."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def fraction_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Gaussian elimination over Q."""
    a = [list(r) for r in rows]
    n = len(a)
    d = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            d = -d
        pivot = a[k][k]
        d *= pivot
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor:
                row_i, row_k = a[i], a[k]
                for j in range(k + 1, n):
                    row_i[j] -= factor * row_k[j]
    return d


def lifted_det(comps: Sequence[tuple[str, int]], matrix: Sequence[Sequence[tuple]]) -> tuple:
    """Determinant of a lifted matrix, one entry per component."""
    out = []
    for c, (kind, mod) in enumerate(comps):
        rows = [[e[c] for e in row] for row in matrix]
        if kind == "rationals":
            out.append(fraction_det(rows))
        else:
            d = int_det(rows)
            out.append(d % mod if mod else d)
    return tuple(out)


def family(doc: dict) -> tuple[list[tuple[str, int]], list[list[list[tuple]]]]:
    """(components, lifted matrices) of a matrix document."""
    desc = doc["ring"]
    mats = [[[decode(desc, e) for e in row] for row in mat] for mat in doc["matrices"]]
    return components(desc), mats


def subset_sum(mats, indices: Sequence[int]) -> list[list[tuple]]:
    n = len(mats[0])
    width = len(mats[0][0][0])
    acc = [[[0] * width for _ in range(n)] for _ in range(n)]
    for idx in indices:
        for i, row in enumerate(mats[idx]):
            for j, entry in enumerate(row):
                cell = acc[i][j]
                for c in range(width):
                    cell[c] += entry[c]
    return [[tuple(cell) for cell in row] for row in acc]


def add_matrices(a, b) -> list[list[tuple]]:
    return [
        [tuple(x + y for x, y in zip(ea, eb)) for ea, eb in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def search_order(m: int, bound: int) -> Iterator[int]:
    """Nonempty masks by (cardinality, mask value), cardinality <= bound."""
    for k in range(1, min(bound, m) + 1):
        yield from sorted(
            sum(1 << i for i in combo) for combo in itertools.combinations(range(m), k)
        )


def indices_of(bits: int) -> list[int]:
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def first_mask(m: int, bound: int, hit: Callable[[list[int]], bool]) -> Optional[list[int]]:
    """Indices of the first mask in search order where ``hit`` holds."""
    for bits in search_order(m, bound):
        idx = indices_of(bits)
        if hit(idx):
            return idx
    return None


def mask_json(m: int, indices: Optional[list[int]]) -> Any:
    return None if indices is None else {"m": m, "indices": indices}


# -- per-subcommand checks ----------------------------------------------------

_STATUS_EXIT = {"holds": 0, "found": 0, "none": 0, "error": 1, "violated": 2}

ZERO_POLY = {"terms": []}


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise _Mismatch(message)


class _Mismatch(Exception):
    pass


def check(op, exit_code: Optional[int], report: Optional[dict]) -> Optional[str]:
    """None if the report matches the oracle, else the first mismatch."""
    try:
        _expect(report is not None, "no JSON report")
        sub = op.argv[0]
        _expect(report.get("subcommand") == sub, f"subcommand {report.get('subcommand')!r}")
        status = report.get("status")
        _expect(exit_code == _STATUS_EXIT.get(status), f"exit {exit_code} with status {status!r}")
        _CHECKS[sub](op, status, report["result"])
    except _Mismatch as exc:
        return f"{op.label}: {exc}"
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"{op.label}: malformed report ({type(exc).__name__}: {exc})"
    return None


def _check_search_subsum(op, status, result):
    doc, bound = op.facts["doc"], op.facts["bound"]
    m = len(doc["matrices"])
    _expect(result["m"] == m and result["bound"] == bound, "m/bound echo")
    if op.facts["singular"]:
        expected = None  # the last row is row0 + row1 in every subset sum
    else:
        comps, mats = family(doc)
        expected = first_mask(
            m, bound, lambda idx: is_unit(comps, lifted_det(comps, subset_sum(mats, idx)))
        )
    _expect(result["witness"] == mask_json(m, expected), f"witness {result['witness']} != {expected}")
    _expect(status == ("none" if expected is None else "found"), f"status {status}")


def _check_ideal_chain(op, status, result):
    doc = op.facts["doc"]
    comps, mats = family(doc)
    (_, modulus), = comps
    m, n = len(mats), len(mats[0])
    gcd_by_card = [0] * (m + 1)
    ints = [[[e[0] for e in row] for row in mat] for mat in mats]
    # Gray walk with a running lifted sum; gcds per cardinality.
    current = [[0] * n for _ in range(n)]
    prev = 0
    for k in range(1, 1 << m):
        gray = k ^ (k >> 1)
        toggled = gray ^ prev
        idx = toggled.bit_length() - 1
        step = 1 if gray & toggled else -1
        for i in range(n):
            for j in range(n):
                current[i][j] += step * ints[idx][i][j]
        d = int_det(current)
        card = gray.bit_count()
        gcd_by_card[card] = math.gcd(gcd_by_card[card], d)
        prev = gray
    generators, acc = [0], 0
    for card in range(1, m + 1):
        acc = math.gcd(acc, gcd_by_card[card])
        generators.append(math.gcd(acc, modulus) if modulus else acc)
    chain = result["chain"]
    _expect(int(chain["modulus"]) == modulus, "modulus")
    _expect([int(g) for g in chain["generators"]] == generators, f"generators != {generators}")
    _expect(result["n"] == n and status == "holds", f"status {status}")
    _expect(result["stabilized_at_n"] is True and result["chain_ascends"] is True, "chain flags")


def semilocal_first_unit(primes: Sequence[int], elements, bound: int):
    comps = [("mod", p) for p in primes]

    def unit_sum(idx):
        total = [sum(elements[i][c] for i in idx) for c in range(len(primes))]
        return is_unit(comps, total)

    return first_mask(len(elements), bound, unit_sum)


def _check_semilocal_search(op, status, result):
    doc, bound = op.facts["doc"], op.facts["bound"]
    primes = [c["p"] for c in doc["ring"]["components"]]
    elements = doc["elements"]
    m = len(elements)
    if op.facts["shared_zero"]:
        expected = None  # one coordinate is 0 in every element, so in every sum
    else:
        expected = semilocal_first_unit(primes, elements, bound)
    _expect(result["m"] == m and result["bound"] == bound, "m/bound echo")
    _expect(result["n_components"] == len(primes), "n_components")
    _expect(result["witness"] == mask_json(m, expected), f"witness {result['witness']} != {expected}")
    _expect(status == ("none" if expected is None else "found"), f"status {status}")


def _check_mine_mixed_char(op, status, result):
    primes = op.facts["fields"]
    m, bound = op.facts["m"], op.facts["bound"]
    instances = result["instances"]
    _expect(result["count"] == op.facts["count"] == len(instances), f"count {result['count']}")
    _expect(status == "found", f"status {status}")
    comps = [("mod", p) for p in primes]
    seen = set()
    for inst in instances:
        elements = [tuple(int(v) for v in el) for el in inst["elements"]]
        _expect(len(elements) == m, "family size")
        total = [sum(el[c] for el in elements) for c in range(len(primes))]
        _expect(is_unit(comps, total), f"total of {elements} is not a unit")
        _expect(semilocal_first_unit(primes, elements, bound) is None, f"{elements} has a unit subsum")
        seen.add(tuple(sorted(elements)))
    _expect(len(seen) == len(instances), "duplicate families")


def _zero_value(desc: dict) -> Any:
    return encode(desc, tuple(0 for _ in components(desc)))


def _check_alt_sum(op, status, result):
    doc = op.facts["doc"]
    m, n = len(doc["matrices"]), doc["n"]
    _expect(m > n, "generator must give m > n")
    _expect(result["residual"] == _zero_value(doc["ring"]), f"residual {result['residual']}")
    _expect(result["is_zero"] is True and result["contract_applies"] is True, "flags")
    _expect(result["m"] == m and result["n"] == n and result["term_count"] == 1 << m, "echo")
    _expect(status == "holds", f"status {status}")


def _check_homogeneous(op, status, result):
    doc = op.facts["doc"]
    m = len(doc["vectors"])
    _expect(result["degree"] == op.facts["degree"] < m, f"degree {result['degree']}")
    _expect(result["value"] == _zero_value(doc["ring"]), f"value {result['value']}")
    _expect(result["is_zero"] is True and result["contract_applies"] is True, "flags")
    _expect(result["m"] == m and result["term_count"] == 1 << m, "echo")
    _expect(status == "holds", f"status {status}")


def _check_perturb(op, status, result):
    doc = op.facts["doc"]
    desc = doc["ring"]
    comps, mats = family(doc)
    fam, b = mats[:-1], mats[-1]
    n = len(b)
    b_det = lifted_det(comps, b)

    def moves(idx):
        base = subset_sum(fam, idx)
        return lifted_det(comps, base) != lifted_det(comps, add_matrices(base, b))

    expected = first_mask(n, n, moves)
    _expect(result["n"] == n, "n echo")
    _expect(result["residual"] == _zero_value(desc) and result["residual_is_zero"] is True, "residual")
    _expect(result["perturbation_det"] == encode(desc, b_det), f"det(B) {result['perturbation_det']}")
    _expect(result["witness"] == mask_json(n, expected), f"witness {result['witness']} != {expected}")
    _expect(status == ("none" if expected is None else "found"), f"status {status}")


def _check_simplex(op, status, result):
    doc = op.facts["doc"]
    comps, points = family(doc)
    m = len(points)
    full = (1 << m) - 1
    failing = [
        mask_json(m, indices_of(bits))
        for bits in search_order(m, m)
        if bits != full and not is_zero(comps, lifted_det(comps, subset_sum(points, indices_of(bits))))
    ]
    centroid_singular = is_zero(comps, lifted_det(comps, subset_sum(points, list(range(m)))))
    _expect(result["failing_subsets"] == failing, "failing subsets")
    _expect(result["premise_holds"] is (not failing), "premise flag")
    _expect(result["centroid_singular"] is centroid_singular, "centroid flag")
    _expect(status == "holds", f"status {status}")


def _check_symbolic_identity(op, status, result):
    m, n = op.facts["m"], op.facts["n"]
    _expect(result["parameters"] == {"m": m, "n": n}, "parameters")
    _expect(result["residual"] == ZERO_POLY and result["holds"] is True, "residual")
    _expect(result["term_count"] == 1 << m, "term_count")
    _expect(status == "holds", f"status {status}")


def certificate_coefficient(m: int, n: int, size: int) -> int:
    """Closed form c_S = (-1)^(n-|S|) * C(m-|S|-1, n-|S|) for 1 <= |S| <= n."""
    return (-1) ** (n - size) * math.comb(m - size - 1, n - size)


def _check_certificate(op, status, result):
    m, n = op.facts["m"], op.facts["n"]
    expected = [
        {"mask": mask_json(m, indices_of(bits)), "coefficient": certificate_coefficient(m, n, bits.bit_count())}
        for bits in search_order(m, n)
    ]
    _expect(result["m"] == m and result["n"] == n and result["verified"] is True, "echo")
    _expect(result["terms"] == expected, "terms differ from the closed form")
    _expect(status == "holds", f"status {status}")


_CHECKS = {
    "search-subsum": _check_search_subsum,
    "ideal-chain": _check_ideal_chain,
    "semilocal-search": _check_semilocal_search,
    "mine-mixed-char": _check_mine_mixed_char,
    "alt-sum": _check_alt_sum,
    "homogeneous": _check_homogeneous,
    "perturb": _check_perturb,
    "simplex": _check_simplex,
    "verify-lemma3": _check_symbolic_identity,
    "verify-lemma2": _check_symbolic_identity,
    "certificate": _check_certificate,
}
