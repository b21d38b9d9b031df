"""Seeded workload generators: every operation is one ``detsum`` argv.

A workload is a fixed cycle of templates.  Each cycle issues every
template once, in an order shuffled by the seed, with fresh entries drawn
from a generator seeded by (workload, seed, cycle, template).  Runs stop
only at cycle boundaries, so the mix of sizes is the same in every run
and only the entries change with the seed.

Families that must be singular by construction get a last row equal to
the sum of their first two rows; that relation survives every subset
sum.  No construction uses a zero row, because the Leibniz and minor
expansion routes exit early on one and would understate the worst case.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles

WORKLOADS = ("scan", "gray", "det_large", "symbolic")

F2 = {"kind": "prime_field", "p": 2}
F3 = {"kind": "prime_field", "p": 3}
F5 = {"kind": "prime_field", "p": 5}
F7 = {"kind": "prime_field", "p": 7}
F101 = {"kind": "prime_field", "p": 101}
Z = {"kind": "integers"}
Q = {"kind": "rationals"}


def zmod(n: int) -> dict:
    return {"kind": "mod", "N": n}


def product(*parts: dict) -> dict:
    return {"kind": "product", "components": list(parts)}


# The seven rings of the c03 acceptance sweep.
C03_RINGS = (F2, F7, zmod(6), zmod(10), Z, Q, product(F2, F3, F5))


@dataclass(frozen=True)
class Op:
    """One CLI call and what its oracle needs to know about the input."""

    label: str
    argv: tuple[str, ...]
    facts: dict = field(default_factory=dict, compare=False)


Template = Callable[[random.Random], Op]


# -- lifted entries -----------------------------------------------------------

def _scalar(rng: random.Random, kind: str, modulus: int, size: str):
    if kind == "mod":
        return rng.randrange(modulus)
    if size == "large":
        big = rng.choice((-1, 1)) * ((1 << 63) + rng.getrandbits(63))  # |x| ~ 2^64
        return big if kind == "integers" else Fraction(big, rng.randint(1, 10))
    if kind == "integers":
        return rng.randint(-10, 10)
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def _entry(rng, comps, size) -> tuple:
    return tuple(_scalar(rng, kind, mod, size) for kind, mod in comps)


def _matrix(rng, comps, n: int, size: str, singular: bool) -> list[list[tuple]]:
    rows = [[_entry(rng, comps, size) for _ in range(n)] for _ in range(n - 1 if singular else n)]
    if singular:
        rows.append([tuple(a + b for a, b in zip(x, y)) for x, y in zip(rows[0], rows[1])])
    return rows


def _matrix_doc(desc: dict, n: int, lifted: list) -> dict:
    return {
        "ring": desc,
        "n": n,
        "matrices": [[[oracles.encode(desc, e) for e in row] for row in mat] for mat in lifted],
    }


def _family_doc(rng, desc, n, m, size="small", singular=False) -> dict:
    comps = oracles.components(desc)
    return _matrix_doc(desc, n, [_matrix(rng, comps, n, size, singular) for _ in range(m)])


def _inline(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _ring_name(desc: dict) -> str:
    if desc["kind"] == "product":
        return "x".join(_ring_name(c) for c in desc["components"])
    return {"integers": "Z", "rationals": "Q"}.get(desc["kind"]) or (
        f"F{desc['p']}" if desc["kind"] == "prime_field" else f"Z{desc['N']}"
    )


# -- templates ----------------------------------------------------------------

def search_subsum(desc, n, m, bound, singular=True, size="small") -> Template:
    """search-subsum; non-singular families are resampled until their total is invertible."""
    comps = oracles.components(desc)

    def make(rng):
        while True:
            doc = _family_doc(rng, desc, n, m, size, singular)
            if singular:
                break
            _, mats = oracles.family(doc)
            if oracles.is_unit(comps, oracles.lifted_det(comps, oracles.subset_sum(mats, range(m)))):
                break
        label = f"search-subsum {_ring_name(desc)} n={n} m={m} bound={bound}{'' if singular else ' invertible-total'}"
        return Op(label, ("search-subsum", "--input", _inline(doc), "--bound", str(bound)),
                  {"doc": doc, "bound": bound, "singular": singular})

    return make


def ideal_chain(desc, n, m) -> Template:
    def make(rng):
        doc = _family_doc(rng, desc, n, m)
        return Op(f"ideal-chain {_ring_name(desc)} n={n} m={m}",
                  ("ideal-chain", "--input", _inline(doc)), {"doc": doc})

    return make


def semilocal_search(primes, m, bound, shared_zero) -> Template:
    """Non-unit elements only; with ``shared_zero`` one coordinate is 0 in all of them."""
    desc = product(*({"kind": "prime_field", "p": p} for p in primes))

    def make(rng):
        dead = rng.randrange(len(primes))
        elements = []
        for _ in range(m):
            zero_at = dead if shared_zero else rng.randrange(len(primes))
            elements.append([0 if c == zero_at else rng.randrange(1, p) for c, p in enumerate(primes)])
        doc = {"ring": desc, "elements": elements}
        label = f"semilocal-search {_ring_name(desc)} m={m} bound={bound}{' shared-zero' if shared_zero else ''}"
        return Op(label, ("semilocal-search", "--input", _inline(doc), "--bound", str(bound)),
                  {"doc": doc, "bound": bound, "shared_zero": shared_zero})

    return make


def mine_mixed_char() -> Template:
    # The miner finds 16 families for these parameters, instance (a) among them.
    facts = {"fields": [2, 3, 5], "m": 4, "bound": 3, "count": 16}
    op = Op("mine-mixed-char 2,3,5 m=4 bound=3",
            ("mine-mixed-char", "--fields", "2,3,5", "--m", "4", "--bound", "3"), facts)
    return lambda rng: op


def alt_sum(desc, n, m, size="small") -> Template:
    def make(rng):
        doc = _family_doc(rng, desc, n, m, size)
        return Op(f"alt-sum {_ring_name(desc)} n={n} m={m} {size}",
                  ("alt-sum", "--input", _inline(doc)), {"doc": doc})

    return make


def perturb(desc, n, size="small") -> Template:
    def make(rng):
        doc = _family_doc(rng, desc, n, n + 1, size)
        return Op(f"perturb {_ring_name(desc)} n={n} {size}",
                  ("perturb", "--input", _inline(doc)), {"doc": doc})

    return make


def simplex(n, size="small") -> Template:
    def make(rng):
        doc = _family_doc(rng, Q, n, n + 1, size)
        return Op(f"simplex Q n={n} {size}", ("simplex", "--input", _inline(doc)), {"doc": doc})

    return make


def homogeneous(desc, var_count, degree, m) -> Template:
    comps = oracles.components(desc)

    def make(rng):
        monomials = set()
        wanted = rng.randint(1, 4)
        while len(monomials) < wanted:
            exps = [0] * var_count
            for _ in range(degree):
                exps[rng.randrange(var_count)] += 1
            monomials.add(tuple(exps))
        terms = [[list(e), rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))] for e in sorted(monomials)]
        vectors = [[oracles.encode(desc, _entry(rng, comps, "small")) for _ in range(var_count)]
                   for _ in range(m)]
        doc = {"ring": desc, "var_count": var_count, "poly": {"terms": terms}, "vectors": vectors}
        return Op(f"homogeneous {_ring_name(desc)} deg={degree} vars={var_count} m={m}",
                  ("homogeneous", "--input", _inline(doc)), {"doc": doc, "degree": degree})

    return make


def symbolic(subcommand: str, m: int, n: int) -> Template:
    op = Op(f"{subcommand} m={m} n={n}", (subcommand, "--m", str(m), "--n", str(n)), {"m": m, "n": n})
    return lambda rng: op


# -- the four workloads -------------------------------------------------------

def _scan() -> list[Template]:
    # 17 templates.  With an odd count the median falls in the middle of one
    # template's latencies (F101 m=24) instead of between two, where it would
    # rest on the extremes of both; so no Z/12 chain at m=8.
    out = [search_subsum(F101, 3, m, 3) for m in (24, 32, 40)]
    out.append(search_subsum(F101, 3, 32, 3, singular=False))
    out += [search_subsum(zmod(9), 4, m, 4) for m in (12, 16, 20)]
    out.append(search_subsum(zmod(9), 4, 16, 4, singular=False))
    out += [ideal_chain(Z, 3, m) for m in (8, 10, 12)]
    out += [ideal_chain(zmod(12), 3, m) for m in (10, 12)]
    out += [semilocal_search((2, 3, 5, 7), m, 4, shared_zero=True) for m in (16, 24)]
    out.append(semilocal_search((2, 3, 5, 7), 16, 3, shared_zero=False))
    out.append(mine_mixed_char())
    return out


def _gray() -> list[Template]:
    out = [alt_sum(desc, n, m) for desc in C03_RINGS for n in (1, 2, 3) for m in range(n + 1, 11)]
    out += [perturb(desc, n) for desc in (Z, zmod(10)) for n in (2, 3)]
    out += [homogeneous(desc, 4, degree, m)
            for desc in (Z, zmod(6)) for degree in (1, 2, 3) for m in (degree + 2, 10)]
    return out


def _det_large() -> list[Template]:
    # (m, bound) shrink as n grows so one search stays well under a second.
    shapes = ((6, 2), (5, 2), (4, 1))
    out = []
    for desc, sizes in ((zmod(10), (8, 10, 12)), (product(zmod(4), zmod(9)), (8, 10, 12)),
                        (F101, (16, 24, 32))):
        out += [search_subsum(desc, n, m, bound) for n, (m, bound) in zip(sizes, shapes)]
    for size in ("small", "large"):
        out += [alt_sum(Q, n, n + 1, size) for n in (5, 6, 7)]
        out += [alt_sum(Z, n, n + 1, size) for n in (6, 7, 8)]
        out += [simplex(n, size) for n in (5, 6)]
        out += [perturb(Z, n, size) for n in (7, 8)]
    out += [perturb(zmod(10), n) for n in (6, 7)]
    return out


def _symbolic() -> list[Template]:
    c01 = [(n, m) for n in range(1, 20) for m in range(n + 1, 21) if m * n <= 20]
    c02 = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)]  # (n, m), c02 plus (5, 3)
    out = [symbolic("verify-lemma3", m, n) for n, m in c01]
    out += [symbolic("verify-lemma2", m, n) for n, m in c02]
    out += [symbolic("certificate", m, n) for n in (1, 2, 3) for m in range(n + 1, 6)]
    return out


TEMPLATES: dict[str, Callable[[], list[Template]]] = {
    "scan": _scan,
    "gray": _gray,
    "det_large": _det_large,
    "symbolic": _symbolic,
}


def make_cycle(workload: str, seed: int, cycle: int) -> list[Op]:
    """The ops of one cycle; identical for identical (workload, seed, cycle)."""
    templates = TEMPLATES[workload]()
    order = list(range(len(templates)))
    random.Random(f"detsum-bench:{workload}:{seed}:{cycle}:order").shuffle(order)
    return [
        templates[slot](random.Random(f"detsum-bench:{workload}:{seed}:{cycle}:{slot}"))
        for slot in order
    ]
