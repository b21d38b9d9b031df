"""Command-line front end with JSON input/output.

Every subcommand writes one report object to stdout:

    {"subcommand": ..., "inputs": <sha256 of the resolved inputs>,
     "result": ..., "status": ..., "elapsed_ms": ...}

status is one of holds/found/none (exit 0), error (exit 1, bad usage or
input), violated (exit 2, a guaranteed contract failed -- never expected
on correct builds).  Reports are byte-identical for identical argv and
seed; elapsed_ms stays null unless --timing is given, so timing noise
never breaks reproducibility.  A report is the exact text of
``json.dumps(report, indent=2)`` plus a newline; ``jsonio.dumps_indented``
writes it, and the ``report-writer-agreement`` fuzz suite holds that
writer to ``json.dumps``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from typing import Any, Callable

from .errors import ContractViolation, DetsumError
from .identities import (
    alternating_subset_det_sum,
    check_alternating_det_identity,
    check_alternating_product_identity,
    det_expansion_certificate,
    find_perturbing_subset,
    homogeneous_alternating_sum,
    perturbation_identity_residual,
    simplex_centroid_check,
)
from .jsonio import (
    MAX_VAR_COUNT,
    SchemaError,
    chain_to_json,
    decode_int,
    dumps_indented,
    element_to_json,
    identity_report_to_json,
    instance_from_json,
    instance_to_json,
    mask_to_json,
    matrices_from_json,
    matrices_to_json,
    ring_from_json,
    simplex_report_to_json,
    value_from_json,
    vectors_from_json,
)
from .matrices import SquareMatrix, det, is_invertible, lift_family, subset_sum
from .rings import IntPolyRing, PrimeField
from .search import (
    embed_product_to_matrices,
    find_invertible_subsum,
    ideal_chain,
    local_counterexample_matrices,
    mixed_char_counterexample_search,
    semilocal_counterexample_instances,
    semilocal_find_unit_subsum,
)
from .subsets import SubsetMask, search_order_sums

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

SEED_ENV_VAR = "DETSUM_SEED"

_EXIT_BY_STATUS = {"holds": EXIT_OK, "found": EXIT_OK, "none": EXIT_OK,
                   "error": EXIT_USAGE, "violated": EXIT_VIOLATION}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _load_document(text: str) -> Any:
    """Parse --input as inline JSON when it looks like JSON, else as a path."""
    stripped = text.strip()
    if not (stripped.startswith("{") or stripped.startswith("[")):
        with open(text, "r", encoding="utf-8") as fh:
            stripped = fh.read()
    try:
        return json.loads(stripped)
    except json.JSONDecodeError:
        raise
    except ValueError:
        # A bare number past the interpreter's int/str digit limit.
        return json.loads(stripped, parse_int=_int_or_digits)


def _int_or_digits(token: str) -> int | str:
    """A JSON integer token as an int, or as its digits past the digit limit.

    decode_int reads decimal strings of any length, and the input digest can
    serialise them, so only the over-long numbers change form.
    """
    limit = sys.get_int_max_str_digits()
    if limit and len(token.lstrip("-")) > limit:
        return token
    return int(token)


def _divides(d: int, x: int) -> bool:
    return x == 0 if d == 0 else x % d == 0


# -- subcommand handlers ----------------------------------------------------
# Each takes the parsed flags, the seed and the --input document (None for
# subcommands without one) and returns (status, result, params); params
# feeds the input digest.  A refused input returns none, so its digest
# takes the raw values of the subcommand's flags.

def _cmd_verify_lemma3(args, seed, doc):
    report = check_alternating_product_identity(args.m, args.n)
    status = "holds" if report.holds else "violated"
    return status, identity_report_to_json(report), {"m": args.m, "n": args.n}


def _cmd_verify_lemma2(args, seed, doc):
    report = check_alternating_det_identity(args.m, args.n)
    status = "holds" if report.holds else "violated"
    return status, identity_report_to_json(report), {"m": args.m, "n": args.n}


def _cmd_alt_sum(args, seed, doc):
    matrices = matrices_from_json(doc)
    m, n = len(matrices), matrices[0].n
    value = alternating_subset_det_sum(matrices)
    zero = value.is_zero()
    if m > n:
        status = "holds" if zero else "violated"
    else:
        status = "holds" if zero else "none"  # no contract when m <= n
    result = {
        "m": m,
        "n": n,
        "term_count": 1 << m,
        "residual": element_to_json(value),
        "is_zero": zero,
        "contract_applies": m > n,
    }
    return status, result, {"document": doc}


def _cmd_certificate(args, seed, doc):
    terms = det_expansion_certificate(args.m, args.n)
    result = {
        "m": args.m,
        "n": args.n,
        "terms": [
            {"mask": mask_to_json(mask), "coefficient": coeff} for mask, coeff in terms
        ],
        "verified": True,
    }
    return "holds", result, {"m": args.m, "n": args.n}


def _cmd_perturb(args, seed, doc):
    matrices = matrices_from_json(doc)
    if len(matrices) < 2:
        raise SchemaError("perturb needs n family matrices plus the perturbation")
    family, perturbation = matrices[:-1], matrices[-1]
    residual = perturbation_identity_residual(family, perturbation)
    witness = find_perturbing_subset(family, perturbation)
    perturbation_det = det(perturbation)
    violated = not residual.is_zero() or (
        not perturbation_det.is_zero() and witness is None
    )
    result = {
        "n": perturbation.n,
        "residual": element_to_json(residual),
        "residual_is_zero": residual.is_zero(),
        "perturbation_det": element_to_json(perturbation_det),
        "witness": mask_to_json(witness),
    }
    if violated:
        status = "violated"
    else:
        status = "found" if witness is not None else "none"
    return status, result, {"document": doc}


def _cmd_homogeneous(args, seed, doc):
    if not isinstance(doc, dict):
        raise SchemaError("expected an object with ring/var_count/poly/vectors")
    ring = ring_from_json(doc.get("ring"), "ring")
    var_count = decode_int(doc.get("var_count"), "var_count")
    if var_count < 1:
        raise SchemaError("var_count: expected a positive integer")
    if var_count > MAX_VAR_COUNT:
        raise SchemaError(f"var_count: {var_count} exceeds the {MAX_VAR_COUNT}-variable limit")
    poly = value_from_json(IntPolyRing(var_count), doc.get("poly"), "poly")
    vectors = vectors_from_json(ring, var_count, doc.get("vectors"))
    degree = poly.homogeneous_degree()
    value = homogeneous_alternating_sum(poly, vectors)
    zero = value.is_zero()
    m = len(vectors)
    contract = degree is not None and m > degree
    if contract:
        status = "holds" if zero else "violated"
    else:
        status = "holds" if zero else "none"
    result = {
        "degree": degree,
        "m": m,
        "term_count": 1 << m,
        "value": element_to_json(value),
        "is_zero": zero,
        "contract_applies": contract,
    }
    return status, result, {"document": doc}


def _cmd_simplex(args, seed, doc):
    points = matrices_from_json(doc)
    report = simplex_centroid_check(points)
    status = (
        "violated"
        if report.premise_holds and not report.centroid_singular
        else "holds"
    )
    return status, simplex_report_to_json(report), {"document": doc}


def _cmd_search_subsum(args, seed, doc):
    matrices = matrices_from_json(doc)
    witness = find_invertible_subsum(matrices, args.bound)
    result = {"m": len(matrices), "bound": args.bound, "witness": mask_to_json(witness)}
    return ("found" if witness is not None else "none"), result, {
        "document": doc,
        "bound": args.bound,
    }


def _cmd_local_counterexample(args, seed, doc):
    family = local_counterexample_matrices(args.modulus, args.m1, args.m2, args.n)
    ring = family[0].ring
    total = subset_sum(family, SubsetMask.full(len(family)))
    total_is_identity = total == SquareMatrix.identity(ring, args.n)
    # One walk takes every subset's determinant.  It doubles as the
    # exhaustive re-check of the construction's guarantee: no subset of at
    # most n members sums to an invertible matrix.
    lift = lift_family(ring, [a.rows for a in family], len(family))
    dets = set()
    defeated = True
    for bits, value in search_order_sums(lift.members, lift.add, len(family)):
        d = lift.det(value)
        if bits.bit_count() <= args.n and lift.is_unit(d):
            defeated = False
        dets.add(lift.finish(d))
    status = "holds" if defeated and total_is_identity else "violated"
    result = {
        "family": matrices_to_json(family),
        "bound_defeated": defeated,
        "total_is_identity": total_is_identity,
        "subset_determinants": sorted(map(str, dets)),
    }
    params = {"modulus": args.modulus, "m1": args.m1, "m2": args.m2, "n": args.n}
    return status, result, params


def _cmd_ideal_chain(args, seed, doc):
    matrices = matrices_from_json(doc)
    chain = ideal_chain(matrices)
    n = matrices[0].n
    m = len(matrices)
    gens = chain.generators
    descending = all(_divides(gens[j + 1], gens[j]) for j in range(m))
    stabilized = all(g == gens[n] for g in gens[n:]) if m >= n else True
    status = "holds" if descending and stabilized else "violated"
    result = {
        "chain": chain_to_json(chain),
        "n": n,
        "stabilized_at_n": stabilized,
        "chain_ascends": descending,
    }
    return status, result, {"document": doc}


def _cmd_semilocal_search(args, seed, doc):
    instance = instance_from_json(doc)
    witness = semilocal_find_unit_subsum(instance, args.bound)
    result = {
        "m": len(instance.elements),
        "n_components": instance.n_components,
        "bound": args.bound,
        "witness": mask_to_json(witness),
    }
    return ("found" if witness is not None else "none"), result, {
        "document": doc,
        "bound": args.bound,
    }


def _cmd_embed(args, seed, doc):
    instance = instance_from_json(doc)
    matrices = embed_product_to_matrices(instance)
    sound = all(
        el.is_unit() == is_invertible(mat)
        for el, mat in zip(instance.elements, matrices)
    )
    result = {"matrices": matrices_to_json(matrices), "unit_detection_matches": sound}
    return ("holds" if sound else "violated"), result, {"document": doc}


def _cmd_example8(args, seed, doc):
    instance_a, instance_b = semilocal_counterexample_instances()
    result = {
        "instance_a": instance_to_json(instance_a),
        "instance_b": instance_to_json(instance_b),
        "verified": True,
    }
    return "holds", result, {}


def _cmd_mine_mixed_char(args, seed, doc):
    try:
        primes = [int(tok) for tok in args.fields.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--fields must be comma-separated primes, got {args.fields!r}")
    if not primes:
        raise _UsageError("--fields must name at least one prime")
    try:
        fields = [PrimeField(p) for p in primes]
    except ValueError as exc:
        raise _UsageError(str(exc))
    instances = mixed_char_counterexample_search(fields, args.m, args.bound)
    result = {
        "fields": primes,
        "m": args.m,
        "bound": args.bound,
        "count": len(instances),
        "instances": [instance_to_json(inst) for inst in instances],
    }
    params = {"fields": primes, "m": args.m, "bound": args.bound}
    return ("found" if instances else "none"), result, params


def _cmd_fuzz(args, seed, doc):
    from . import fuzz  # only this subcommand needs the suites

    if args.trials is not None and args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    names = None
    if args.suites is not None:
        names = [tok.strip() for tok in args.suites.split(",") if tok.strip()]
        if not names:
            raise _UsageError(f"--suites {args.suites!r} names no suite")
    try:
        results = fuzz.run_suites(names, seed=seed, trials=args.trials)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0]))
    payload = [
        {
            "suite": r.name,
            "checks": r.checks,
            "failures": r.failures,
            "first_failure": r.first_failure,
        }
        for r in results
    ]
    failed = sum(r.failures for r in results)
    result = {"seed": seed, "suites": payload, "total_failures": failed}
    params = {"suites": names, "trials": args.trials, "seed": seed}
    return ("holds" if failed == 0 else "violated"), result, params


# Each subcommand is declared here once: handler, help line, flag names.
_COMMANDS: dict[str, tuple[Callable, str, tuple[str, ...]]] = {
    "verify-lemma3": (_cmd_verify_lemma3,
                      "symbolic alternating product identity over m*n variables", ("m", "n")),
    "verify-lemma2": (_cmd_verify_lemma2,
                      "symbolic alternating determinant identity on generic matrices", ("m", "n")),
    "alt-sum": (_cmd_alt_sum,
                "evaluate the alternating subset det sum of a matrix family", ("input",)),
    "certificate": (_cmd_certificate,
                    "expand the full-family determinant into small-subset terms", ("m", "n")),
    "perturb": (_cmd_perturb,
                "perturbation residual and minimal moving subset "
                "(last matrix in the input is the perturbation)", ("input",)),
    "homogeneous": (_cmd_homogeneous,
                    "alternating sum of a homogeneous polynomial over vector subsets", ("input",)),
    "simplex": (_cmd_simplex,
                "singular-simplex centroid check over the rationals", ("input",)),
    "search-subsum": (_cmd_search_subsum,
                      "first invertible subset sum within a cardinality bound", ("input", "bound")),
    "local-counterexample": (_cmd_local_counterexample,
                             "family over Z/N defeating the bound-n search",
                             ("modulus", "m1", "m2", "n")),
    "ideal-chain": (_cmd_ideal_chain,
                    "gcd generators of the subset-sum determinant ideals", ("input",)),
    "semilocal-search": (_cmd_semilocal_search,
                         "first unit subset sum in a product of prime fields", ("input", "bound")),
    "embed": (_cmd_embed,
              "diagonal matrix embedding of a product-ring instance", ("input",)),
    "example8": (_cmd_example8,
                 "the built-in mixed-characteristic counterexample instances", ()),
    "mine-mixed-char": (_cmd_mine_mixed_char,
                        "exhaustively mine counterexample families over a product of prime fields",
                        ("fields", "m", "bound")),
    "fuzz": (_cmd_fuzz,
             "run the seeded randomized property suites", ("trials", "suites")),
}

_REQUIRED_INT = {"type": int, "required": True}
# Every flag's add_argument keywords, the common ones included.
_FLAGS: dict[str, dict] = {
    **dict.fromkeys(("m", "n", "m1", "m2", "modulus", "bound"), _REQUIRED_INT),
    "input": {"required": True, "help": "JSON document, inline or as a file path"},
    "fields": {"required": True, "help": "comma-separated primes, e.g. 2,3,5"},
    "trials": {"type": int, "default": None, "help": "override the per-suite trial counts"},
    "suites": {"default": None, "help": "comma-separated suite names (default: all)"},
    "seed": {"type": int, "default": None,
             "help": f"64-bit seed for randomized runs (default: ${SEED_ENV_VAR} or 0)"},
    "output": {"choices": ("json", "text"), "default": "json"},
    "timing": {"action": "store_true",
               "help": "fill elapsed_ms (off by default to keep reports byte-stable)"},
}
_COMMON_FLAGS = ("seed", "output", "timing")
# The keywords _exact_args reads; a flag declared with any other is left to argparse.
_EXACT_KEYWORDS = frozenset(("type", "choices", "default", "required", "help", "action"))


@functools.cache
def build_parser() -> _Parser:
    """The argument parser for the argvs ``_exact_args`` declines, built
    from ``_COMMANDS`` and ``_FLAGS`` on the first one and then shared.

    Parsing leaves the tree untouched and returns a fresh namespace each
    time, so repeated ``main`` calls in one process see no state carried
    over from earlier calls.  Each subcommand's parser takes the common
    flags first, then its own, with the keywords ``_FLAGS`` gives them;
    ``_exact_args`` reads the same keywords.
    """
    parser = _Parser(prog="detsum", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)  # its actions are shared, not rebuilt
    for flag in _COMMON_FLAGS:
        common.add_argument(f"--{flag}", **_FLAGS[flag])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _exact_args(name: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace subcommand ``name``'s parser gives ``tokens``, when
    they are exact; None for any other tokens.

    Exact means each token is ``--<flag>`` spelled out in full, for a flag
    of the subcommand or a common one, and appears once; each flag that
    takes a value is followed by one that does not start with ``-`` and
    passes the flag's ``type`` and ``choices``; every ``required`` flag is
    there; and every flag of the subcommand is declared with keywords of
    ``_EXACT_KEYWORDS`` only, ``action`` being ``store_true``.  Help,
    abbreviations, ``--flag=value``, repeats, values such as ``-3``, stray
    positionals and every usage error are not exact.
    """
    flags = _COMMON_FLAGS + _COMMANDS[name][2]
    values = {}
    rest = iter(tokens)
    for token in rest:
        flag = token[2:]
        if not token.startswith("--") or flag not in flags or flag in values:
            return None
        spec = _FLAGS[flag]
        if "action" in spec:
            values[flag] = True
            continue
        value = next(rest, "-")
        if value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[flag] = value
    for flag in flags:
        spec = _FLAGS[flag]
        if not spec.keys() <= _EXACT_KEYWORDS or spec.get("action", "store_true") != "store_true":
            return None
        if flag not in values:
            if spec.get("required"):
                return None
            values[flag] = spec.get("default", False if "action" in spec else None)
    args = argparse.Namespace()
    vars(args).update(values)  # a third of the time of Namespace(**values)
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the parser tree does: when argv[0] names a subcommand
    and ``_exact_args`` takes the rest, from ``_FLAGS``; else whole by
    ``build_parser()``, which exact argvs never build.  Namespaces, help
    and usage errors come out the same either way.
    """
    args = _exact_args(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:
        return build_parser().parse_args(argv)
    args.subcommand = argv[0]
    return args


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw, 10)
        except ValueError:
            raise _UsageError(f"{SEED_ENV_VAR}={raw!r} is not an integer")
    if not 0 <= seed < 1 << 64:
        raise _UsageError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


# json.dumps with keywords would build a new encoder on every call.
_DIGEST_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str)


def _digest(subcommand: str, seed: int, params: dict) -> str:
    canonical = _DIGEST_ENCODER.encode({"subcommand": subcommand, "seed": seed, "params": params})
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _emit_text(report: dict, stream) -> None:
    print(f"subcommand: {report['subcommand']}", file=stream)
    print(f"status: {report['status']}", file=stream)
    print(f"inputs: {report['inputs']}", file=stream)
    if report["elapsed_ms"] is not None:
        print(f"elapsed_ms: {report['elapsed_ms']}", file=stream)
    print("result:", file=stream)
    print(dumps_indented(report["result"]), file=stream)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        seed = _resolve_seed(args)
    except _UsageError as exc:
        print(f"detsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    handler, _, flags = _COMMANDS[args.subcommand]
    started = time.perf_counter()
    params = {flag: getattr(args, flag) for flag in flags}
    try:
        doc = _load_document(args.input) if "input" in flags else None
        status, result, params = handler(args, seed, doc)
    except _UsageError as exc:
        print(f"detsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ContractViolation as exc:
        status, result = "violated", {"error": str(exc)}
    except json.JSONDecodeError as exc:
        status = "error"
        result = {"error": f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"}
    except (SchemaError, DetsumError, OSError, ValueError, RecursionError) as exc:
        status, result = "error", {"error": f"{type(exc).__name__}: {exc}"}
    except MemoryError:
        status, result = "error", {"error": "MemoryError: the computation ran out of memory"}
    elapsed_ms = round((time.perf_counter() - started) * 1e3)

    report = {
        "subcommand": args.subcommand,
        "inputs": _digest(args.subcommand, seed, params),
        "result": result,
        "status": status,
        "elapsed_ms": elapsed_ms if args.timing else None,
    }
    if args.output == "json":
        print(dumps_indented(report))
    else:
        _emit_text(report, sys.stdout)
    return _EXIT_BY_STATUS[status]


if __name__ == "__main__":
    sys.exit(main())
