"""End-to-end CLI behaviour: exit codes, schemas, determinism."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import detsum
from detsum.cli import build_parser, main
from detsum import cli, identities, jsonio
from detsum.fuzz import _coprime_rational_row, run_suite
from detsum.rings import INTEGERS, ModRing, PrimeField, ProductRing, RATIONALS
from detsum.matrices import DET_SIZE_CAP, SquareMatrix, lift_family
from detsum.subsets import MAX_FAMILY

COUNTEREXAMPLE_DOC = (
    '{"ring":{"kind":"mod","N":6},"n":2,'
    '"matrices":[[[3,0],[0,0]],[[0,0],[0,3]],[[4,0],[0,4]]]}'
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def run_python(*args):
    """Run a fresh interpreter that imports this same detsum package."""
    src = str(Path(detsum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_verify_lemma3_holds(capsys):
    code, report = run_json(capsys, "verify-lemma3", "--m", "4", "--n", "3")
    assert code == 0
    assert report["status"] == "holds"
    assert report["result"]["holds"] is True
    assert report["result"]["term_count"] == 16
    assert report["elapsed_ms"] is None


def test_verify_lemma2_hypothesis_violation_is_usage_error(capsys):
    code, report = run_json(capsys, "verify-lemma2", "--m", "2", "--n", "2")
    assert code == 1
    assert report["status"] == "error"
    assert "m > n" in report["result"]["error"]


def test_verify_lemma2_holds(capsys):
    code, report = run_json(capsys, "verify-lemma2", "--m", "3", "--n", "2")
    assert code == 0
    assert report["status"] == "holds"


def test_search_subsum_counterexample(capsys, tmp_path):
    path = tmp_path / "matrices.json"
    path.write_text(COUNTEREXAMPLE_DOC)
    code, report = run_json(capsys, "search-subsum", "--input", str(path), "--bound", "2")
    assert code == 0
    assert report["status"] == "none"
    assert report["result"]["witness"] is None

    code, report = run_json(capsys, "search-subsum", "--input", str(path), "--bound", "3")
    assert code == 0
    assert report["status"] == "found"
    assert report["result"]["witness"]["indices"] == [0, 1, 2]


def test_alt_sum_contract_and_informational(capsys):
    doc = '{"ring":{"kind":"integers"},"n":1,"matrices":[[[2]],[[3]],[[5]],[[1]]]}'
    code, report = run_json(capsys, "alt-sum", "--input", doc)
    assert code == 0 and report["status"] == "holds"
    assert report["result"]["contract_applies"] is True

    # m = 1 <= n: no contract; a nonzero residual is reported as "none".
    doc = '{"ring":{"kind":"integers"},"n":1,"matrices":[[[3]]]}'
    code, report = run_json(capsys, "alt-sum", "--input", doc)
    assert code == 0 and report["status"] == "none"
    assert report["result"]["residual"] == -3


def test_alt_sum_on_thirty_identities_holds(capsys):
    # 2^m subsets each; the recurrence reads n + 1 members, then its
    # states are all zero.  (n, m) = (2, 30), and three runs that a walk
    # of the subsets did not finish.
    for n, m in ((2, 30), (5, 22), (3, 44), (2, 50)):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        doc = json.dumps({"ring": {"kind": "integers"}, "n": n, "matrices": [identity] * m})
        code, report = run_json(capsys, "alt-sum", "--input", doc)
        assert code == 0 and report["status"] == "holds", (n, m)
        assert report["result"]["residual"] == 0 and report["result"]["term_count"] == 1 << m


def _poly_entry(rng):
    return {"terms": [[[rng.randint(0, 2), rng.randint(0, 2)], rng.randint(-4, 4)] for _ in range(rng.randint(0, 3))]}


def _coprime_fraction_row(rng, n):
    return [f"{e.numerator}/{e.denominator}" for e in _coprime_rational_row(rng, n)]


def _int_row(rng, n):
    return [rng.randrange(-9, 10) for _ in range(n)]


# Families whose walk of 2^m subsets did not finish: (ring, n, m, draw of
# one row, the lift's ring, sha256 of the alt-sum result).  Z/4 x Z/2 is
# summed per component.
_UNWALKED_ALT_SUMS = {
    "Z[x, y], 30 2x2": ({"kind": "int_poly", "var_count": 2}, 2, 30,
                        lambda rng, n: [_poly_entry(rng) for _ in range(n)], "int_poly",
                        "06ac7bbe4164ca282e8110ec1ad460c120fe2c8a6a6a1bc43e2356f764942d78"),
    "Q past its lift gate, 20 3x3": ({"kind": "rationals"}, 3, 20, _coprime_fraction_row, "rationals",
                                     "d509666112dca9a70863f5976fb49f72e0e9a2d527e4fcd5f126880cbc747483"),
    "Z, 40 6x6": ({"kind": "integers"}, 6, 40, _int_row, "integers",
                  "812b5701500cfd279bb61316bda045821e7efd15f35ae23457db83f2da2fc1b6"),
    "Z, 30 7x7": ({"kind": "integers"}, 7, 30, _int_row, "integers",
                  "2637c3dc30c2a13104bb21b2ae1f9c42ed00949ff97302ecc26e7f1773fa1bee"),
    "Z/4 x Z/2, 30 2x2": ({"kind": "product", "components": [{"kind": "mod", "N": 4}, {"kind": "mod", "N": 2}]},
                          2, 30, lambda rng, n: [[rng.randrange(4), rng.randrange(2)] for _ in range(n)], "product",
                          "61d7d4e48a984331ad48ff4a0e909ec71a06a30f344611af416cc3fad7d039e4"),
}


@pytest.mark.parametrize("name", list(_UNWALKED_ALT_SUMS))
def test_alt_sum_on_array_lifts_takes_no_walk(capsys, monkeypatch, name):
    ring, n, m, draw, lifted_kind, digest = _UNWALKED_ALT_SUMS[name]
    rng = random.Random(name)
    doc = {"ring": ring, "n": n, "matrices": [[draw(rng, n) for _ in range(n)] for _ in range(m)]}
    family = jsonio.matrices_from_json(doc)
    assert lift_family(family[0].ring, [a.rows for a in family], m).ring.kind == lifted_kind

    def walk(lift):
        raise AssertionError("the alternating sum walked its subsets")

    monkeypatch.setattr(identities, "_walk_alternating_sum", walk)
    code, report = run_json(capsys, "alt-sum", "--input", json.dumps(doc))
    assert code == 0 and report["status"] == "holds", report
    zero = jsonio.value_to_json(family[0].ring, family[0].ring.zero)
    assert report["result"]["residual"] == zero and report["result"]["term_count"] == 1 << m
    result = json.dumps(report["result"], sort_keys=True).encode()
    assert hashlib.sha256(result).hexdigest() == digest


def test_homogeneous_on_thirty_vectors_holds(capsys):
    # f = xy on 30 vectors: 2^30 points, four states of the recurrence.
    rng = random.Random(30)
    vectors = [[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(30)]
    doc = json.dumps({"ring": {"kind": "integers"}, "var_count": 2,
                      "poly": {"terms": [[[1, 1], 1]]}, "vectors": vectors})
    code, report = run_json(capsys, "homogeneous", "--input", doc)
    assert code == 0 and report["status"] == "holds", report


def test_reports_are_byte_identical(capsys):
    _, first = run_cli(capsys, "fuzz", "--trials", "2", "--suites", "det-agreement", "--seed", "5")
    _, second = run_cli(capsys, "fuzz", "--trials", "2", "--suites", "det-agreement", "--seed", "5")
    assert first == second


def test_timing_flag_fills_elapsed(capsys):
    code, report = run_json(capsys, "verify-lemma3", "--m", "3", "--n", "1", "--timing")
    assert code == 0
    assert isinstance(report["elapsed_ms"], int)


def test_seed_env_var_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("DETSUM_SEED", "9")
    code, report = run_json(capsys, "fuzz", "--trials", "1", "--suites", "det-agreement")
    assert code == 0 and report["result"]["seed"] == 9
    code, report = run_json(
        capsys, "fuzz", "--trials", "1", "--suites", "det-agreement", "--seed", "4"
    )
    assert code == 0 and report["result"]["seed"] == 4


def test_malformed_json_reports_position(capsys):
    code, report = run_json(capsys, "alt-sum", "--input", '{"ring": nope}')
    assert code == 1
    assert report["status"] == "error"
    assert "line 1" in report["result"]["error"]


def test_missing_input_file_gives_one_error_report(capsys, tmp_path):
    code, report = run_json(capsys, "alt-sum", "--input", str(tmp_path / "absent.json"))
    assert code == 1
    assert report["status"] == "error"
    assert report["result"]["error"].startswith("FileNotFoundError: ")


def test_verify_lemma3_refuses_a_family_past_the_size_cap(capsys):
    code, report = run_json(capsys, "verify-lemma3", "--m", "37", "--n", "1")
    assert code == 1
    assert report["status"] == "error"
    assert report["result"]["error"] == "SizeLimit: m*n = 37 exceeds the cap 36"


def test_verify_lemma3_holds_at_the_size_cap(capsys):
    # The counts are closed-form, so m is bounded by m*n <= 36 alone.
    code, report = run_json(capsys, "verify-lemma3", "--m", "36", "--n", "1")
    assert code == 0
    assert report["result"]["holds"] is True
    assert report["result"]["term_count"] == 1 << 36


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["verify-lemma3", "--m", "4"]) == 1  # missing --n
    assert main(["verify-lemma3", "--m", "4", "--n", "3", "--threads", "2"]) == 1  # no such flag
    assert main(["fuzz", "--suites", "no-such-suite"]) == 1


# (argv, stderr) of usage errors that argparse does not raise: they come
# from the flags' values, so they are written with no report.
_USAGE_ERRORS = [
    (["mine-mixed-char", "--fields", "2,x", "--m", "3", "--bound", "2"],
     "detsum: error: --fields must be comma-separated primes, got '2,x'\n"),
    (["mine-mixed-char", "--fields", ",", "--m", "3", "--bound", "2"],
     "detsum: error: --fields must name at least one prime\n"),
    (["example8", "--seed", "18446744073709551616"],
     "detsum: error: seed must be an unsigned 64-bit integer, got 18446744073709551616\n"),
]


@pytest.mark.parametrize("argv, stderr", _USAGE_ERRORS, ids=[" ".join(argv)[:40] for argv, _ in _USAGE_ERRORS])
def test_usage_errors_are_pinned(capsys, argv, stderr):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)


def test_a_seed_variable_that_is_no_integer_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    assert main(["example8"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "detsum: error: DETSUM_SEED='abc' is not an integer\n")


# (argv, error) of refused parameters, each one error report.
_PARAMETER_REFUSALS = [
    (["local-counterexample", "--modulus", "1", "--m1", "3", "--m2", "4", "--n", "2"],
     "InvalidParameters: modulus must be at least 2, got 1"),
    (["local-counterexample", "--modulus", "6", "--m1", "3", "--m2", "4", "--n", "0"],
     "InvalidParameters: matrix size must be positive, got 0"),
    (["local-counterexample", "--modulus", "6", "--m1", "1", "--m2", "0", "--n", "2"],
     "InvalidParameters: 1 is a unit modulo 6"),
    # README quotes this refusal: the miner counts its multisets first.
    (["mine-mixed-char", "--fields", "2,3,5,7", "--m", "5", "--bound", "4"],
     "SearchSpaceTooLarge: 988455798 candidate multisets exceed the budget 5000000"),
]


@pytest.mark.parametrize("argv, error", _PARAMETER_REFUSALS, ids=[" ".join(argv)[:40] for argv, _ in _PARAMETER_REFUSALS])
def test_parameter_refusals_are_pinned(capsys, argv, error):
    code, report = run_json(capsys, *argv)
    assert code == 1 and report["status"] == "error"
    assert report["result"] == {"error": error}


def test_example8_and_semilocal_search(capsys):
    code, report = run_json(capsys, "example8")
    assert code == 0 and report["status"] == "holds"
    instance_doc = json.dumps(report["result"]["instance_a"])

    code, search = run_json(
        capsys, "semilocal-search", "--input", instance_doc, "--bound", "3"
    )
    assert code == 0 and search["status"] == "none"
    code, search = run_json(
        capsys, "semilocal-search", "--input", instance_doc, "--bound", "4"
    )
    assert code == 0 and search["status"] == "found"
    assert search["result"]["witness"]["indices"] == [0, 1, 2, 3]


def test_local_counterexample_report(capsys):
    code, report = run_json(
        capsys, "local-counterexample", "--modulus", "6",
        "--m1", "3", "--m2", "4", "--n", "2",
    )
    assert code == 0 and report["status"] == "holds"
    assert report["result"]["bound_defeated"] is True
    assert report["result"]["total_is_identity"] is True
    assert report["result"]["subset_determinants"] == ["0", "1", "3", "4"]


def test_ideal_chain_strict_ascent(capsys):
    doc = '{"ring":{"kind":"integers"},"n":2,"matrices":[[[1,0],[0,0]],[[0,0],[0,1]]]}'
    code, report = run_json(capsys, "ideal-chain", "--input", doc)
    assert code == 0 and report["status"] == "holds"
    assert report["result"]["chain"]["generators"] == [0, 0, 1]
    assert report["result"]["stabilized_at_n"] is True


def test_perturb_subcommand(capsys):
    doc = (
        '{"ring":{"kind":"integers"},"n":2,'
        '"matrices":[[[0,0],[0,0]],[[0,0],[0,0]],[[1,0],[0,1]]]}'
    )
    code, report = run_json(capsys, "perturb", "--input", doc)
    assert code == 0 and report["status"] == "found"
    assert report["result"]["residual_is_zero"] is True
    assert report["result"]["witness"]["indices"] == [0]


def test_homogeneous_subcommand(capsys):
    doc = json.dumps(
        {
            "ring": {"kind": "integers"},
            "var_count": 2,
            "poly": {"terms": [[[1, 0], 2], [[0, 1], -3]]},
            "vectors": [[1, 4], [-2, 5]],
        }
    )
    code, report = run_json(capsys, "homogeneous", "--input", doc)
    assert code == 0 and report["status"] == "holds"
    assert report["result"]["degree"] == 1
    assert report["result"]["is_zero"] is True


@pytest.mark.parametrize(
    "var_count, term, where",
    [
        (1, [[True], 1], "poly.terms[0]"),
        (1, [[1], 1.5], "poly.terms[0]"),
        (True, [[1], 1], "var_count"),
    ],
)
def test_homogeneous_rejects_non_integers(capsys, var_count, term, where):
    doc = json.dumps(
        {
            "ring": {"kind": "integers"},
            "var_count": var_count,
            "poly": {"terms": [term]},
            "vectors": [[1], [2]],
        }
    )
    code, report = run_json(capsys, "homogeneous", "--input", doc)
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"].startswith(f"SchemaError: {where}")


@pytest.mark.parametrize(
    "p", ["318665857834031151167461", "3317044064679887385961981"]
)
def test_composite_prime_field_descriptor_is_refused(capsys, p):
    doc = '{"ring":{"kind":"prime_field","p":"%s"},"n":1,"matrices":[[[1]],[[2]]]}' % p
    code, report = run_json(capsys, "alt-sum", "--input", doc)
    assert code == 1 and report["status"] == "error"


@pytest.mark.parametrize(
    "ring, error",
    [
        ({"kind": "product", "components": []},
         "SchemaError: ring.components: expected a nonempty array"),
        ({"kind": "product", "components": [
            {"kind": "product", "components": [{"kind": "prime_field", "p": 4}]}]},
         "SchemaError: ring.components[0].components[0]: modulus 4 is not prime"),
        ({"kind": "prime_field", "p": "x"}, "SchemaError: ring.p: 'x' is not a decimal integer"),
        ({"kind": "prime_field", "p": 4}, "SchemaError: ring: modulus 4 is not prime"),
    ],
    ids=["empty-product", "nested-composite", "bad-int", "composite"],
)
def test_ring_refusals_name_their_path_once(capsys, ring, error):
    doc = json.dumps({"ring": ring, "n": 1, "matrices": [[[1]]]})
    code, report = run_json(capsys, "alt-sum", "--input", doc)
    assert code == 1 and report["result"]["error"] == error


def test_error_reports_digest_their_raw_inputs(capsys):
    # A refused input resolves no params, so its digest covers the raw
    # flag values: two malformed rings differ, one ring given twice agrees.
    digests = []
    for ring in ('{"kind":"product","components":[]}', '{"kind":"mod","N":1}',
                 '{"kind":"product","components":[]}'):
        code, report = run_json(capsys, "alt-sum", "--input",
                                '{"ring":%s,"n":1,"matrices":[[[1]]]}' % ring)
        assert code == 1 and report["status"] == "error"
        digests.append(report["inputs"])
    assert digests[0] != digests[1] and digests[0] == digests[2]


@pytest.mark.parametrize(
    "doc",
    [
        '{"ring":' + '{"kind":"product","components":[' * 1200 + '{"kind":"integers"}'
        + "]}" * 1200 + ',"n":1,"matrices":[[[0]]]}',
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["product-1200", "array-100000"],
)
def test_deep_nesting_gives_one_error_report(capsys, doc):
    code, out = run_cli(capsys, "alt-sum", "--input", doc)
    report = json.loads(out)
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"].startswith("RecursionError")


def test_memory_error_gives_one_error_report(capsys, monkeypatch):
    # An engine that runs out of memory (a Z[x] Berkowitz determinant at
    # n = 8 in 7 variables did) ends in one error report with exit 1.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "alternating_subset_det_sum", exhausted)
    code, out = run_cli(capsys, "alt-sum", "--input", '{"ring":{"kind":"integers"},"n":1,"matrices":[[[1]]]}')
    report = json.loads(out)
    assert code == 1 and report["status"] == "error"
    assert report["result"] == {"error": "MemoryError: the computation ran out of memory"}


def test_simplex_subcommand(capsys):
    doc = (
        '{"ring":{"kind":"rationals"},"n":2,'
        '"matrices":[[[1,0],[0,0]],[[0,0],[0,1]],[[1,0],[0,1]]]}'
    )
    code, report = run_json(capsys, "simplex", "--input", doc)
    assert code == 0 and report["status"] == "holds"
    assert report["result"]["premise_holds"] is False
    assert {"m": 3, "indices": [2]} in report["result"]["failing_subsets"]


def test_certificate_subcommand(capsys):
    code, report = run_json(capsys, "certificate", "--m", "3", "--n", "2")
    assert code == 0 and report["status"] == "holds"
    assert report["result"]["verified"] is True
    assert len(report["result"]["terms"]) == 6


def test_embed_subcommand_and_mixed_fields_error(capsys):
    doc = json.dumps(
        {
            "ring": {
                "kind": "product",
                "components": [{"kind": "prime_field", "p": 3}, {"kind": "prime_field", "p": 3}],
            },
            "elements": [[1, 2], [1, 0]],
        }
    )
    code, report = run_json(capsys, "embed", "--input", doc)
    assert code == 0 and report["status"] == "holds"
    assert report["result"]["unit_detection_matches"] is True

    mixed = json.dumps(
        {
            "ring": {
                "kind": "product",
                "components": [{"kind": "prime_field", "p": 2}, {"kind": "prime_field", "p": 3}],
            },
            "elements": [[1, 2]],
        }
    )
    code, report = run_json(capsys, "embed", "--input", mixed)
    assert code == 1 and report["status"] == "error"


def test_mine_mixed_char_subcommand(capsys):
    code, report = run_json(capsys, "mine-mixed-char", "--fields", "2,3", "--m", "4", "--bound", "2")
    assert code == 0 and report["status"] == "none"
    assert report["result"]["count"] == 0
    assert main(["mine-mixed-char", "--fields", "4,3", "--m", "2", "--bound", "2"]) == 1


def test_text_output_mode(capsys):
    code, out = run_cli(capsys, "verify-lemma3", "--m", "3", "--n", "1", "--output", "text")
    assert code == 0
    assert out.startswith("subcommand: verify-lemma3")
    assert "status: holds" in out


def test_text_output_is_pinned(capsys):
    # The whole stdout of a long report and of an error report, taken
    # before the result block moved from json.dumps(indent=2) to
    # jsonio.dumps_indented.
    code, out = run_cli(capsys, "example8", "--output", "text")
    assert code == 0
    assert len(out) == 1381
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3d651bb48397980efd1371fdb231bdf85e935ae93bb61b0a9fd7c0d8cbcb444d")
    code, out = run_cli(capsys, "alt-sum", "--input", "{}", "--output", "text")
    assert code == 1
    assert out == (
        "subcommand: alt-sum\n"
        "status: error\n"
        "inputs: sha256:4f4d13961cbc8a97873e75c16d48641fb39b9fc73a072a6d65b2d8b545560abb\n"
        "result:\n"
        "{\n"
        '  "error": "SchemaError: ring: expected an object, got NoneType"\n'
        "}\n"
    )


def test_fuzz_exit_zero_on_pass(capsys):
    code, report = run_json(
        capsys, "fuzz", "--trials", "2",
        "--suites", "alt-sum-zero,search-nonlocal-counterexample",
    )
    assert code == 0 and report["status"] == "holds"
    assert report["result"]["total_failures"] == 0


@pytest.mark.parametrize("flags, message", [
    (["--trials", "-3", "--suites", "superset-sign-sums"], "--trials must be at least 1, got -3"),
    (["--trials", "0"], "--trials must be at least 1, got 0"),
    (["--suites", ","], "--suites ',' names no suite"),
    (["--suites", ""], "--suites '' names no suite"),
], ids=["negative trials", "zero trials", "separators only", "empty suites"])
def test_fuzz_refuses_a_run_that_checks_nothing(capsys, flags, message):
    # A run of no trials or no suites would report holds after no check.
    assert main(["fuzz", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"detsum: error: {message}\n"


def test_contract_violation_exits_two(capsys, monkeypatch):
    from detsum import ContractViolation
    from detsum import cli as cli_mod

    def boom():
        raise ContractViolation("synthetic failure for exit-code plumbing")

    monkeypatch.setattr(cli_mod, "semilocal_counterexample_instances", boom)
    code, report = run_json(capsys, "example8")
    assert code == 2
    assert report["status"] == "violated"


# -- serialization round trips -------------------------------------------------

def test_matrix_document_round_trip():
    doc = json.loads(COUNTEREXAMPLE_DOC)
    matrices = jsonio.matrices_from_json(doc)
    emitted = jsonio.matrices_to_json(matrices)
    again = jsonio.matrices_from_json(emitted)
    assert jsonio.matrices_to_json(again) == emitted


def test_value_round_trip_every_ring():
    from fractions import Fraction
    from detsum.rings import IntPolyRing, SparsePoly

    cases = [
        (INTEGERS, 10**20),
        (RATIONALS, Fraction(-3, 7)),
        (PrimeField(7), 5),
        (ModRing(6), 4),
        (ProductRing([PrimeField(2), PrimeField(3)]), (1, 2)),
        (IntPolyRing(2), SparsePoly(2, {(1, 1): 3, (0, 0): -(10**20)})),
    ]
    for ring, value in cases:
        value = ring.normalize(value)
        blob = jsonio.value_to_json(ring, value)
        assert jsonio.value_from_json(ring, json.loads(json.dumps(blob))) == value


def test_big_integers_serialize_as_strings():
    assert jsonio.encode_int(2**53 - 1) == 2**53 - 1
    assert jsonio.encode_int(2**53) == str(2**53)
    assert jsonio.decode_int("123456789012345678901", "x") == 123456789012345678901


def test_decimal_strings_of_any_length_round_trip():
    digits = "7" * 5000
    for text in (digits, "-" + digits):
        assert jsonio.encode_int(jsonio.decode_int(text, "x")) == text


@pytest.mark.parametrize("text", ["1_000", " 12 ", "+5", "\u0661\u0662", "7" * 4999 + "x"])
def test_lax_decimal_strings_are_refused(capsys, text):
    doc = json.dumps({"ring": {"kind": "integers"}, "n": 1, "matrices": [[[text]], [[1]]]})
    code, report = run_json(capsys, "alt-sum", "--input", doc)
    assert code == 1 and report["status"] == "error"
    error = report["result"]["error"]
    assert error.startswith("SchemaError: matrices[0][0][0]") and len(error) < 200


def test_perturb_reports_a_det_past_the_digit_limit(capsys):
    # det(B) has 6,000 digits, beyond the interpreter's default int/str limit.
    big = "7" * 3000
    doc = json.dumps(
        {
            "ring": {"kind": "integers"},
            "n": 2,
            "matrices": [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[big, 1], [2, big]]],
        }
    )
    code, report = run_json(capsys, "perturb", "--input", doc)
    assert code == 0 and report["status"] == "found"
    b = jsonio.decode_int(big, "big")
    assert jsonio.decode_int(report["result"]["perturbation_det"], "det") == b * b - 2


def test_alt_sum_has_no_algorithm_option(capsys):
    doc = '{"ring":{"kind":"integers"},"n":1,"matrices":[[[2]],[[3]]]}'
    code = main(["alt-sum", "--input", doc, "--algorithm", "auto"])
    assert code == 1


def test_ring_descriptor_round_trip():
    rings = [
        INTEGERS,
        RATIONALS,
        PrimeField(101),
        ModRing(10),
        ProductRing([PrimeField(2), PrimeField(3), PrimeField(5)]),
    ]
    for ring in rings:
        assert jsonio.ring_from_json(jsonio.ring_to_json(ring)) == ring
    # F_p is a ModRing, yet keeps its own kind in JSON.
    assert jsonio.ring_to_json(PrimeField(7)) == {"kind": "prime_field", "p": 7}
    assert jsonio.ring_to_json(ModRing(7)) == {"kind": "mod", "N": 7}
    assert type(jsonio.ring_from_json({"kind": "mod", "N": 7})) is ModRing


def test_int_poly_var_count_is_bounded(capsys):
    # The variables of a generic family of the largest accepted shape.
    limit = jsonio.MAX_VAR_COUNT
    assert limit == MAX_FAMILY * DET_SIZE_CAP**2
    assert jsonio.ring_from_json({"kind": "int_poly", "var_count": limit}).var_count == limit
    with pytest.raises(jsonio.SchemaError, match="var_count"):
        jsonio.ring_from_json({"kind": "int_poly", "var_count": limit + 1})
    doc = {"ring": {"kind": "int_poly", "var_count": 10**9}, "n": 1, "matrices": [[[{"terms": []}]]]}
    code, report = run_json(capsys, "search-subsum", "--input", json.dumps(doc), "--bound", "1")
    assert code == 1 and report["status"] == "error"
    assert "exceeds the 262144-variable limit" in report["result"]["error"]


# -- one parser per process ------------------------------------------------------

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def _mask_elapsed(text):
    return re.sub(r'(elapsed_ms"?:) \d+', r"\1 <ms>", text)


def test_repeated_main_calls_match_fresh_interpreters(capsys):
    # No flag or default may carry over from one call to the next, and
    # ``python -m detsum`` must behave as ``main`` does.
    sequence = [
        ["verify-lemma3", "--m", "4"],  # usage error: missing --n
        ["verify-lemma3", "--m", "4", "--n", "3", "--seed", "7", "--timing", "--output", "text"],
        ["verify-lemma3", "--m", "4", "--n", "3"],
        ["example8", "--threads", "0"],
        ["example8"],
    ]
    for argv in sequence:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = run_python("-m", "detsum", *argv)
        assert code == fresh.returncode, argv
        assert _mask_elapsed(captured.out) == _mask_elapsed(fresh.stdout), argv
        assert captured.err == fresh.stderr, argv
    assert code == 0


def test_importing_the_cli_leaves_the_fuzz_suites_unloaded():
    probe = run_python("-c", "import sys, detsum.cli; print('detsum.fuzz' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_importing_the_cli_compiles_no_expansion():
    # The generated Laplace and Bareiss code is compiled on first use,
    # never at import.
    probe = run_python(
        "-c",
        "import detsum.cli; from detsum import matrices as m; "
        "print(*(f.cache_info().currsize for f in (m._laplace_det, m._laplace_minors, m._bareiss_det)))",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["0", "0", "0"]


@pytest.mark.parametrize("via_file", [False, True])
def test_bare_numbers_past_the_digit_limit_are_read(capsys, tmp_path, via_file):
    digits = "7" * 5000
    template = '{"ring":{"kind":"integers"},"n":1,"matrices":[[[%s]]]}'
    reports = []
    for entry in (digits, '"%s"' % digits):
        doc = template % entry
        if via_file:
            path = tmp_path / "doc.json"
            path.write_text(doc, encoding="utf-8")
            doc = str(path)
        code, report = run_json(capsys, "alt-sum", "--input", doc)
        assert code == 0, report
        reports.append(report)
    assert reports[0]["result"] == reports[1]["result"]
    assert reports[0]["result"]["residual"] == "-" + digits
    # Only the over-long number changes form; "n" stays an int.
    assert reports[0]["inputs"] == reports[1]["inputs"]


# -- input digests ------------------------------------------------------------

_INSTANCE_DOC = (
    '{"ring":{"kind":"product","components":[{"kind":"prime_field","p":2},'
    '{"kind":"prime_field","p":%d}]},"elements":[[1,0],[0,1],[1,%d]]}'
)


_DIGESTS = [
    (["verify-lemma3", "--m", "3", "--n", "2"],
     "3b28e4a715ed7868c8102e30bc41a37e08cdf41521d2792b086f136bfe98b5c1"),
    (["verify-lemma2", "--m", "3", "--n", "2"],
     "fab0ec7626b24210d550a48b16f03295fcbd823cd63e1cb4c974a5d6e9ba23f0"),
    (["alt-sum", "--input", COUNTEREXAMPLE_DOC],
     "7dfac2532087d1040a47fee80e4ac219f7fe6826df1ea0a4c915c9dcb0245d41"),
    (["certificate", "--m", "3", "--n", "2"],
     "6b275a8cc5da8da680683929ff78d6c68194d67fd18e8b1432e16ca8bbba60c3"),
    (["perturb", "--input", COUNTEREXAMPLE_DOC],
     "fa4eb501a80ec2a8586de1cf52c75c91796346fad9975886650bc245d91ed2aa"),
    (["homogeneous", "--input",
      '{"ring":{"kind":"integers"},"var_count":2,"poly":{"terms":[[[2,0],1]]},'
      '"vectors":[[1,2],[3,4],[5,6]]}'],
     "581bfb0d61a4c1ea06e3bebfc496180d843bb87420551ece69fbb24daba58f1a"),
    (["simplex", "--input",
      '{"ring":{"kind":"rationals"},"n":2,'
      '"matrices":[[[1,0],[0,0]],[[0,1],[0,0]],[[0,0],[1,0]]]}'],
     "e96029e4219ccd56c1c30dbe727f45b24da9d0174e03f14ba6d8dbb90c570a56"),
    (["search-subsum", "--input", COUNTEREXAMPLE_DOC, "--bound", "2"],
     "7c15e99071feb8a6d1cffdf1d4717bddceee64935d74e55f60d189fec9fac9a0"),
    (["local-counterexample", "--modulus", "6", "--m1", "3", "--m2", "4", "--n", "2"],
     "28eefb59ac9302edfd8a6684e583c3f7ba177b22a7c1f0ea2f0140af9a97977c"),
    (["ideal-chain", "--input", COUNTEREXAMPLE_DOC],
     "c379a53aa7f229e465a4a69533f7245f1ed9cf82420af62c142666e211e3986f"),
    (["semilocal-search", "--input", _INSTANCE_DOC % (3, 2), "--bound", "2"],
     "9665a91c35188c18d88ce0ba82fc7fb152e55efe76e1ff37031654cd7acfdd63"),
    (["embed", "--input", _INSTANCE_DOC % (2, 1)],
     "dd6acc083e8b81e5f31afdf2335b0f65ae3397512d212436bb98f22172cb0757"),
    (["example8"],
     "cff6ca94d64b4face5199789a4839234d365bd113503ad471f868b3c5796a3bc"),
    (["mine-mixed-char", "--fields", "2,3", "--m", "3", "--bound", "2"],
     "45a58fb9ab3254aae14c9225c6373010460d607e517de3b581962b55aea11e31"),
    (["fuzz", "--suites", "inverse-roundtrip", "--trials", "2", "--seed", "3"],
     "f150ad3f2a254210a9b637b1623f04820408d49a73ebf997236832dc3bb2c73c"),
]


@pytest.mark.parametrize("argv, digest", _DIGESTS, ids=[argv[0] for argv, _ in _DIGESTS])
def test_input_digests_are_stable(capsys, argv, digest):
    # The digest covers the resolved inputs only; a change of it breaks every
    # stored report, so each subcommand's is pinned here.
    code, report = run_json(capsys, *argv)
    assert code == 0, report
    assert report["inputs"] == "sha256:" + digest


def _no_float(token):
    raise AssertionError(f"a report holds the float {token}")


@pytest.mark.parametrize("argv", [argv for argv, _ in _DIGESTS], ids=[argv[0] for argv, _ in _DIGESTS])
def test_reports_are_the_text_of_indented_json_dumps(capsys, argv):
    # A report carries no float, so loading it and writing it again with
    # json.dumps(indent=2) gives back its exact text.
    code, out = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out, parse_float=_no_float, parse_constant=_no_float)
    assert out == json.dumps(report, indent=2) + "\n"


class _Small(int):
    pass


class _Word(str):
    pass


@pytest.mark.parametrize("value", [
    None, True, False, 0, -1, "", [], {}, [[]], {"": {}}, [{}, [], ""],
    [[1, [2, []]], {"a": [3, {}]}],
    [True, 1, False, 0, None],
    {"true": True, "one": 1, "false": False, "zero": 0},
    "quote \" backslash \\ slash / nul \x00 bell \x07 del \x7f",
    "\xe9\u4e2d \ufeff\U0001f600 \ud800 \udfff",
    [(1 << 53) - 1, -(1 << 53) - 1, 1 << 64, -(1 << 200) - 7],
    {"a": {"b": {"c": {"d": {"e": {"f": {"g": {"h": [1, {"i": []}]}}}}}}}},
    # outside the writer's types: each goes whole to json.dumps
    1.5, [1, 2.0], (1, "a"), {"k": (None,)}, {1: "one"}, {"a": {None: 0}},
    _Small(3), [_Small(-2)], _Word("x"), {"a": [_Word("\U0001f600")]}, {"a": [float("nan")]},
], ids=repr)
def test_writer_matches_indented_json_dumps(value):
    assert jsonio.dumps_indented(value) == json.dumps(value, indent=2)


def test_report_writer_agreement_suite():
    result = run_suite("report-writer-agreement", seed=0)
    assert result.failures == 0, result.first_failure
    assert result.checks == 2 * 216


# -- result pins --------------------------------------------------------------

def _wide(rng):
    return rng.choice((-1, 1)) * ((1 << 63) + rng.getrandbits(63))


# One case per kind of lift: (ring, n, entry draw, (walks as ints, slot
# width) of the lift, sha256 of the perturb result, sha256 of the alt-sum
# result).  The perturb input is n + 1 matrices; alt-sum takes the first n,
# so its residual is not forced to zero.
_RESULT_PINS = {
    "Z, packed": (
        {"kind": "integers"}, 2, lambda rng: rng.randint(-9, 9), (True, 8),
        "65db33a3444f30f24a430e5946043dfc3d1a20cfcc6aa1a555052e17cbd7889e",
        "0599017fa5a5aebbefa5cd524d3bf6f3b2aaa55b4a6421cb752a06840dfdb7e4"),
    "Z, int arrays": (
        {"kind": "integers"}, 5, _wide, (True, None),
        "1e1dc1e670873bd2ea2aa5583e197f672398e3c0d8a6512fe439959336d2282e",
        "9eb3daf96c9cbeffaae5ab7fa1034497160f637e774e5ec96b40000ddfb6732b"),
    "Q, lifted": (
        {"kind": "rationals"}, 3, lambda rng: f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}",
        (True, 16),
        "5a2cbc2b95191768743a19f96e1fb6c8b321d2a9525c47d2c11004bd75470b29",
        "5775feae73791f486519403aa45eb42be0035cce0d7db83d354de7e80c3e01df"),
    "Q, past the lift gate": (
        {"kind": "rationals"}, 3, lambda rng: f"{rng.randint(-9, 9)}/{rng.getrandbits(128) | 1}",
        (False, None),
        "6bd9594970e928cd9800a395651b566e3964e6c85c59a8aa74a744f212b0b853",
        "26dd6e99ec2cb28d2f808d043780daf8f622ee13befe87c5c83b0b466726a3d3"),
    "Z/10 at n = 6, Bareiss": (
        {"kind": "mod", "N": 10}, 6, lambda rng: rng.randrange(10), (True, 8),
        "e22c50bdc0029bb3a15b1b6d0540bb2d81bce1f816e206c91816d7f9bdd13152",
        "e3d26a677b861add3a1b5d3d07ebab25053950ff5e11c7f6984c7843636a8c1c"),
    "F2xF3xF5, CRT to Z/30": (
        {"kind": "product", "components": [{"kind": "prime_field", "p": p} for p in (2, 3, 5)]},
        3, lambda rng: [rng.randrange(2), rng.randrange(3), rng.randrange(5)], (True, 8),
        "3032c06bfd348d39e7aad397c7288525f05c928409647233d5b919a5224e988c",
        "f4bafc562ed1ee9dcfc0aa456b07862a5ddf2a94e48495dc3a1c297c90dfee75"),
    "Z/6xF3, not coprime": (
        {"kind": "product", "components": [{"kind": "mod", "N": 6}, {"kind": "prime_field", "p": 3}]},
        2, lambda rng: [rng.randrange(6), rng.randrange(3)], (False, None),
        "c504d2b8572040bb500ab97124bf316fff7f5d9156138ace7f57379f3a09b419",
        "8374108a770a2e704899374291eee611047bc15a20adfc4050a11118b8f698f0"),
    "n = 1, plain ints": (
        {"kind": "integers"}, 1, lambda rng: rng.randint(-99, 99), (True, 0),
        "8640c36af630a14ac4b3543d3df2c549bab2eefa6642ebe574776b91ba431723",
        "82ead875115890c5d19fa258d1c92fbebca91041948dd72525b557b3492a6172"),
    "Z[x, y, z] at n = 3": (
        {"kind": "int_poly", "var_count": 3}, 3,
        lambda rng: {"terms": [[[rng.randint(0, 2) for _ in range(3)], rng.randint(-5, 5)]
                               for _ in range(rng.randint(0, 2))]},
        (False, None),
        "b68ad588d2c48718ad83be927e4f7e31e38d5f407c84c5b01b50f51464fcf272",
        "c96db93b12880b146eddbe614f8249c159ecac203923c802824e62cbb38b8828"),
}


@pytest.mark.parametrize("name", list(_RESULT_PINS))
def test_perturb_and_alt_sum_results_are_pinned(capsys, name):
    ring, n, draw, kind, perturb_digest, alt_sum_digest = _RESULT_PINS[name]
    rng = random.Random(name)
    matrices = [[[draw(rng) for _ in range(n)] for _ in range(n)] for _ in range(n + 1)]
    for command, count, digest in (("perturb", n + 1, perturb_digest), ("alt-sum", n, alt_sum_digest)):
        doc = {"ring": ring, "n": n, "matrices": matrices[:count]}
        family = jsonio.matrices_from_json(doc)
        lift = lift_family(family[0].ring, [a.rows for a in family], count)
        assert (lift.ring == INTEGERS, lift.width) == kind, command
        code, report = run_json(capsys, command, "--input", json.dumps(doc))
        assert code == 0, report
        result = json.dumps(report["result"], sort_keys=True).encode()
        assert hashlib.sha256(result).hexdigest() == digest, command


# Each kind of int lift that the alternating-sum recurrence serves: (ring,
# entry draw, whether n >= 2 packs, sha256 of the alt-sum results at every
# (n, m) of _SPLIT_PIN_SHAPES).  n = 1 lifts to plain ints for every kind.
_SPLIT_PIN_SHAPES = [(n, m) for n in (1, 2, 3, 4) for m in (6, 10, 12)]
_SPLIT_RESULT_PINS = {
    "Z": ({"kind": "integers"}, lambda rng: rng.randint(-9, 9), True,
          "710094d4d05afa04b00f5ea1f148194b4d74daca59fb6ea8d4259b019a94b8db"),
    "Q, lifted": ({"kind": "rationals"}, lambda rng: f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}", True,
                  "710094d4d05afa04b00f5ea1f148194b4d74daca59fb6ea8d4259b019a94b8db"),
    "Z/10": ({"kind": "mod", "N": 10}, lambda rng: rng.randrange(10), True,
             "710094d4d05afa04b00f5ea1f148194b4d74daca59fb6ea8d4259b019a94b8db"),
    "F2xF3xF5, CRT to Z/30": (
        {"kind": "product", "components": [{"kind": "prime_field", "p": p} for p in (2, 3, 5)]},
        lambda rng: [rng.randrange(2), rng.randrange(3), rng.randrange(5)], True,
        "f50a6d4bfd42b256dcf0185b7d4cb4a6ade7776d6bc5d59247318baeba7d0b0f"),
    "Z/(2^512-1), int arrays": (
        {"kind": "mod", "N": str(2**512 - 1)}, lambda rng: str(rng.randrange(2**512 - 1)), False,
        "710094d4d05afa04b00f5ea1f148194b4d74daca59fb6ea8d4259b019a94b8db"),
}


@pytest.mark.parametrize("name", list(_SPLIT_RESULT_PINS))
def test_alt_sum_results_above_the_split_crossover_are_pinned(capsys, name):
    ring, draw, packs, digest = _SPLIT_RESULT_PINS[name]
    rng = random.Random(f"20:{name}")
    results = []
    for n, m in _SPLIT_PIN_SHAPES:
        doc = {"ring": ring, "n": n, "matrices": [[[draw(rng) for _ in range(n)] for _ in range(n)]
                                                   for _ in range(m)]}
        family = jsonio.matrices_from_json(doc)
        lift = lift_family(family[0].ring, [a.rows for a in family], m)
        assert lift.ring == INTEGERS and (lift.width != 0) == (n > 1), (n, m)
        assert (lift.width is not None) == (packs or n == 1), (n, m)
        code, report = run_json(capsys, "alt-sum", "--input", json.dumps(doc))
        assert code == 0 and report["status"] == "holds", (n, m, report)
        results.append(report["result"])
    got = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert got == digest


# sha256 of the alt-sum results at every m <= n <= 5, where the contract
# does not apply, for the rings of _SPLIT_RESULT_PINS.  The seed salt 50 is
# the first from 21 on that gives a nonzero residual in every case of every
# ring.
_SMALL_FAMILY_SHAPES = [(n, m) for n in range(1, 6) for m in range(1, n + 1)]
_SMALL_FAMILY_PINS = {
    "Z": "e2dcb4a7e23b0d19d56ff09774f6a333587fb29e68f5b7be079218c445a317f4",
    "Q, lifted": "28978e2e7ff7d349f36423c8566c97fa95bd43104db11b69e8b71e65c28b2329",
    "Z/10": "9311448f08e887e87b435828d1de20772a125993a978250d7569f0e4b2ed5ce6",
    "F2xF3xF5, CRT to Z/30": "01f7778fed73620f0dbb41d31bf63f5c91d36433ee3371e2c094fdd5a26ed60f",
    "Z/(2^512-1), int arrays": "e09182ceb1ac314216d5f29e5fd1eb8a69ec86e3989f73daa51f15fb01ed2a56",
}


@pytest.mark.parametrize("name", list(_SMALL_FAMILY_PINS))
def test_nonzero_alt_sum_results_are_pinned(capsys, name):
    ring, draw, _, _ = _SPLIT_RESULT_PINS[name]
    rng = random.Random(f"50:{name}")
    results = []
    for n, m in _SMALL_FAMILY_SHAPES:
        doc = {"ring": ring, "n": n, "matrices": [[[draw(rng) for _ in range(n)] for _ in range(n)]
                                                   for _ in range(m)]}
        family = jsonio.matrices_from_json(doc)
        assert lift_family(family[0].ring, [a.rows for a in family], m).ring == INTEGERS, (n, m)
        code, report = run_json(capsys, "alt-sum", "--input", json.dumps(doc))
        assert code == 0 and report["status"] == "none", (n, m, report)
        results.append(report["result"])
    got = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert got == _SMALL_FAMILY_PINS[name]


# sha256 of the result of each symbolic subcommand: verify-lemma3 at two
# sizes, verify-lemma2 and certificate at every (m, n) within
# DET_IDENTITY_CAPS, taken while both still expanded generic matrices over Z[x].
_SYMBOLIC_RESULT_PINS = [
    (["verify-lemma3", "--m", "3", "--n", "2"],
     "b739b6de52a1b8e2534033e29ba79e1f37ad9767de9f49c33d6a059aafab8c85"),
    (["verify-lemma3", "--m", "20", "--n", "1"],
     "93bea7a51e78b224429a0edc282e9456b609ea70ac63d7cfdd3d227d0d8ace96"),
    (["verify-lemma2", "--m", "2", "--n", "1"],
     "91dfd9ac598caf7a8864fdd63255e271e8f07fdf8f08a87e1333aa0030e4ff78"),
    (["verify-lemma2", "--m", "3", "--n", "1"],
     "ccb94e62fb7baf7390169452b6a8970404b51817979ec7fe3b4fd65bebaf4f60"),
    (["verify-lemma2", "--m", "3", "--n", "2"],
     "1fbc313ebdd3a9ddf6d2aef94afacaa3c044eb1165196833905370c981cece49"),
    (["verify-lemma2", "--m", "4", "--n", "1"],
     "4c85ce7a6b17e297d5e51422bef6ba0964af50107dd6f0535822133c7de4a232"),
    (["verify-lemma2", "--m", "4", "--n", "2"],
     "d2319b2695bea9c4f7c849ada08b3b41c821e69aef1cef2139a9d3f2cb20bda5"),
    (["verify-lemma2", "--m", "4", "--n", "3"],
     "d21647cc8ac5f1d2c49009299d0b4bb5d0bdf4119ef5242475a6041c5b27e5c4"),
    (["verify-lemma2", "--m", "5", "--n", "1"],
     "5f67e68310d60759cb93beb768f2be15aed30e17dcdd7e7e640c55ef841cc3b6"),
    (["verify-lemma2", "--m", "5", "--n", "2"],
     "aec9ee546c566a4564ee38b090b05ea43292135a15dd4bafb7cee278bab24172"),
    (["verify-lemma2", "--m", "5", "--n", "3"],
     "fb5f436f8f2a26fc224979067ee833968152efd2d69b1f05e7fc37d08cad1c4f"),
    (["certificate", "--m", "2", "--n", "1"],
     "34341777b0938fbc367f84685f552c59e793403b79292bf2d5d8c3ac0dae6807"),
    (["certificate", "--m", "3", "--n", "1"],
     "fc44858085ac535dcc252de4cdc19f8881f94ebe273e493c7629de9e16e06a63"),
    (["certificate", "--m", "3", "--n", "2"],
     "17043be2c81c1f452227f9b42c4a5a35843f98b46c6570b05e206d995cfcccba"),
    (["certificate", "--m", "4", "--n", "1"],
     "2ed5ffcb73806ee72971d0b0ec6a2ce5d0f101731709d2689010cc044563cfbb"),
    (["certificate", "--m", "4", "--n", "2"],
     "51969583d8f9e96b02e001bf3ccfb7817c0d2ebb989a0f8d968d121cd923ccc0"),
    (["certificate", "--m", "4", "--n", "3"],
     "33d44c11ce07c03fa31dfee239f41a65427e328ecf759308520b82939e52d225"),
    (["certificate", "--m", "5", "--n", "1"],
     "b850a6c5db3f0b5af8996f3d29f719744a0e8702f0ca690208ccc1d2f679081a"),
    (["certificate", "--m", "5", "--n", "2"],
     "20157b13c0c5917b0cb7ea8eade2d748fced8922c2b73daa12d92f238f29282e"),
    (["certificate", "--m", "5", "--n", "3"],
     "0cc066ad6ec61f7b25d74751abc6ac9e9bb764946ac17e776e0f7d64dbe678f2"),
]


@pytest.mark.parametrize(
    "argv, digest", _SYMBOLIC_RESULT_PINS, ids=[" ".join(argv) for argv, _ in _SYMBOLIC_RESULT_PINS]
)
def test_symbolic_results_are_pinned(capsys, argv, digest):
    code, report = run_json(capsys, *argv)
    assert code == 0, report
    result = json.dumps(report["result"], sort_keys=True).encode()
    assert hashlib.sha256(result).hexdigest() == digest


def _residue_family(ring, n, m, draw, bound):
    # m n x n matrices, each entry draw(rng, its row); a search at the
    # bound, or the ideal chain when the bound is None.
    def argv():
        rng = random.Random(json.dumps(ring))
        matrices = [[[draw(rng, i) for _ in range(n)] for i in range(n)] for _ in range(m)]
        doc = json.dumps({"ring": ring, "n": n, "matrices": matrices})
        if bound is None:
            return ["ideal-chain", "--input", doc]
        return ["search-subsum", "--input", doc, "--bound", str(bound)]

    return argv


def _residue_instance(command, primes, m, draw, *flags):
    def argv():
        rng = random.Random(command + str(primes))
        ring = {"kind": "product", "components": [{"kind": "prime_field", "p": p} for p in primes]}
        elements = [[draw(rng, c, p) for c, p in enumerate(primes)] for _ in range(m)]
        return [command, "--input", json.dumps({"ring": ring, "elements": elements}), *flags]

    return argv


_F101 = {"kind": "prime_field", "p": 101}
_Z10 = {"kind": "mod", "N": 10}
_F2F3F5 = {"kind": "product", "components": [{"kind": "prime_field", "p": p} for p in (2, 3, 5)]}

# (argv builder, status, sha256 of the result) for the residue-ring
# subcommands: F_p, Z/N and products of them.  A "none" family keeps
# every subset sum singular: a zero row over F_101, even entries over
# Z/10, a zero F_2 coordinate over F2xF3xF5.
_RESIDUE_RESULT_PINS = {
    "search-subsum F_101, found": (
        _residue_family(_F101, 3, 6, lambda rng, i: rng.randrange(101), 3), "found",
        "d48304b1657b5f86f6e04f2d5fb02a0d993eb02ddb5d5a975d16e8a6ee3ccc6b"),
    "search-subsum F_101, none": (
        _residue_family(_F101, 3, 6, lambda rng, i: rng.randrange(101) if i else 0, 6), "none",
        "50f96e991c0af638aa51bb7e9b279c6d43938e8bc8d695955b4108e8ac8c3ec4"),
    "search-subsum Z/10, found": (
        _residue_family(_Z10, 2, 5, lambda rng, i: rng.randrange(10), 2), "found",
        "1267ca96a83ac73b01452e77df019b1bd6b47d0f89009e0ba1ba980895d7750d"),
    "search-subsum Z/10, none": (
        _residue_family(_Z10, 2, 5, lambda rng, i: 2 * rng.randrange(5), 5), "none",
        "e93b0a5a66028c9382a3cd69b9b67efb3c00a0f9053be283c85463cebd6deb1c"),
    "search-subsum F2xF3xF5, found": (
        _residue_family(_F2F3F5, 2, 5, lambda rng, i: [rng.randrange(2), rng.randrange(3), rng.randrange(5)], 3),
        "found", "4f9bad8d518e3a59645cf74890642e31bc7bffcf5ec9f2080e18728bd55c2dd9"),
    "search-subsum F2xF3xF5, none": (
        _residue_family(_F2F3F5, 2, 6, lambda rng, i: [0, rng.randrange(3), rng.randrange(5)], 4),
        "none", "ef0e608264903fed757a472e4b1849ec2cd13bf4a5d1a88d5528e980365c28cf"),
    "semilocal-search, found": (
        _residue_instance("semilocal-search", (2, 3, 5), 5, lambda rng, c, p: rng.randrange(p), "--bound", "3"),
        "found", "d02e10a26e64f25c0a3140142689692eb4ab5dafa93c5edf85c3c438cdd8512f"),
    "semilocal-search, none": (
        _residue_instance("semilocal-search", (2, 3, 5), 5,
                          lambda rng, c, p: rng.randrange(p) if c else 0, "--bound", "5"),
        "none", "25e6cac72236d7b199b53509f4b952e075013f5cde35b089e5883cbaff2a4b30"),
    "ideal-chain Z/12": (
        _residue_family({"kind": "mod", "N": 12}, 2, 6, lambda rng, i: rng.randrange(12), None), "holds",
        "dd7f4fd51a02b5a97c263476fdbd65b1c86373354c740b653bd36c94ca59ec11"),
    "embed": (
        _residue_instance("embed", (3, 3, 3), 4, lambda rng, c, p: rng.randrange(p)), "holds",
        "07f80d30997c08422324baab6c85bcdf09bedb77376d67436c30d4c226347749"),
    "example8": (lambda: ["example8"], "holds", "4291b32a90e7d53b42b198d2d9b694c549871fc743de21fa4803acf0df57065b"),
    "local-counterexample": (
        lambda: ["local-counterexample", "--modulus", "10", "--m1", "5", "--m2", "6", "--n", "3"], "holds",
        "3452414496fc5b85e4c56b38c87c587bd6ba358acf1be85e2e7f075701197a50"),
}


@pytest.mark.parametrize("name", list(_RESIDUE_RESULT_PINS))
def test_residue_ring_results_are_pinned(capsys, name):
    _check_result_pin(capsys, *_RESIDUE_RESULT_PINS[name])


def _simplex_points(n, draw, premise):
    # n + 1 points, each row draw(rng, n); a point whose last row is twice
    # its first keeps every subset sum singular, so the premise holds.
    def argv():
        rng = random.Random(f"simplex {n} {premise}")
        points = []
        for _ in range(n + 1):
            rows = [draw(rng, n) for _ in range(n)]
            if premise:
                rows[-1] = [str(2 * Fraction(e)) for e in rows[0]]
            points.append(rows)
        return ["simplex", "--input", json.dumps({"ring": {"kind": "rationals"}, "n": n, "matrices": points})]

    return argv


def _small_fraction_row(rng, n):
    return [f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}" for _ in range(n)]


# (argv builder, status, sha256 of the result) for the Q and F_p
# subcommands without other pins: simplex on lifted (small denominators)
# and unlifted (a fresh 64-bit prime denominator per row) Q families, and
# the mixed-characteristic miner with and without instances.  A family
# whose premise holds reports no failing subset, whatever its n.
_SIMPLEX_AND_MINER_RESULT_PINS = {
    "simplex n=2, premise holds": (
        _simplex_points(2, _small_fraction_row, True), "holds",
        "7e8720d1012a569d8bf39ab3611b449dba84b550a1e9d451715b9f33cf78fb27"),
    "simplex n=2, premise fails": (
        _simplex_points(2, _small_fraction_row, False), "holds",
        "a9873486ece789e7699cd5038ead23ccbe6ccff51c07eeff0abbf7b20eeaf146"),
    "simplex n=5, premise holds": (
        _simplex_points(5, _coprime_fraction_row, True), "holds",
        "7e8720d1012a569d8bf39ab3611b449dba84b550a1e9d451715b9f33cf78fb27"),
    "simplex n=5, premise fails": (
        _simplex_points(5, _coprime_fraction_row, False), "holds",
        "f9376a6710fef0512a5ef5130594ea5893e21736434acbba80c69cb19a5ca5cf"),
    "mine-mixed-char F2 F3 F5, 16 families": (
        lambda: ["mine-mixed-char", "--fields", "2,3,5", "--m", "4", "--bound", "3"], "found",
        "bab355f048c8f598d194726c1290427c13cefddb11f8bcfb5be33b6be8d22909"),
    "mine-mixed-char F2 F3, none": (
        lambda: ["mine-mixed-char", "--fields", "2,3", "--m", "3", "--bound", "2"], "none",
        "408073fca0bda70892d929c566fb5cf6ced7a3d5611f7c11ca1954410fa079b9"),
}


@pytest.mark.parametrize("name", list(_SIMPLEX_AND_MINER_RESULT_PINS))
def test_simplex_and_miner_results_are_pinned(capsys, name):
    _check_result_pin(capsys, *_SIMPLEX_AND_MINER_RESULT_PINS[name])


def _poly(rng, var_count, constant=0.0, factor=0):
    # A constant -1, 0 or 1 with probability `constant`, else 0-2 terms
    # with exponents 0..2 and coefficients in [-5, 5]; each exponent of
    # x0 is raised by `factor`, so every entry is a multiple of x0^factor.
    if rng.random() < constant:
        return {"terms": [[[factor] + [0] * (var_count - 1), rng.choice((-1, 0, 1))]]}
    return {"terms": [[[rng.randint(0, 2) + (factor if v == 0 else 0) for v in range(var_count)],
                       rng.randint(-5, 5)] for _ in range(rng.randint(0, 2))]}


def _poly_family(command, var_count, n, m, *flags, mod=None, **draw):
    # m n x n matrices over Z[x0..x(var_count-1)], or over its product
    # with Z/mod, each entry a _poly(rng, var_count, **draw).
    def argv():
        rng = random.Random(f"{command} {var_count} {n} {m} {mod}")
        ring = {"kind": "int_poly", "var_count": var_count}
        entry = lambda: _poly(rng, var_count, **draw)
        if mod is not None:
            ring = {"kind": "product", "components": [ring, {"kind": "mod", "N": mod}]}
            entry = lambda: [_poly(rng, var_count, **draw), rng.randrange(mod)]
        matrices = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(m)]
        return [command, "--input", json.dumps({"ring": ring, "n": n, "matrices": matrices}), *flags]

    return argv


# (argv builder, status, sha256 of the result) over Z[x...] at n = 1..8,
# on both sides of CLOSED_FORM_MAX_N (the compiled expansion at n <= 7,
# Berkowitz at n = 8), in one, two and three variables.  Alt-sum at n = 2,
# m = 3 runs the member-by-member recurrence, every other alt-sum the
# walk of its subsets.  A "none" search keeps every entry a multiple of
# x0, so no subset sum has a unit determinant.
_INT_POLY_RESULT_PINS = {
    "alt-sum Z[x] n=1 m=2, walk": (
        _poly_family("alt-sum", 1, 1, 2), "holds",
        "dc6e213427597dc649a6576cfcc66eed67b69d93d3728d847b46c108484879d5"),
    "alt-sum Z[x,y] n=2 m=3, recurrence": (
        _poly_family("alt-sum", 2, 2, 3), "holds",
        "0f844bcac4921abf62cf132e870ea63856d80ca7a3791a111c8d8768755835e7"),
    "alt-sum Z[x,y,z] n=3 m=3, walk": (
        _poly_family("alt-sum", 3, 3, 3), "none",
        "65452055aa2b6a1b9d2230b4674e9b5636c08769b01b1850a9dcb1e8898c939f"),
    "alt-sum Z[x] n=4 m=5, walk": (
        _poly_family("alt-sum", 1, 4, 5), "holds",
        "b19d6eee6f1ebbb5bed49d9350bfb900aa9a1e4ff00c888cbab5eef380c1d0ca"),
    "alt-sum Z[x,y] n=5 m=3, walk": (
        _poly_family("alt-sum", 2, 5, 3), "none",
        "5a4908c63789d3bf030ae5c5bda8676458a633ab8340422c0f00f2d2711b3647"),
    "alt-sum Z[x,y,z] n=6 m=2, walk": (
        _poly_family("alt-sum", 3, 6, 2, constant=0.5), "none",
        "67da44658056347882fb7adace8bf4132d23541bb71f2a6765fa4ac41dfb3a63"),
    "alt-sum Z[x] n=7 m=2, walk": (
        _poly_family("alt-sum", 1, 7, 2), "none",
        "f2a7a2fcb306919f7e15c2dabb3dbe19a179fb6664195ea701bb75a1b7fd0a0c"),
    "alt-sum Z[x,y] n=8 m=2, Berkowitz": (
        _poly_family("alt-sum", 2, 8, 2, constant=0.6), "none",
        "754f698914f67132dcdeae10cee451af14735a47d9c361e3f7ef594d269dfa6d"),
    "search-subsum Z[x,y] n=3, found": (
        _poly_family("search-subsum", 2, 3, 5, "--bound", "3", constant=0.8), "found",
        "6db1f891fe3ea29b0d3cca55d3674da15369fbde6719340e05aac43a9f812904"),
    "search-subsum Z[x] n=4, none": (
        _poly_family("search-subsum", 1, 4, 4, "--bound", "4", factor=1), "none",
        "08d0265d66f4cb0c7058f3772cc6a9a89dcf657d22aef724de5540ca4f10fe51"),
    "search-subsum Z[x,y,z] n=8, none": (
        _poly_family("search-subsum", 3, 8, 2, "--bound", "2", constant=0.8, factor=1), "none",
        "421e12a04f6d47eedd9831b80de2d391578f86d264d1e358330a7db0ba647891"),
    "perturb Z[x,y,z] n=2": (
        _poly_family("perturb", 3, 2, 3), "found",
        "3af61416be6a95fbff64540eac1b855ae53e9d17f9f626b4d712fec467fed43c"),
    "perturb Z[x,y] n=4": (
        _poly_family("perturb", 2, 4, 5, constant=0.5), "found",
        "30b72d367b80b0566475d81eb692bd3b7dc1ab47586d1b1d99cd3f75b024bf0c"),
    "alt-sum Z[x] x Z/6 n=2 m=3": (
        _poly_family("alt-sum", 1, 2, 3, mod=6), "holds",
        "2c9da89dafc42aa5a7ce65840e9c37c9a8b558bfed2ac2d8ff65638948c8a680"),
}


@pytest.mark.parametrize("name", list(_INT_POLY_RESULT_PINS))
def test_int_poly_results_are_pinned(capsys, name):
    _check_result_pin(capsys, *_INT_POLY_RESULT_PINS[name])


def _check_result_pin(capsys, argv, status, digest):
    code, report = run_json(capsys, *argv())
    assert code == 0 and report["status"] == status, report
    result = json.dumps(report["result"], sort_keys=True).encode()
    assert hashlib.sha256(result).hexdigest() == digest


def _poly_terms(rng, var_count, degree):
    # 1-3 terms of one total degree, coefficients +-1..5.
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * var_count
        for _ in range(degree):
            exps[rng.randrange(var_count)] += 1
        terms[tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 5)
    return [[list(e), c] for e, c in sorted(terms.items())]


_COPRIME_DENOMINATORS = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
_N512 = 2**512 - 1

# (ring, draw(rng, k) of the k-th coordinate, sha256 of the results of
# _HOMOGENEOUS_CASES).  The Q coordinates have pairwise coprime
# denominators, so the common denominator D and D^d are both large.
_HOMOGENEOUS_RESULT_PINS = {
    "Z, negative entries": (
        {"kind": "integers"}, lambda rng, k: rng.randint(-9, 9),
        "631eb7f1c084e599ad6930c77deedfcbd51b4276b3b89890db26464439a076b3"),
    "Z/6": (
        {"kind": "mod", "N": 6}, lambda rng, k: rng.randrange(6),
        "32483729b10ce4b11e99ab6dae28d033d81e7f20e60c477da111ca3d449d2f76"),
    "F_7": (
        {"kind": "prime_field", "p": 7}, lambda rng, k: rng.randrange(7),
        "cb1448655dc536749e43be4545a13eb5959ca029d06d277cb8ee0fa3dabe136b"),
    "Q, coprime denominators": (
        {"kind": "rationals"},
        lambda rng, k: f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{_COPRIME_DENOMINATORS[k]}",
        "d533a9c4d376a05fb479fb20da313679f5e69ea657624490dd069311cc79f1f3"),
    "Z/(2^512-1)": (
        {"kind": "mod", "N": str(_N512)}, lambda rng, k: str(rng.randrange(_N512)),
        "119d18cf3242ae1f01240fd878fad8f0cbe4bbac253f801dfa8a136ee71047ee"),
    "F2xF3xF5": (
        _F2F3F5, lambda rng, k: [rng.randrange(2), rng.randrange(3), rng.randrange(5)],
        "80520dfd4a6c3303589550b12247daf1e09df6a52649c27d138ccd8829493162"),
    "Z/4xZ/6, not coprime": (
        {"kind": "product", "components": [{"kind": "mod", "N": 4}, {"kind": "mod", "N": 6}]},
        lambda rng, k: [rng.randrange(4), rng.randrange(6)],
        "aeb9ad58ca65d0cbe3f0eab65ded691bcf15e5a526f18c743b4e4f142c4978d8"),
    "Z[x, y]": (
        {"kind": "int_poly", "var_count": 2},
        lambda rng, k: {"terms": [[[rng.randint(0, 2), rng.randint(0, 2)], rng.randint(-3, 3)]
                                  for _ in range(rng.randint(1, 2))]},
        "abc1455d80919b2dbebdb9734eac55cdc4f23bfbf781743a697803cda3a2289b"),
}

# (degree, m): the value is zero when m > degree.  When m <= degree it may
# be zero by chance over a small ring; the seed salt 19 is the first that
# gives a nonzero value in every such case of every ring.
_HOMOGENEOUS_CASES = ((0, 1), (0, 3), (1, 2), (2, 3), (3, 4), (1, 1), (2, 2), (3, 3), (3, 2))


@pytest.mark.parametrize("name", list(_HOMOGENEOUS_RESULT_PINS))
def test_homogeneous_results_are_pinned(capsys, name):
    ring, draw, digest = _HOMOGENEOUS_RESULT_PINS[name]
    rng = random.Random(f"19:{name}")
    var_count = 3
    results = []
    for degree, m in _HOMOGENEOUS_CASES:
        vectors = [[draw(rng, i * var_count + j) for j in range(var_count)] for i in range(m)]
        doc = {"ring": ring, "var_count": var_count,
               "poly": {"terms": _poly_terms(rng, var_count, degree)}, "vectors": vectors}
        code, report = run_json(capsys, "homogeneous", "--input", json.dumps(doc))
        assert code == 0 and report["status"] == ("holds" if m > degree else "none"), (degree, m, report)
        results.append(report["result"])
    got = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert got == digest


def test_homogeneous_recurrence_result_is_pinned(capsys, monkeypatch):
    # Every recurrence case above has m > d, whose sum is exactly 0 as an
    # integer.  Degree 4 at m = 4 over F_7 goes to the recurrence too, and
    # its sum, 4! times a polarization of f, is not 0 mod 7, so a
    # recurrence that skipped its final reduction would show here.
    calls = []
    recurrence = identities._recurrence_homogeneous_sum
    monkeypatch.setattr(identities, "_recurrence_homogeneous_sum",
                        lambda *args: calls.append(args[1]) or recurrence(*args))
    doc = {"ring": {"kind": "prime_field", "p": 7}, "var_count": 3,
           "poly": {"terms": [[[4, 0, 0], 1], [[0, 4, 0], -2], [[0, 0, 4], 3]]},
           "vectors": [[1, 2, 3], [4, 5, 6], [6, 1, 1], [2, 0, 5]]}
    code, report = run_json(capsys, "homogeneous", "--input", json.dumps(doc))
    assert calls == [PrimeField(7)]
    assert code == 0 and report["status"] == "none"
    assert report["result"]["value"] == 2  # 7,632 over Z


# -- entry decoding -------------------------------------------------------------

_F2X3X5 = {"kind": "product", "components": [
    {"kind": "prime_field", "p": 2},
    {"kind": "product", "components": [{"kind": "prime_field", "p": 3}, {"kind": "prime_field", "p": 5}]},
]}
_POLY2 = {"kind": "int_poly", "var_count": 2}
_LINEAR = {"terms": [[[1, 0], 1]]}

# Each refusal's message, as the isinstance-ladder decoders wrote it.
_ENTRY_REFUSALS = [
    ("alt-sum", {"ring": {"kind": "integers"}, "n": 2, "matrices": [[[1, 2], [3, True]]]},
     "matrices[0][1][1]: expected an integer, got a boolean"),
    ("alt-sum", {"ring": {"kind": "integers"}, "n": 2, "matrices": [[[1, 2], [3, 4]], [[1, "1_000"], [3, 4]]]},
     "matrices[1][0][1]: '1_000' is not a decimal integer"),
    ("alt-sum", {"ring": {"kind": "rationals"}, "n": 1, "matrices": [[["1/0"]]]},
     "matrices[0][0][0]: zero denominator"),
    ("alt-sum", {"ring": {"kind": "rationals"}, "n": 1, "matrices": [[["x/2"]]]},
     "matrices[0][0][0].numerator: 'x' is not a decimal integer"),
    ("alt-sum", {"ring": {"kind": "rationals"}, "n": 1, "matrices": [[["3/+4"]]]},
     "matrices[0][0][0].denominator: '+4' is not a decimal integer"),
    ("alt-sum", {"ring": {"kind": "mod", "N": 6}, "n": 1, "matrices": [[[1.5]]]},
     "matrices[0][0][0]: expected an integer or decimal string, got 1.5"),
    ("alt-sum", {"ring": _F2X3X5, "n": 1, "matrices": [[[[1, 2]]]]},
     "matrices[0][0][0]: expected an array of 3 components"),
    ("alt-sum", {"ring": _F2X3X5, "n": 1, "matrices": [[[[1, 2, " 12 "]]]]},
     "matrices[0][0][0][2]: ' 12 ' is not a decimal integer"),
    ("alt-sum", {"ring": _POLY2, "n": 1, "matrices": [[[{"terms": [[[1, -1], 2]]}]]]},
     "matrices[0][0][0]: exponents must be nonnegative ints, got (1, -1)"),
    ("alt-sum", {"ring": _POLY2, "n": 1, "matrices": [[[{"terms": [[[1, True], 2]]}]]]},
     "matrices[0][0][0].terms[0][0][1]: expected an integer, got a boolean"),
    ("alt-sum", {"ring": _POLY2, "n": 1, "matrices": [[[{"terms": [[[1, 0]]]}]]]},
     "matrices[0][0][0].terms[0]: expected [exponents, coeff]"),
    ("alt-sum", {"ring": {"kind": "integers"}, "n": 2, "matrices": [[[1, 2], [3]]]},
     "matrices[0][1]: expected 2 entries"),
    ("alt-sum", {"ring": {"kind": "integers"}, "n": 2, "matrices": [[[1, 2]]]},
     "matrices[0]: expected 2 rows"),
    ("alt-sum", {"ring": {"kind": "integers"}, "n": 1, "matrices": [[["7" * 700 + "x"]]]},
     "matrices[0][0][0]: '777777777777777777777777777777777777777... (703 characters) is not a decimal integer"),
    ("semilocal-search", {"ring": _F2X3X5, "elements": [[1, 1, 1], [0, True, 1]]},
     "elements[1][1]: expected an integer, got a boolean"),
    ("semilocal-search", {"ring": _F2X3X5, "elements": [[1, 1, 1], [0, 1]]},
     "elements[1]: expected an array of 3 components"),
    ("semilocal-search", {"ring": _F2X3X5, "elements": [[1, 1, 1], "+5"]},
     "elements[1]: expected an array of 3 components"),
    ("semilocal-search", {"ring": _F2X3X5, "elements": []},
     "elements: expected a nonempty array"),
    ("homogeneous", {"ring": {"kind": "integers"}, "var_count": 2, "poly": _LINEAR, "vectors": [[1, 2], [3, "\u0661"]]},
     "vectors[1][1]: '\u0661' is not a decimal integer"),
    ("homogeneous", {"ring": {"kind": "integers"}, "var_count": 2, "poly": _LINEAR, "vectors": [[1, 2], [3]]},
     "vectors[1]: expected 2 coordinates"),
    ("homogeneous", {"ring": {"kind": "rationals"}, "var_count": 2, "poly": _LINEAR, "vectors": [[1, "2/0"]]},
     "vectors[0][1]: zero denominator"),
    ("homogeneous", {"ring": {"kind": "integers"}, "var_count": 2, "poly": {"terms": [[[1, 0], 1.5]]},
                     "vectors": [[1, 2]]},
     "poly.terms[0][1]: expected an integer or decimal string, got 1.5"),
    ("homogeneous", {"ring": {"kind": "integers"}, "var_count": 2, "poly": _LINEAR, "vectors": []},
     "vectors: expected a nonempty array"),
    ("homogeneous", [1], "expected an object with ring/var_count/poly/vectors"),
    ("homogeneous", {"ring": {"kind": "integers"}, "var_count": 0, "poly": _LINEAR, "vectors": [[1, 2]]},
     "var_count: expected a positive integer"),
    ("perturb", {"ring": {"kind": "integers"}, "n": 1, "matrices": [[[1]]]},
     "perturb needs n family matrices plus the perturbation"),
    ("alt-sum", {"ring": {"kind": "integers"}, "n": 0, "matrices": [[[1]]]},
     "n: must be in [1, 64], got 0"),
    ("alt-sum", {"ring": {"kind": "integers"}, "n": 65, "matrices": [[[1]]]},
     "n: must be in [1, 64], got 65"),
    ("alt-sum", {"ring": {"kind": "integers"}, "n": 1, "matrices": []},
     "matrices: expected a nonempty array"),
    ("alt-sum", {"ring": {"kind": "integers"}, "n": 1, "matrices": [[[1]]] * 65},
     "matrices: family of 65 exceeds the 64 limit"),
    ("semilocal-search", {"ring": {"kind": "integers"}, "elements": [1]},
     "ring: a semilocal instance needs a product ring"),
]


@pytest.mark.parametrize("subcommand, doc, error", _ENTRY_REFUSALS,
                         ids=[f"{cmd}-{i}" for i, (cmd, _, _) in enumerate(_ENTRY_REFUSALS)])
def test_entry_refusals_are_pinned(capsys, subcommand, doc, error):
    bound = ["--bound", "2"] if subcommand == "semilocal-search" else []
    code, report = run_json(capsys, subcommand, "--input", json.dumps(doc), *bound)
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == "SchemaError: " + error


def test_homogeneous_var_count_is_bounded(capsys):
    # The int_poly bound, checked before the polynomial or the vectors are
    # read: 300,000 variables and two vectors used to run for seconds.
    errors = []
    for var_count in (jsonio.MAX_VAR_COUNT, jsonio.MAX_VAR_COUNT + 1, 300_000):
        doc = {"ring": {"kind": "integers"}, "var_count": var_count, "poly": "x", "vectors": "x"}
        code, report = run_json(capsys, "homogeneous", "--input", json.dumps(doc))
        assert code == 1 and report["status"] == "error"
        errors.append(report["result"]["error"])
    assert errors == [
        "SchemaError: poly: expected an object, got str",
        "SchemaError: var_count: 262145 exceeds the 262144-variable limit",
        "SchemaError: var_count: 300000 exceeds the 262144-variable limit",
    ]


def test_json_decode_agreement_suite():
    result = run_suite("json-decode-agreement", seed=0)
    assert result.failures == 0, result.first_failure
    assert result.checks == 256


def test_entry_decoders_run_only_inside_the_from_json_globals(capsys, monkeypatch):
    # The benchmark's tracer times decoding (jsonio.decode_s) as the calls
    # of the cli globals whose names end in _from_json, so every entry
    # must be decoded inside one of them.
    depth = [0]

    def span(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in [name for name in vars(cli) if name.endswith("_from_json")]:
        monkeypatch.setattr(cli, name, span(getattr(cli, name)))
    decoded, outside = [], []

    def watched(make):
        def factory(ring):
            decode = make(ring)

            def entry(obj):
                (decoded if depth[0] else outside).append(obj)
                return decode(obj)
            return entry
        return factory

    monkeypatch.setattr(jsonio, "_ENTRY_DECODERS",
                        {kind: watched(make) for kind, make in jsonio._ENTRY_DECODERS.items()})
    argvs = [argv for argv, _ in _DIGESTS if "input" in cli._COMMANDS[argv[0]][2]]
    assert len(argvs) == 8
    for argv in argvs:
        count = len(decoded)
        code, report = run_json(capsys, *argv)
        assert code == 0, report
        assert len(decoded) > count, argv
    assert outside == []


# -- reading argv ----------------------------------------------------------------

_ONE_BY_ONE = '{"ring":{"kind":"integers"},"n":1,"matrices":[[[1]],[[2]]]}'
_DISPATCH_EDGES = [
    [],
    ["-h"],
    ["--help"],
    ["alt-sum", "-h"],
    ["no-such-command"],
    ["no-such-command", "--m", "3"],
    ["verify-lemma3", "--m"],
    ["verify-lemma3", "--m", "4"],
    ["verify-lemma3", "--m", "4", "--n", "3", "--threads", "2"],
    ["verify-lemma3", "--m=4", "--n", "3"],
    ["verify-lemma3", "--se", "3", "--m", "4", "--n", "3"],
    ["alt-sum", "--inp", _ONE_BY_ONE],
    ["--seed", "3", "alt-sum", "--input", _ONE_BY_ONE],
    ["alt-sum", "--input", "{}", "--input", _ONE_BY_ONE],
    ["verify-lemma3", "--m", "4", "--n", "3", "extra"],
    ["verify-lemma3", "--m", "x", "--n", "3"],
    ["verify-lemma3", "--m", "4", "--n", "3", "--output", "text", "--timing"],
]
_DISPATCH_ARGVS = _DISPATCH_EDGES + [argv for argv, _ in _DIGESTS]


def _main_outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # help exits, as argparse does
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, _mask_elapsed(captured.out), captured.err


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=[" ".join(argv)[:40] or "empty" for argv in _DISPATCH_ARGVS])
def test_direct_dispatch_matches_the_parser_tree(capsys, monkeypatch, argv):
    exact = _main_outcome(capsys, argv)
    monkeypatch.setattr(cli, "_exact_args", lambda name, tokens: None)  # every argv through the tree
    assert _main_outcome(capsys, argv) == exact


_COMMON_TAIL = (("--seed", "3"), ("--output", "text"), ("--timing",))


@pytest.mark.parametrize("tail", [False, True], ids=["as pinned", "with the common flags"])
def test_exact_argvs_are_read_without_argparse(tail):
    # Each _DIGESTS argv is exact, so the parser is never built; with the
    # common flags appended (those it does not already give) it still is.
    argvs = [argv for argv, _ in _DIGESTS]
    if tail:
        argvs = [argv + [token for pair in _COMMON_TAIL if pair[0] not in argv for token in pair]
                 for argv in argvs]
    build_parser.cache_clear()
    parsed = [cli._parse_args(argv) for argv in argvs]
    assert build_parser.cache_info().currsize == 0
    for argv, args in zip(argvs, parsed):
        assert vars(args) == vars(build_parser().parse_args(argv)), argv


def test_flags_with_other_keywords_are_left_to_argparse(monkeypatch):
    # The fast path reads only the keywords it knows; a subcommand with a
    # flag declared otherwise goes whole to argparse, given or not.
    argv = ["--m", "3", "--n", "2"]
    assert cli._exact_args("verify-lemma3", argv) is not None
    monkeypatch.setitem(cli._FLAGS, "n", {**cli._FLAGS["n"], "metavar": "N"})
    assert cli._exact_args("verify-lemma3", argv) is None
    monkeypatch.undo()
    monkeypatch.setitem(cli._FLAGS, "timing", {"action": "count", "default": 0})
    assert cli._exact_args("verify-lemma3", argv) is None


def test_argv_parse_agreement_suite():
    result = run_suite("argv-parse-agreement", seed=0)
    assert result.failures == 0, result.first_failure
    assert result.checks == 1804
