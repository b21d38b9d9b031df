"""End-to-end CLI behaviour: exit codes, schemas, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import detsum
from detsum.cli import build_parser, main
from detsum import jsonio
from detsum.rings import INTEGERS, ModRing, PrimeField, ProductRing, RATIONALS
from detsum.matrices import SquareMatrix

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


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["verify-lemma3", "--m", "4"]) == 1  # missing --n
    assert main(["verify-lemma3", "--m", "4", "--n", "3", "--threads", "2"]) == 1  # no such flag
    assert main(["fuzz", "--suites", "no-such-suite"]) == 1


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


def test_fuzz_exit_zero_on_pass(capsys):
    code, report = run_json(
        capsys, "fuzz", "--trials", "2",
        "--suites", "alt-sum-zero,search-nonlocal-counterexample",
    )
    assert code == 0 and report["status"] == "holds"
    assert report["result"]["total_failures"] == 0


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
