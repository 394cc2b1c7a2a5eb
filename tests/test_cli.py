"""End-to-end command line behavior: certificates, exit codes, and
byte-deterministic reports."""
import hashlib
import json

import pytest

from starlift.cli import main

from conftest import data_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_all_bundled_inputs(capsys):
    for name in ("abelian3", "nonabelian2", "sl2", "sl2-qt", "sl3"):
        code, out = run(capsys, "validate", data_path(name))
        assert code == 0, name
        report = json.loads(out)
        assert all(report["certificates"].values())


def test_validate_reports_z_terms(capsys):
    code, out = run(capsys, "validate", data_path("sl2"))
    report = json.loads(out)
    assert report["certificates"]["z_in_wedge3"] is True
    assert report["certificates"]["z_invariant"] is True
    assert len(report["z_terms"]) == 6
    # rationals travel as exact strings
    assert all(isinstance(term[1], str) for term in report["z_terms"])


def test_lift_sl2(capsys):
    code, out = run(capsys, "lift", data_path("sl2"), "--degree", "6")
    assert code == 0
    report = json.loads(out)
    assert report["certificates"] == {
        "cocycle": True,
        "defect_zero": True,
        "invariant": True,
    }
    assert report["alt_phi_to_z_ratio"] == "2/3"
    assert report["phi_terms"] and report["rho_terms"]


def test_lift_abelian_has_no_ratio(capsys):
    code, out = run(capsys, "lift", data_path("abelian3"))
    assert code == 0
    report = json.loads(out)
    assert report["alt_phi_to_z_ratio"] is None
    assert report["phi_terms"] == []


def test_cohomology_concentrated(capsys):
    for name in ("abelian3", "nonabelian2", "sl2"):
        code, out = run(capsys, "cohomology", data_path(name), "--degree", "6")
        assert code == 0, name
        report = json.loads(out)
        assert report["certificates"]["concentrated"] is True


def test_envelope_sl2(capsys):
    code, out = run(capsys, "envelope", data_path("sl2"))
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["commutative"] is True
    assert report["invariant_dims"] == [1, 0, 1, 0, 1]
    assert report["center_filtrations"] == [0, 2, 4]


def test_theta_sl2(capsys):
    code, out = run(capsys, "theta", data_path("sl2"))
    assert code == 0
    report = json.loads(out)
    assert report["certificates"] == {
        "commutative": True,
        "filtered": True,
        "gauge_independent": True,
    }


def test_qt_sl2(capsys):
    code, out = run(capsys, "qt", data_path("sl2-qt"), "--s", "1", "--maxdeg", "4")
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["theta_in_C1"] is True
    assert report["certificates"]["inner_derivation"] is True
    assert report["c_s_graded_dims"] == [1, 0, 1, 0, 1]
    assert report["alpha_rank"] == [35, 35]


def test_qt_degenerate_inputs_still_pass(capsys):
    code, out = run(capsys, "qt", data_path("abelian3"), "--maxdeg", "3")
    assert code == 0
    report = json.loads(out)
    assert report["nondegenerate"] is False
    assert "theta_in_C1" not in report["certificates"]
    assert report["c_s_graded_dims"] == [1, 3, 6, 10]


def test_byte_determinism(capsys):
    _, first = run(capsys, "qt", data_path("sl2-qt"))
    _, second = run(capsys, "qt", data_path("sl2-qt"))
    assert first == second
    _, third = run(capsys, "theta", data_path("sl2"))
    _, fourth = run(capsys, "theta", data_path("sl2"))
    assert third == fourth


def test_json_keys_sorted(capsys):
    _, out = run(capsys, "qt", data_path("sl2-qt"))
    report = json.loads(out)
    assert list(report) == sorted(report)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"
    code, _ = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2


def test_degree_cap(capsys):
    code, out = run(capsys, "lift", data_path("sl2"), "--degree", "9")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BadDegree"
    # --allow-large lifts the cap (checked on the cheap subcommand)
    code, _ = run(capsys, "cohomology", data_path("sl2"), "--degree", "9", "--allow-large")
    assert code == 0


def test_malformed_s_exits_2(capsys):
    code, out = run(capsys, "qt", data_path("sl2-qt"), "--s", "one")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("s", ["0.5", "1e3", "1/0", " 1"])
def test_s_must_be_a_rational_literal(capsys, s):
    code, out = run(capsys, "qt", data_path("sl2-qt"), "--maxdeg", "1", f"--s={s}")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_s_accepts_signed_fractions(capsys):
    code, out = run(capsys, "qt", data_path("sl2-qt"), "--maxdeg", "1", "--s=-3/4")
    assert code == 0
    assert json.loads(out)["s"] == "-3/4"


# SHA-256 of the sl3 reports, taken before the structure-constant caching
# and sparse validation; any change to these bytes is a regression.
SL3_GOLDEN = {
    ("envelope", "--maxdeg", "3"):
        "c2c62d331711d9784b79ad49d8e3a09dd2e5f6e029944805aea0b7b3543d13f3",
    ("lift", "--degree", "3"):
        "82cb89dfd5529f11128f2383a7e9ce948385a8ba2d8bd3994134a0aa1f670929",
}


@pytest.mark.parametrize("argv", sorted(SL3_GOLDEN), ids=lambda a: a[0])
def test_sl3_report_bytes(capsys, argv):
    code, out = run(capsys, argv[0], data_path("sl3"), *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SL3_GOLDEN[argv]


def test_kind_mismatch_is_structured_error(capsys):
    code, out = run(capsys, "lift", data_path("sl2-qt"))
    assert code == 1
    assert "error" in json.loads(out)


def test_qt_on_nonqt_sl2_reports_cyb_violation(capsys):
    code, out = run(capsys, "qt", data_path("sl2"))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CYBViolation"


def test_input_without_r(capsys, tmp_path):
    src = tmp_path / "plain.json"
    src.write_text('{"dim": 2, "basis": ["a", "b"], "brackets": [[0, 1, [[1, "1"]]]]}')
    code, out = run(capsys, "validate", str(src))
    assert code == 0
    assert json.loads(out)["certificates"] == {"jacobi": True}
    code, out = run(capsys, "lift", str(src))
    assert code == 2


def test_text_output(capsys):
    code, out = run(capsys, "envelope", data_path("sl2"), "--output", "text")
    assert code == 0
    assert "certificate commutative: PASS" in out
