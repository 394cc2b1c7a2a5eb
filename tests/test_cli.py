"""End-to-end command line behavior: certificates, exit codes, and
byte-deterministic reports."""
import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import starlift
from starlift import cli, errors, load_lie_algebra
from starlift.cli import _fixed_gauges, main

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


# theta lifts no higher than max(--maxdeg, 3), so a --degree at or above that
# cannot change its report or exit code.
@pytest.mark.parametrize("maxdeg", range(5))
@pytest.mark.parametrize("name", ["sl2", "nonabelian2", "abelian3"])
def test_theta_report_ignores_degree_above_what_it_reads(capsys, name, maxdeg):
    runs = {run(capsys, "theta", data_path(name), "--degree", str(degree),
                "--maxdeg", str(maxdeg))
            for degree in range(max(maxdeg, 3), 7)}
    assert len(runs) == 1


# theta's gauge certificate builds its parameters at the degree theta reads:
# they must be the lift-degree parameters truncated there.
@pytest.mark.parametrize("name", ["abelian3", "nonabelian2", "sl2", "sl3"])
def test_fixed_gauges_truncate_to_lower_degree(name):
    alg = load_lie_algebra(data_path(name))[0]
    N = 5
    full = _fixed_gauges(alg, N)
    for T in range(2, N + 1):
        cut = _fixed_gauges(alg, T)
        assert len(cut) == len(full) == 2
        for lam, lam_T in zip(full, cut):
            assert lam_T.N == T
            assert lam.truncate(T) == lam_T


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


@pytest.mark.parametrize("argv", [["lift", data_path("sl2"), "--bogus"], []],
                         ids=["unknown-option", "no-command"])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_import_loads_no_dataclass_machinery():
    """dataclasses pulls in inspect, ast, dis and tokenize, which cost every
    CLI process more than 10 ms. Importing the CLI runs few of the lazily
    registered submodules, so every command is run before the check."""
    commands = [["validate", data_path("sl2-qt")], ["lift", data_path("sl2"), "--degree", "3"],
                ["cohomology", data_path("sl2"), "--degree", "2"],
                ["envelope", data_path("sl2"), "--maxdeg", "2"],
                ["theta", data_path("sl2"), "--degree", "3", "--maxdeg", "2"],
                ["qt", data_path("sl2-qt"), "--maxdeg", "2"]]
    code = ("import contextlib, os, sys; before = set(sys.modules); import starlift.cli\n"
            "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
            f"    codes = [starlift.cli.main(argv) for argv in {commands!r}]\n"
            "print(codes, sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[0, 0, 0, 0, 0, 0] []\n"), proc.stderr


def test_degree_cap(capsys):
    code, out = run(capsys, "lift", data_path("sl2"), "--degree", "9")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BadDegree"
    # --allow-large lifts the cap (checked on the cheap subcommand)
    code, _ = run(capsys, "cohomology", data_path("sl2"), "--degree", "9", "--allow-large")
    assert code == 0


# Stdout bytes of each degree refusal, as printed before BadDegree became a
# StarliftError raised through the common handler. A cohomology table below
# degree 1 would be empty and its "concentrated" certificate vacuous. theta
# lifts to at least --maxdeg, so its --maxdeg is capped too; its --degree
# keeps the common cap, though theta lifts no higher than max(--maxdeg, 3).
@pytest.mark.parametrize("argv, message", [
    (("lift", "--degree", "2"), "lift needs --degree >= 3"),
    (("lift", "--degree", "9"), "--degree > 8 needs --allow-large"),
    (("envelope", "--maxdeg", "-1"), "--maxdeg must be >= 0"),
    (("cohomology", "--degree", "0"), "cohomology needs --degree >= 1"),
    (("cohomology", "--degree", "-3"), "cohomology needs --degree >= 1"),
    (("theta", "--maxdeg", "9"), "theta --maxdeg > 8 needs --allow-large"),
    (("theta", "--degree", "9"), "--degree > 8 needs --allow-large"),
], ids=["lift-low", "cap", "maxdeg", "cohomology-zero", "cohomology-negative", "theta-maxdeg",
        "theta-degree"])
def test_bad_degree_bytes(capsys, argv, message):
    code, out = run(capsys, argv[0], data_path("sl2"), *argv[1:])
    assert code == 1
    assert out == '{"error": {"type": "BadDegree", "message": "%s"}}\n' % message


def test_malformed_s_exits_2(capsys):
    code, out = run(capsys, "qt", data_path("sl2-qt"), "--s", "one")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("s", ["0.5", "1e3", "1/0", " 1", "\u0663", "\uff11", "3/4\n"])
def test_s_must_be_a_rational_literal(capsys, s):
    code, out = run(capsys, "qt", data_path("sl2-qt"), "--maxdeg", "1", f"--s={s}")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_s_accepts_signed_fractions(capsys):
    code, out = run(capsys, "qt", data_path("sl2-qt"), "--maxdeg", "1", "--s=-3/4")
    assert code == 0
    assert json.loads(out)["s"] == "-3/4"


def test_s_space_form_matches_equals_form(capsys):
    _, spaced = run(capsys, "qt", data_path("sl2-qt"), "--maxdeg", "2", "--s", "-3/4")
    code, joined = run(capsys, "qt", data_path("sl2-qt"), "--maxdeg", "2", "--s=-3/4")
    assert code == 0
    assert spaced == joined


# JSON booleans are not indices or rationals, and a string is not a basis
# list; the first case once loaded as [x_1, x_0] = x_1.
@pytest.mark.parametrize("spec", [
    '{"dim": 2, "brackets": [[true, 0, [[1, true]]]]}',
    '{"dim": 2, "brackets": [[1, 0, [[true, "1"]]]]}',
    '{"dim": 2, "brackets": [[1, 0, [[1, true]]]]}',
    '{"dim": 2, "brackets": [], "r": [[true, 0, "1"], [0, 1, "-1"]]}',
    '{"dim": 2, "brackets": [], "r": [[0, 1, true], [1, 0, "-1"]]}',
    '{"dim": 3, "basis": "efh", "brackets": []}',
], ids=["bracket-index", "bracket-target", "bracket-coefficient", "r-index",
        "r-coefficient", "string-basis"])
def test_booleans_and_string_basis_exit_2(capsys, tmp_path, spec):
    src = tmp_path / "bad.json"
    src.write_text(spec)
    code, out = run(capsys, "validate", str(src))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


# Non-list brackets, bracket terms or r once escaped as a TypeError traceback.
@pytest.mark.parametrize("spec", [
    '{"dim": 2, "brackets": [[0, 1, 5]]}',
    '{"dim": 2, "brackets": 5}',
    '{"dim": 2, "brackets": [], "r": 3}',
], ids=["bracket-terms", "brackets", "r"])
def test_non_list_fields_exit_2(capsys, tmp_path, spec):
    src = tmp_path / "bad.json"
    src.write_text(spec)
    code, out = run(capsys, "validate", str(src))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


# A misspelt field once loaded a different algebra: without "brackets" this
# is abelian, and validate passed it with "jacobi": true.
def test_unknown_field_exits_2(capsys, tmp_path):
    src = tmp_path / "typo.json"
    src.write_text('{"dim": 3, "brackts": [[0, 1, [[2, "1"]]]], '
                   '"r": [[0, 1, "1"], [1, 0, "-1"]]}')
    code, out = run(capsys, "validate", str(src))
    assert (code, json.loads(out)["error"]) == (
        2, {"type": "ParseError", "message": "unknown field: 'brackts'"})


# SHA-256 of the sl3 reports, taken before the structure-constant caching
# and sparse validation; any change to these bytes is a regression.
SL3_GOLDEN = {
    ("envelope", "--maxdeg", "3"):
        "c2c62d331711d9784b79ad49d8e3a09dd2e5f6e029944805aea0b7b3543d13f3",
    ("lift", "--degree", "3"):
        "82cb89dfd5529f11128f2383a7e9ce948385a8ba2d8bd3994134a0aa1f670929",
    # taken before the co-Hochschild differential moved to integers
    ("lift", "--degree", "4"):
        "b84a191e3a45ccbc649ff0a89141824031e26c78cab9f13da5cebf10615abe30",
    # taken before the eliminations moved to Gauss-Jordan order, ranks of d
    # to exponent shapes and invariant kernels to slot-degree compositions
    ("lift", "--degree", "5"):
        "066fe23c5f68211e2923dad3c315ed55a7291ce66f1377d5cc9ade824aae5ebf",
    ("cohomology", "--degree", "5"):
        "79e391b6fe1cea92dd25c331bfd8d09805e2af343bbb5393643e8c231fccfdee",
    ("cohomology", "--degree", "3"):
        "eda885daa63ce70bf8b3106639c2ca45b61209ec04904806cd74e321dc1f6dcf",
    ("cohomology", "--degree", "4"):
        "e117deb2117ac8b7702310a760d2db8027972690c200739cc32d65786ee0aa7a",
    # taken before the elimination moved to integer rows
    ("cohomology", "--degree", "6"):
        "927d5e86672271a64327b089abd46a59aef10241a0730aa4252b91fd2a486672",
    # taken before the kernels moved to weight-zero columns and a generating set
    ("envelope", "--maxdeg", "4"):
        "ce9cd5162995fd48c2fa2a8d2137952cac5c4e652d460663cfdb0c879f6757b4",
    # ladder rungs, taken before theta's coproduct table and the integer
    # elimination were changed
    ("theta", "--maxdeg", "2"):
        "5ab658bb4585aaa09fa88d2306491b7e8c0b7921728c9b2a636defb02ea70eea",
    ("theta", "--maxdeg", "3"):
        "9b1bcf99988715daf6fa24b48ef2005cf45b4021cfed35f19c999a27cddf4030",
    ("envelope", "--maxdeg", "6"):
        "bb3d66ee64e5a8b9c190c4d6212ef66b9fe73fe7c8862d0ade9e7d873bdd4daf",
}


@pytest.mark.parametrize("argv", sorted(SL3_GOLDEN), ids=" ".join)
def test_sl3_report_bytes(capsys, argv):
    code, out = run(capsys, argv[0], data_path("sl3"), *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SL3_GOLDEN[argv]


# Exit code and SHA-256 of the report of each command on each shipped input
# it applies to, including two exit-1 error reports. Taken before the
# linear-map assembly moved into linsolve; any change to these bytes is a
# regression.
GOLDEN = {
    ("validate", "abelian3"):
        (0, "8b054f70d7818338dab7bbf04a0adc7f9efeb9b8f7a488d76b38ccac043217e8"),
    ("validate", "nonabelian2"):
        (0, "a6217b1dceedbe008d6b58a270b53d1db4c6380e4e611e6b634c649e6498e83b"),
    ("validate", "sl2"):
        (0, "bcb3415364ef06a9dbb76c076ee13bcd17e3b503e0e6c20cecdf5252e491536f"),
    ("validate", "sl2-qt"):
        (0, "5e09a863c269b5181a0cdfc0c2217d35c2ec786ee026d4c588bf15418c287cd2"),
    ("validate", "sl3"):
        (0, "6167e2d94a8ddcc8b001780681f6aee0f4eb187a04cd0bf3a60f64d8aeec4630"),
    ("lift", "sl2", "--degree", "5"):
        (0, "47dea726411d9e65b650b48160c8e49d8b77555c6bf435cac96120f5adef8d72"),
    ("lift", "nonabelian2", "--degree", "5"):
        (0, "4c80aba76a79151c38d9b1e1233ad499620182ef297ae2e31c2ec2c3427f08ad"),
    ("lift", "abelian3", "--degree", "5"):
        (0, "9b59b6e7f6ef2e559d5189bd25f7a9d4b8d788f6a12e46bf2da73d303fefb3b1"),
    # BCH words of 5 to 8 letters; taken on the hand-entered word table and
    # Dynkin projection that the derived word list replaced.
    ("lift", "sl2", "--degree", "6"):
        (0, "8fd87c90e6a07c1a3e48a2b8e2f4adc1e3900ad1ad6b270573e5ab7cf7f97569"),
    ("lift", "nonabelian2", "--degree", "8"):
        (0, "76c188f73199d96059ff2fbe66c9dc90125020b69420eaf87097a685724a5ca3"),
    ("lift", "nonabelian2", "--degree", "9", "--allow-large"):
        (0, "c25ec341c14a4fd76da2876a94d6e3951e110191bcb99e9489b44405e847307c"),
    ("cohomology", "sl2", "--degree", "4"):
        (0, "68148a94039b7c23a8218d8ab8e04de95acef4a643b4923f20b8df365727d3eb"),
    ("cohomology", "nonabelian2", "--degree", "4"):
        (0, "f464ea40f4f8a94d0e3b960244f668e2125019b4ed38829ff64e7426c73c4714"),
    ("cohomology", "abelian3", "--degree", "4"):
        (0, "4de7f2706845d313a411fb194043b353c678109bac4447b04fe4cbf9fda2c56c"),
    ("envelope", "sl2", "--maxdeg", "4"):
        (0, "358b954b75968da4fdf4cbd7ba12ea125f2b2ebee72993cd6aa2680a6cc6263a"),
    ("envelope", "nonabelian2", "--maxdeg", "4"):
        (0, "0e1210e88876165662a8e4645618cecce0ee0d9dd33e8954a4449c945764ca35"),
    ("envelope", "abelian3", "--maxdeg", "4"):
        (0, "210ff65abcec052ddb8c52987485b2c605c50d41f00ac3e92e0997e3395fc097"),
    ("theta", "sl2", "--degree", "3", "--maxdeg", "3"):
        (0, "7ba8b26532180af98e5d4dda0d2bc168a4d7c0fd4d8086d4a5484a7b951e5399"),
    ("theta", "nonabelian2", "--degree", "3", "--maxdeg", "3"):
        (0, "7f40d8c102366cfbbbaa6b000c856779bb404a90225e2d3310142a3482409536"),
    ("qt", "sl2-qt", "--maxdeg", "4", "--s=1"):
        (0, "55a8db6f4e7a840509a1d2bb1824d9fbe605d01ff16f28603e0cca7add2ce2d3"),
    ("qt", "sl2-qt", "--maxdeg", "4", "--s=0"):
        (0, "af1f51e69604457c86b7f721f214e39ad1254d0dc5c9b2eb81b1ae784daab159"),
    ("qt", "sl2-qt", "--maxdeg", "4", "--s=-3/4"):
        (0, "8626a01b04a958d378e528194a4e257cff40b6c76e6b5f6a6f476f4870ab54b4"),
    # taken before the kernels moved to weight-zero columns and a generating
    # set, and before the C_s and alpha images were memoized
    ("envelope", "sl2", "--maxdeg", "6"):
        (0, "6e6470d2c689de6ec6da4997babea668a4efa6d9baf39b967e091124b9582559"),
    ("qt", "sl2-qt", "--maxdeg", "6", "--s=1/2"):
        (0, "611e49e2153b1b4b07536a95c21b91df045c5fa9e5c4b00a6191f07a203c2ba2"),
    # taken before the defects became differences, star one pass over one
    # denominator, and the twisted coproducts products of generator images
    ("theta", "sl2", "--maxdeg", "4"):
        (0, "78679b57bee6651d3a53938c8fa17cf2cb0eef04aee9293dfe251aac600b42fc"),
    ("lift", "sl2", "--degree", "7"):
        (0, "17ec16e891557d944ba63e38d64bbcd5f96b25bf0656ffc7ad38e3c1cb440a9a"),
    ("lift", "sl2-qt"):
        (1, "add1f9018cb56f73048c1af6a946cbbfa9d8d8c17b032923b502d4e7b9720821"),
    ("qt", "sl2"):
        (1, "2b12391a60b72460864ad9b8752a15d263a405a4587e119fe635a745a9bf37ca"),
    # taken before the gauge certificate moved to degree max(--maxdeg, 2),
    # below the lift degree max(--degree, --maxdeg)
    ("theta", "sl2", "--maxdeg", "3"):
        (0, "7ba8b26532180af98e5d4dda0d2bc168a4d7c0fd4d8086d4a5484a7b951e5399"),
    ("theta", "nonabelian2", "--maxdeg", "2"):
        (0, "8460be57184bc2cb9ff4841193107c0e5406948947a28e71ce51bba8e84b7b31"),
    ("theta", "nonabelian2", "--maxdeg", "4"):
        (0, "903b4113a78b5880a0e92a304639e81b137d834eff1298d5c175712931de78e2"),
    # taken while theta still lifted to max(--degree, --maxdeg): a --degree
    # above max(--maxdeg, 3), and three runs whose lift degree stays below 3
    ("theta", "sl2", "--degree", "6", "--maxdeg", "3"):
        (0, "7ba8b26532180af98e5d4dda0d2bc168a4d7c0fd4d8086d4a5484a7b951e5399"),
    ("theta", "sl2", "--degree", "2", "--maxdeg", "2"):
        (1, "b050ee4724f3e1d1f271a4ea48955e34d32c721b71b9bda6f172715fe9a860b8"),
    ("theta", "nonabelian2", "--degree", "0", "--maxdeg", "0"):
        (1, "69de274b6fae6a4c4224b91da05cb3560fc8e5e684bc9be70969ebe97f98c2bb"),
    ("theta", "nonabelian2", "--degree", "2", "--maxdeg", "2"):
        (0, "8460be57184bc2cb9ff4841193107c0e5406948947a28e71ce51bba8e84b7b31"),
    # a ladder rung, taken before the integer elimination was changed
    ("qt", "sl2-qt", "--maxdeg", "8"):
        (0, "705b16a6df611be931c5afc77c7bbd43d854ad20f878c7dc0f1db9157f3217bf"),
    # taken before the kernels and preimages answered over the callers' basis
    # keys: the Poisson traces and theta's solve, the top rank of d on a
    # solvable algebra, and C_s and alpha at an s no other pin uses
    ("theta", "nonabelian2", "--maxdeg", "5"):
        (0, "289bd1d0b20b42191fcdd77ebdbd892b86a098281b955ccd8c21d157daa92b6a"),
    ("cohomology", "nonabelian2", "--degree", "6"):
        (0, "48dfcb85e87f8ab08553520f0779b42e39b7e9f1be2ec5a0878cc2a31c8233ae"),
    ("qt", "sl2-qt", "--maxdeg", "6", "--s=4/3"):
        (0, "0e700bb4f164fb690c65782d13f9f0d3a46fa413357840f83a76805f03f9def6"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_report_bytes(capsys, argv):
    code, out = run(capsys, argv[0], data_path(argv[1]), *argv[2:])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]


# Exit code and SHA-256 of validate on inline inputs, taken while r was a
# dense dim x dim matrix: dim 1,000 with two r entries, a symmetric r whose
# kind is inferred, and the same r tagged antisymmetric, refused at its
# first asymmetric pair. The dim-1,000 symmetric r (a quasitriangular
# candidate, t checked for invariance) was pinned while is_invariant acted
# by every actor and qt_validate by every basis element.
INLINE_GOLDEN = {
    '{"dim": 1000, "r": [[0,1,"1"],[1,0,"-1"]]}':
        (0, "a34f576be2042a9948795e4d811c1851f9e146d542e8b612d56bbaaa571c84d9"),
    '{"dim": 1000, "r": [[0,1,"1"],[1,0,"1"]]}':
        (0, "ce94523211e60e7fd31b87a84b1cbe232505dd8ec2f37c7b3a5bd6b7e27c6925"),
    '{"dim": 3, "r": [[0,1,"1"],[1,0,"1"]]}':
        (0, "589b74bdb191baf781a405e315c7f47e7a0200b2c7b72f0de02eccba265d1061"),
    '{"dim": 3, "r": [[0,1,"1"],[1,0,"1"]], "kind": "antisymmetric-coboundary"}':
        (1, "4d66a77f33e7ac1cea8f189f295c922a5103e5e434a52729ee1e8e69bd93f907"),
}


@pytest.mark.parametrize("spec", sorted(INLINE_GOLDEN))
def test_inline_validate_report_bytes(capsys, spec):
    code, out = run(capsys, "validate", spec)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == INLINE_GOLDEN[spec]


# Exit code and SHA-256 of qt on inline inputs, taken while the
# inner-derivation check built a unit vector per pair of basis indices.
INLINE_QT_GOLDEN = {
    ('{"dim": 40, "r": [[0,1,"1"],[1,0,"1"]]}', "--maxdeg", "1"):
        (0, "f9cb3c952cf24f958acfc4548840b6a9ed55870492f18a7a4e0a918f34d45592"),
}


@pytest.mark.parametrize("argv", sorted(INLINE_QT_GOLDEN), ids=" ".join)
def test_inline_qt_report_bytes(capsys, argv):
    code, out = run(capsys, "qt", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == INLINE_QT_GOLDEN[argv]


def test_antisymmetry_violation_names_the_first_pair():
    with pytest.raises(errors.AntisymmetryViolation) as info:
        load_lie_algebra('{"dim": 3, "r": [[1,2,"1"],[0,1,"1"],[1,0,"1"]], '
                         '"kind": "antisymmetric-coboundary"}')
    assert str(info.value) == "r[0][1] != -r[1][0]"
    assert info.value.context["pair"] == (0, 1)


# SHA-256 of reports on sl2 with its brackets scaled by 2/3, so that the
# integer bracket table has Dc = 3 (no shipped input has Dc != 1). Taken
# before integer_rows was built from the structure constants.
SCALED_SL2_GOLDEN = {
    ("lift", "--degree", "5"):
        "cb5337956e382f0744d105642f43dbec6b1fe486f62976d030649e660f7abcff",
    ("envelope", "--maxdeg", "4"):
        "57301974f78259d5a67c252fb472991fdd577c0b3c6b2d8887701b9e6fcf78d6",
    ("cohomology", "--degree", "4"):
        "68148a94039b7c23a8218d8ab8e04de95acef4a643b4923f20b8df365727d3eb",
}


@pytest.mark.parametrize("argv", sorted(SCALED_SL2_GOLDEN), ids=" ".join)
def test_scaled_sl2_report_bytes(capsys, tmp_path, argv):
    with open(data_path("sl2")) as fh:
        data = json.load(fh)
    data["brackets"] = [[i, j, [[k, str(Fraction(v) * Fraction(2, 3))] for k, v in terms]]
                        for i, j, terms in data["brackets"]]
    assert data["brackets"][0] == [1, 0, [[0, "4/3"]]]
    path = tmp_path / "sl2-scaled.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, SCALED_SL2_GOLDEN[argv])


# The BCH derivation, its RankCertificate guard and the typed operand checks
# of the four sparse types must hold when python -O strips assert statements,
# and so must the moved orbit kernels of invariant_basis (the lift to degree 7
# solves over the six orders of the slot degrees (1, 2, 4)).
@pytest.mark.parametrize("argv", [("lift", "sl2", "--degree", "5"),
                                  ("lift", "nonabelian2", "--degree", "9", "--allow-large"),
                                  ("cohomology", "sl2", "--degree", "4"),
                                  ("cohomology", "nonabelian2", "--degree", "6"),
                                  ("lift", "sl2", "--degree", "7"),
                                  ("theta", "sl2", "--degree", "3", "--maxdeg", "3"),
                                  ("theta", "sl2", "--maxdeg", "4"),
                                  ("theta", "sl2", "--degree", "6", "--maxdeg", "3"),
                                  ("qt", "sl2-qt", "--maxdeg", "4", "--s=1")],
                         ids=" ".join)
def test_report_bytes_under_python_O(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-m", "starlift.cli", argv[0],
                           data_path(argv[1]), *argv[2:]],
                          env=env, capture_output=True, timeout=120)
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN[argv]


# Runs the CLI on the given backend: "fraction" blocks gmpy2 before starlift
# is imported, so that _rat falls back to fractions.Fraction.
_BACKEND_RUN = """import sys
if sys.argv[1] == "fraction":
    sys.modules["gmpy2"] = None
from starlift import _rat, cli
if sys.argv[1] == "fraction" and _rat.QQ.__module__ != "fractions":
    sys.exit(99)
sys.exit(cli.main(sys.argv[2:]))
"""
_BACKEND_ARGV = [("lift", "sl2", "--degree", "5"),
                 ("cohomology", "sl2", "--degree", "4"),
                 ("theta", "sl2", "--degree", "3", "--maxdeg", "3"),
                 ("qt", "sl2-qt", "--maxdeg", "4", "--s=-3/4")]


def _run_backend(backend, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
    return subprocess.run([sys.executable, "-c", _BACKEND_RUN, backend, argv[0],
                           data_path(argv[1]), *argv[2:]],
                          env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("argv", _BACKEND_ARGV, ids=" ".join)
def test_fraction_backend_report_bytes(argv):
    proc = _run_backend("fraction", argv)
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN[argv]


@pytest.mark.parametrize("argv", _BACKEND_ARGV, ids=" ".join)
def test_backends_print_the_same_bytes(argv):
    pytest.importorskip("gmpy2")
    fraction, default = _run_backend("fraction", argv), _run_backend("default", argv)
    assert (default.returncode, default.stdout) == (fraction.returncode, fraction.stdout)


# The unit test files of conftest.PYTHON_O_ARGV under python -O. The run
# starts when this test is collected (see conftest.pytest_collection_modifyitems)
# and goes on beside the rest of the session; this test, moved to the end,
# waits for it.
def test_unit_tests_under_python_O(python_O_run):
    proc, stdout = python_O_run["proc"], python_O_run["stdout"]
    try:
        proc.wait(timeout=max(0.0, python_O_run["start"] + 300 - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    stdout.seek(0)
    assert proc.returncode == 0, stdout.read()[-2000:]


def test_package_has_no_assert_or_debug():
    """python -O strips assert statements and __debug__ blocks, so the
    package states every invariant as a typed StarliftError instead."""
    found = []
    for path in sorted(Path(starlift.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name)
                                                and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_imports_a_name_it_never_reads():
    """Every name a module binds by a top-level import is read somewhere
    in it, over the package, the tests and the demos."""
    root = Path(__file__).resolve().parent.parent
    found = []
    for path in sorted([*Path(starlift.__file__).parent.glob("*.py"),
                        *(root / "tests").glob("*.py"), *(root / "demos").glob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        found += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]
    assert found == []


def _error_classes():
    return [cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.StarliftError)
            and cls is not errors.StarliftError]


def test_every_error_code_is_its_class_name():
    assert _error_classes()
    assert all(cls.code == cls.__name__ for cls in _error_classes())
    assert errors.StarliftError.code == "Error"


def test_cli_error_report_type_is_the_raised_code(capsys, monkeypatch):
    for cls in _error_classes():
        def fail(path, cls=cls):
            raise cls("raised on load")

        monkeypatch.setattr(cli, "load_lie_algebra", fail)
        code, out = run(capsys, "validate", data_path("sl2"))
        assert code == (2 if cls is errors.ParseError else 1)
        assert json.loads(out)["error"] == {"type": cls.code, "message": "raised on load"}


# The demos call the lift, defect, gauge, theta and C_s entry points. SHA-256
# of each demo's stdout, the same under PYTHONHASHSEED 0, 1 and 7, taken
# while PBW elements carried a "U(g)"/"U(g*)" tag beside their algebra.
DEMO_SHA = {
    "lift_tour.py": "4d488beeb6a70e27fabab20688f7a5f6d1a397d1fb250d4f144c412d8c9fcf05",
    "quasitriangular_walk.py": "68be9257f11cc7a878a245e2c170cd5887633a5b854013a61c393cc246d179f5",
}


@pytest.mark.parametrize("demo", sorted(DEMO_SHA))
def test_demo_runs_clean(demo):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
    proc = subprocess.run([sys.executable, str(root / "demos" / demo)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_SHA[demo], proc.stdout


# SHA-256 of the reports on the zero-dimensional algebra, where every
# enumerator meets zero variables.
DIM0 = {
    "cohomology": "a28d23b9985ab591aaba0237b27868f819da2880175f3f6b92e0dbd51d536388",
    "envelope": "647d1854dbf6ea11d8cd85d35848a49e16542c7f7c54a0ef110edb0bd62c302d",
    "validate": "b5e3cf25b91b30006d368eadc6b32f175aed8d4c2746266473183bcb8ad86589",
}


@pytest.mark.parametrize("command", sorted(DIM0))
def test_zero_dimensional_algebra_reports(capsys, command):
    code, out = run(capsys, command, '{"dim": 0}')
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, DIM0[command])


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


# ---- the process exit: console_main ends with os._exit once the report is
# flushed, which must leave the status and the bytes as main() gives them.

def _cli_process(*args, stdout=subprocess.PIPE, unbuffered=False, **run_args):
    env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, timeout=60, **run_args)


@pytest.mark.parametrize("argv, code", [
    (["validate", data_path("sl2")], 0),
    (["lift", data_path("sl2"), "--degree", "2"], 1),
    (["validate", "missing-input.json"], 2),
    (["validate", data_path("sl2"), "--bogus"], 2),
], ids=["passes", "bad-degree", "missing-file", "usage"])
def test_process_exit_matches_main(capsys, argv, code):
    try:
        in_process = main(argv)
    except SystemExit as exc:
        in_process = exc.code
    out = capsys.readouterr().out.encode()
    proc = _cli_process("-m", "starlift.cli", *argv)
    assert (proc.returncode, proc.stdout) == (in_process, out)
    assert in_process == code


# A reader that has gone away: the report stays in stdout's buffer, so the
# failed flush takes the normal exit, whose teardown reports it (status 120,
# no traceback); unbuffered, print itself raises (status 1, a traceback).
# Both as before the hard exit.
@pytest.mark.parametrize("unbuffered, code", [(False, 120), (True, 1)],
                         ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_as_before(unbuffered, code):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process("-m", "starlift.cli", "validate", data_path("sl2"), stdout=write,
                            unbuffered=unbuffered)
    finally:
        os.close(write)
    err = proc.stderr.decode()
    assert (proc.returncode, err.strip().splitlines()[-1], "Traceback" in err) == (
        code, "BrokenPipeError: [Errno 32] Broken pipe", unbuffered)


def test_no_stdout_exits_as_before():
    """With fd 1 closed at start sys.stdout is None and print writes nothing;
    the run still exits 0."""
    proc = _cli_process("-m", "starlift.cli", "validate", data_path("sl2"), stdout=None,
                        preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_profiler_gets_its_normal_exit(capsys):
    """Under cProfile the process exits normally, so the profile is printed."""
    assert main(["validate", data_path("sl2"), "--emit", "certificates"]) == 0
    report = capsys.readouterr().out.encode()
    proc = _cli_process("-m", "cProfile", "-m", "starlift.cli", "validate", data_path("sl2"),
                        "--emit", "certificates")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith(report)
    assert b"ncalls" in proc.stdout[len(report):]


def test_script_entry_is_what_python_m_runs():
    """The installed starlift script and python -m starlift.cli end the same way."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"starlift": "starlift.cli:console_main"}
    (block,) = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == ["console_main()"]
