"""Command-line interface: outputs, exit codes, file round-trips.

Everything drives main(argv) in-process and captures stdout/stderr, so
the suite exercises exactly what a shell user would see.
"""

import hashlib
import json

import pytest

from symmetroids.cli import (
    EXIT_BUDGET,
    EXIT_DEGENERATE,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_UNCERTIFIED,
    EXIT_USAGE,
    main,
)
from symmetroids.matrices import (
    DegreeType,
    SymmetricFormMatrix,
    dump_json_bytes,
    matrix_from_json_dict,
    matrix_to_json_dict,
    surface_from_matrix,
    surface_to_json_dict,
)
from symmetroids import cli
from symmetroids.fields import PrimeField


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_text(capsys):
    code, out, err = run(capsys, "enumerate", "--d", "4", "--delta", "0")
    assert code == EXIT_OK
    assert out.splitlines() == ["(2,2)", "(0,2,2)", "(0,0,2,2)"]


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--d", "4", "--delta", "1", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload[0] == {"d": 4, "delta": 1, "degree_type": [1, 3]}


def test_enumerate_smooth_profile(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--d", "5", "--delta", "0", "--profile", "smooth-section",
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["(1,1,3)", "(1,1,1,1,1)"]


def test_enumerate_constraint_override(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--d", "4", "--delta", "0",
        "--constraints", "determinant_nonzero,twist_positive,smooth_plane_section",
    )
    assert code == EXIT_OK
    assert "(0,2,2)" not in out.splitlines()


def test_enumerate_rejects_bad_delta(capsys):
    code, _, _ = run(capsys, "enumerate", "--d", "4", "--delta", "2")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# build


def test_build_writes_matrix(tmp_path, capsys):
    out_file = tmp_path / "m22.json"
    code, out, _ = run(
        capsys,
        "build", "--type", "(2,2)", "--d", "4", "--delta", "0",
        "--seed", "1", "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert "det degree 4" in out
    obj = json.loads(out_file.read_text())
    assert obj["degree_type"] == [2, 2]
    assert obj["d"] == 4 and obj["delta"] == 0
    assert "entries" in obj


def test_build_json_format(tmp_path, capsys):
    out_file = tmp_path / "m13.json"
    code, out, _ = run(
        capsys,
        "build", "--type", "(1,3)", "--d", "4", "--delta", "1",
        "--out", str(out_file), "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["degree_type"] == [1, 3]
    assert payload["det_degree"] == 4
    assert len(payload["sha256"]) == 12


def test_build_rejects_invalid_type(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "build", "--type", "(1,2)", "--d", "4", "--delta", "0",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == EXIT_USAGE
    assert "invalid degree type" in err


def test_build_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "build", "--type", "(2,2)", "--d", "4", "--delta", "0",
        "--seed", "7", "--out", str(a))
    run(capsys, "build", "--type", "(2,2)", "--d", "4", "--delta", "0",
        "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# nodes


def build_matrix_file(tmp_path, type_str, d, delta, seed=1):
    out_file = tmp_path / f"m{type_str}{seed}.json"
    code = main([
        "build", "--type", type_str, "--d", str(d), "--delta", str(delta),
        "--seed", str(seed), "--out", str(out_file),
    ])
    assert code == EXIT_OK
    return out_file


def test_nodes_on_built_matrix(tmp_path, capsys):
    matrix_file = build_matrix_file(tmp_path, "(2,2)", 4, 0)
    capsys.readouterr()
    code, out, _ = run(capsys, "nodes", str(matrix_file), "--seed", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["t"] == 8
    assert payload["reduced_certified"] is True
    assert payload["rank_drop_consistent"] is True


def test_nodes_on_a_1x1_matrix_file(tmp_path, capsys):
    # h = 1: the (h-1)-minors are the one 0x0 minor, the unit ideal, and
    # a generic quartic is smooth, so its Jacobian ideal is the unit too
    matrix_file = build_matrix_file(tmp_path, "(4)", 4, 0)
    capsys.readouterr()
    code, out, err = run(capsys, "nodes", str(matrix_file), "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert payload["t"] == 0
    assert payload["rank_drop_consistent"] is True


# sha256 of `nodes <file> --format json --seed 1` on the seed-1 matrix of
# each manifest degree type and of the 6x6 linear symmetroid.
PINNED_NODES_JSON = {
    ("(2,2)", 4, 0): "e129f957b2343cd8be814d10ae70a56aac8cedae4f5a8a5a335f20f24dec9af3",
    ("(1,3)", 4, 1): "1fa44108ea018419897716452984f8cb0468017e1730d721a88c3b992b7dd4e9",
    ("(1,1,1,1)", 4, 1): "b9ea350ed17444f4234f653672a5f520cdaa2a94be07366e30b541bf80578db1",
    ("(1,1,3)", 5, 0): "be08ad8b603a22e982fb7362a48a487c6bc49968050095747b20184b5fb6ae15",
    ("(1,1,1,1,1)", 5, 0): "33c0a40d354cb8850a1204e2946a794d909aca99ce4e4792bc9dc8ddebfc605f",
    ("(1,1,1,1,1,1)", 6, 1): "42b9d213ef46ca9ef5d9b69da928a120f06a172a5a371901da528d01e4020802",
}


@pytest.mark.parametrize("spec", list(PINNED_NODES_JSON), ids=lambda s: s[0])
def test_nodes_json_report_is_pinned(tmp_path, capsys, spec):
    type_str, d, delta = spec
    matrix_file = build_matrix_file(tmp_path, type_str, d, delta)
    capsys.readouterr()
    code, out, _ = run(capsys, "nodes", str(matrix_file), "--format", "json", "--seed", "1")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_NODES_JSON[spec]


def test_nodes_report_file_and_one_liner(tmp_path, capsys):
    matrix_file = build_matrix_file(tmp_path, "(1,3)", 4, 1)
    report_file = tmp_path / "report.json"
    capsys.readouterr()
    code, out, _ = run(
        capsys, "nodes", str(matrix_file), "--out", str(report_file)
    )
    assert code == EXIT_OK
    assert "t=6" in out
    saved = json.loads(report_file.read_text())
    assert saved["t"] == 6
    assert saved["seed"] == 1


def degenerate_matrix_file(tmp_path):
    # duplicate index 1 as a copy of index 2 (row and column) so the
    # matrix stays symmetric with two equal rows and det == 0
    field = PrimeField(31991)
    dt = DegreeType(4, 0, (0, 2, 2))
    template = SymmetricFormMatrix.random(dt, field, seed=1)
    e = template.entries
    rows = [list(r) for r in e]
    for j in range(3):
        rows[1][j] = e[2][j]
        rows[j][1] = e[j][2]
    rows[1][1] = e[2][2]
    obj = matrix_to_json_dict(
        SymmetricFormMatrix.from_rows(dt, e[2][2].ring, rows)
    )
    bad = tmp_path / "degenerate.json"
    bad.write_bytes(dump_json_bytes(obj))
    return bad


def test_nodes_degenerate_matrix(tmp_path, capsys):
    code, _, err = run(capsys, "nodes", str(degenerate_matrix_file(tmp_path)))
    assert code == EXIT_DEGENERATE


def test_nodes_budget_exhaustion(tmp_path, capsys):
    matrix_file = build_matrix_file(tmp_path, "(2,2)", 4, 0)
    capsys.readouterr()
    code, _, err = run(
        capsys, "nodes", str(matrix_file), "--pair-budget", "1"
    )
    assert code == EXIT_BUDGET


def test_nodes_certificate_impossible_is_uncertified(tmp_path, capsys):
    # over F_7 the quartic's 8 nodes leave no room for the certificate
    out_file = tmp_path / "m7.json"
    assert main([
        "build", "--type", "(2,2)", "--d", "4", "--delta", "0",
        "--field", "fp:7", "--out", str(out_file),
    ]) == EXIT_OK
    capsys.readouterr()
    code, out, err = run(capsys, "nodes", str(out_file))
    assert code == EXIT_UNCERTIFIED
    assert out == ""
    assert err == "nodes: certificate needs p > colength (7 <= 8)\n"


@pytest.mark.parametrize("as_surface", [False, True], ids=["matrix", "surface"])
def test_nodes_over_q_is_usage(tmp_path, capsys, as_surface):
    matrix_file = tmp_path / "mq.json"
    assert main([
        "build", "--type", "(2,2)", "--d", "4", "--delta", "0",
        "--field", "q", "--out", str(matrix_file),
    ]) == EXIT_OK
    target = matrix_file
    if as_surface:
        matrix = matrix_from_json_dict(json.loads(matrix_file.read_text()))
        target = tmp_path / "sq.json"
        target.write_bytes(
            dump_json_bytes(surface_to_json_dict(surface_from_matrix(matrix)))
        )
    capsys.readouterr()
    code, out, err = run(capsys, "nodes", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "nodes: node counting runs over a prime field\n"


def test_malformed_pair_budget_env_is_usage(tmp_path, capsys, monkeypatch):
    matrix_file = build_matrix_file(tmp_path, "(2,2)", 4, 0)
    capsys.readouterr()
    monkeypatch.setenv("SYMMETROIDS_PAIR_BUDGET", "abc")
    code, out, err = run(capsys, "nodes", str(matrix_file))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "nodes: SYMMETROIDS_PAIR_BUDGET must be an integer, got 'abc'\n"
    code, _, err = run(capsys, "verify-case", "cayley-cubic")
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1
    # the flag overrides the environment
    code, _, _ = run(capsys, "nodes", str(matrix_file), "--pair-budget", "100000")
    assert code == EXIT_OK
    # commands that never run the Groebner engine do not read it
    code, out, _ = run(capsys, "enumerate", "--d", "4", "--delta", "0")
    assert code == EXIT_OK
    assert out.splitlines() == ["(2,2)", "(0,2,2)", "(0,0,2,2)"]
    code, _, _ = run(
        capsys, "build", "--type", "(2,2)", "--d", "4", "--delta", "0",
        "--out", str(tmp_path / "again.json"),
    )
    assert code == EXIT_OK


def test_nodes_missing_file(capsys):
    code, _, err = run(capsys, "nodes", "/no/such/file.json")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# cohomology


def test_cohomology_section_table(tmp_path, capsys):
    matrix_file = build_matrix_file(tmp_path, "(2,2)", 4, 0)
    capsys.readouterr()
    code, out, _ = run(
        capsys,
        "cohomology", str(matrix_file), "--mode", "section",
        "--m-min", "-2", "--m-max", "3",
    )
    assert code == EXIT_OK
    assert "duality symmetry: ok" in out


def test_cohomology_json_rows(tmp_path, capsys):
    matrix_file = build_matrix_file(tmp_path, "(2,2)", 4, 0)
    capsys.readouterr()
    code, out, _ = run(
        capsys,
        "cohomology", str(matrix_file), "--mode", "section",
        "--m-min", "-2", "--m-max", "3", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    by_m = {row["m"]: row for row in payload["rows"]}
    assert by_m[1]["h0"] == 2
    assert by_m[0]["h1"] == 2
    assert by_m[0]["chi"] == -2


# sha256 of `cohomology --format json --m-min -2 --m-max 5 --seed 1` on the
# seed-1 matrix of each manifest degree type: (section, surface).  The
# report names no field, and both fields give the same table.
PINNED_COHOMOLOGY_JSON = {
    ("(2,2)", 4, 0): (
        "fd85b3bc98ada9dc920342d8d9607e4ad6c53e8269a58d306fcfd54d7624fdef",
        "4f0c3cbd5269ba399ff580a236db227e3cfe04b7e2742dbf98a96a60c3567603",
    ),
    ("(1,3)", 4, 1): (
        "ce00efae887d8059314bace0b34fc2906c529f27d52f1bb0e6004cb45c928034",
        "ad40b9bc3a173b4653cbf3f687e0daef47a02909dcdba800904d8e7940304c9f",
    ),
    ("(1,1,1,1)", 4, 1): (
        "d7a38283b764374d81a84efd1128583c426472ec89a6ff76ec2d96ca240673a4",
        "1a71bf202b3721ae1d154f344b777aa47034abce53e6fb76407dadd99ef23f6e",
    ),
    ("(1,1,3)", 5, 0): (
        "85ec8061e76fd885731f15f903b11b22b569358c1737eb339cbd123f2aff2484",
        "b0d700bf95dcfa0a39f8f3c8ee4fd4dce6ca5ead57dfcbf1c7cefe82f7acf4d2",
    ),
    ("(1,1,1,1,1)", 5, 0): (
        "4747defcf0654b9011e544a7953406002eb4cf66cf035041fd01e9cf875df1e4",
        "acabc83182c0ec27e577caee9d0390061080e7d0f2d9f637afc1557d4878ba44",
    ),
}


@pytest.mark.parametrize("field", ["fp:31991", "q"])
@pytest.mark.parametrize("mode", ["section", "surface"])
@pytest.mark.parametrize("spec", list(PINNED_COHOMOLOGY_JSON), ids=lambda s: s[0])
def test_cohomology_json_report_is_pinned(tmp_path, capsys, spec, mode, field):
    type_str, d, delta = spec
    matrix_file = tmp_path / "matrix.json"
    assert main([
        "build", "--type", type_str, "--d", str(d), "--delta", str(delta),
        "--field", field, "--seed", "1", "--out", str(matrix_file),
    ]) == EXIT_OK
    capsys.readouterr()
    code, out, _ = run(
        capsys,
        "cohomology", str(matrix_file), "--mode", mode, "--format", "json",
        "--m-min", "-2", "--m-max", "5", "--seed", "1",
    )
    assert code == EXIT_OK
    section, surface = PINNED_COHOMOLOGY_JSON[spec]
    want = section if mode == "section" else surface
    assert hashlib.sha256(out.encode()).hexdigest() == want


# `cohomology --m-min -2 --m-max 5 --seed 1` on the det == 0 file of
# `degenerate_matrix_file`: its two equal rows leave a kernel from degree
# 3 on, so h0 outgrows chi and the section table fails duality.
DEGENERATE_TABLES = {
    "section": (EXIT_FAIL, """\
   m     h0     h1     chi
  -2      0     10     -10
  -1      0      6      -6
   0      0      2      -2
   1      2      0       2
   2      6      0       6
   3     11      1      10
   4     17      3      14
   5     24      6      18
duality symmetry: FAILED
""", "b491b47025313e9bb628f7c764237c158afe95775987cc728efb7ff06e855939"),
    "surface": (EXIT_OK, """\
   m     h0     h1     chi
  -2      0      -       8
  -1      0      -       2
   0      0      -       0
   1      2      -       2
   2      8      -       8
   3     19      -      18
   4     36      -      32
   5     60      -      50
""", "61361bec1ac775c915fa7e0d8888af922871897f1686b9bafe30fb546f460ba0"),
}


@pytest.mark.parametrize("mode", list(DEGENERATE_TABLES))
def test_cohomology_of_a_degenerate_matrix_file_is_pinned(tmp_path, capsys, mode):
    bad = str(degenerate_matrix_file(tmp_path))
    want_code, want_text, want_json = DEGENERATE_TABLES[mode]
    args = ["cohomology", bad, "--mode", mode, "--m-min", "-2", "--m-max", "5", "--seed", "1"]
    assert run(capsys, *args) == (want_code, want_text, "")
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_json


def test_cohomology_surface_chi_check(tmp_path, capsys):
    matrix_file = build_matrix_file(tmp_path, "(2,2)", 4, 0)
    capsys.readouterr()
    code, out, _ = run(
        capsys,
        "cohomology", str(matrix_file), "--mode", "surface", "--t", "8",
    )
    assert code == EXIT_OK
    assert "chi == (8 - t)/4: ok" in out
    code, out, _ = run(
        capsys,
        "cohomology", str(matrix_file), "--mode", "surface", "--t", "4",
    )
    assert code == EXIT_FAIL


def test_cohomology_narrow_range_skips_duality(tmp_path, capsys):
    matrix_file = build_matrix_file(tmp_path, "(2,2)", 4, 0)
    capsys.readouterr()
    code, out, _ = run(
        capsys,
        "cohomology", str(matrix_file), "--mode", "section",
        "--m-min", "5", "--m-max", "6",
    )
    assert code == EXIT_OK
    assert "range too small" in out


def test_cohomology_bad_range(tmp_path, capsys):
    matrix_file = build_matrix_file(tmp_path, "(2,2)", 4, 0)
    capsys.readouterr()
    code, _, _ = run(
        capsys,
        "cohomology", str(matrix_file), "--m-min", "3", "--m-max", "1",
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# verify-case


def test_verify_case_passes(capsys):
    code, out, _ = run(capsys, "verify-case", "enumeration-all")
    assert code == EXIT_OK
    assert "PASS" in out


def test_verify_case_json(capsys):
    code, out, _ = run(capsys, "verify-case", "cayley-cubic", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["scenario"] == "cayley-cubic"
    assert payload["passed"] is True


def test_verify_case_unknown(capsys):
    code, _, err = run(capsys, "verify-case", "not-a-scenario")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# kummer-search


def test_kummer_search_writes_fixture(tmp_path, capsys):
    out_file = tmp_path / "fixture.json"
    code, out, _ = run(
        capsys,
        "kummer-search", "--seed", "1", "--budget", "2", "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert "t=16" in out
    fixture = json.loads(out_file.read_text())
    assert fixture["report"]["t"] == 16
    # the fixture doubles as a surface file for the nodes command
    capsys.readouterr()
    code, out, _ = run(capsys, "nodes", str(out_file), "--seed", "2")
    assert code == EXIT_OK
    assert json.loads(out)["t"] == 16


def _not_called(*args, **kwargs):
    raise AssertionError("the computation ran before --out was checked")


@pytest.mark.parametrize("command", ["build", "nodes", "kummer-search"])
def test_unwritable_out_is_usage(tmp_path, capsys, monkeypatch, command):
    # a missing directory is rejected before any input is read or computed
    target = tmp_path / "missing" / "x.json"
    argv = {
        "build": ["build", "--type", "(2,2)", "--d", "4", "--delta", "0"],
        "nodes": ["nodes", str(build_matrix_file(tmp_path, "(2,2)", 4, 0))],
        "kummer-search": ["kummer-search", "--seed", "1", "--budget", "2"],
    }[command]
    for name in ("surface_from_matrix", "count_nodes", "search_sixteen_nodes"):
        monkeypatch.setattr(cli, name, _not_called)
    capsys.readouterr()
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.parent.exists()


def test_kummer_search_tiny_field_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "kummer-search", "--p", "13", "--out", str(tmp_path / "x.json"),
    )
    assert code == EXIT_USAGE
    assert "p > 16" in err


# ---------------------------------------------------------------------------
# one table of failure classes and their exit codes


BUILD_22 = ["build", "--type", "(2,2)", "--d", "4", "--delta", "0"]


def quartic_file(tmp_path, *flags):
    """The seed-1 (2,2) quartic matrix file, built with extra build flags."""
    out_file = tmp_path / "quartic.json"
    assert main(BUILD_22 + ["--out", str(out_file), *flags]) == EXIT_OK
    return str(out_file)


def quintic_file(tmp_path):
    """The seed-1 (1,1,3) quintic matrix file."""
    out_file = tmp_path / "quintic.json"
    argv = ["build", "--type", "(1,1,3)", "--d", "5", "--delta", "0", "--out", str(out_file)]
    assert main(argv) == EXIT_OK
    return str(out_file)


def malformed_json_file(tmp_path):
    bad = tmp_path / "malformed.json"
    bad.write_text("{")
    return str(bad)


def message_lines(err):
    """The lines of stderr, less argparse's usage synopsis.

    argparse prints a "usage:" line and its indented continuations before
    its one error line.
    """
    lines = err.splitlines()
    if lines and lines[0].startswith("usage: "):
        lines = [line for line in lines[1:] if not line.startswith(" ")]
    return lines


# id, argv from tmp_path, environment, exit code, fragment of the stderr line
EXIT_CODE_TABLE = [
    ("bad-flag", lambda t: ["enumerate", "--d", "4", "--delta", "0", "--bogus"], {},
     EXIT_USAGE, "unrecognized arguments: --bogus"),
    ("unknown-constraint", lambda t: ["enumerate", "--d", "4", "--delta", "0", "--constraints", "foo"],
     {}, EXIT_USAGE, "unknown constraints: ['foo']"),
    ("chi-formula-off-quartics", lambda t: ["cohomology", quintic_file(t), "--mode", "surface", "--t", "4"],
     {}, EXIT_USAGE, "the node formula applies to quartic surfaces"),
    ("chi-formula-in-section-mode", lambda t: ["cohomology", quartic_file(t), "--t", "8"],
     {}, EXIT_USAGE, "--t applies to --mode surface only"),
    ("unknown-field", lambda t: BUILD_22 + ["--field", "r", "--out", str(t / "x.json")], {},
     EXIT_USAGE, "unknown field 'r'"),
    ("malformed-json", lambda t: ["nodes", malformed_json_file(t)], {},
     EXIT_USAGE, "is not valid JSON"),
    ("rational-nodes", lambda t: ["nodes", quartic_file(t, "--field", "q")], {},
     EXIT_USAGE, "node counting runs over a prime field"),
    ("pair-budget-env", lambda t: ["nodes", quartic_file(t)], {"SYMMETROIDS_PAIR_BUDGET": "abc"},
     EXIT_USAGE, "SYMMETROIDS_PAIR_BUDGET must be an integer"),
    ("unwritable-out", lambda t: BUILD_22 + ["--out", str(t / "missing" / "x.json")], {},
     EXIT_USAGE, "cannot write"),
    ("zero-determinant", lambda t: ["nodes", str(degenerate_matrix_file(t))], {},
     EXIT_DEGENERATE, "determinant is identically zero"),
    ("certificate-impossible", lambda t: ["nodes", quartic_file(t, "--field", "fp:7")], {},
     EXIT_UNCERTIFIED, "certificate needs p > colength"),
    ("search-not-found", lambda t: ["kummer-search", "--budget", "0", "--out", str(t / "k.json")],
     {}, EXIT_UNCERTIFIED, "no certified 16-node member found within budget 0"),
    ("pair-budget", lambda t: ["nodes", quartic_file(t), "--pair-budget", "1"], {},
     EXIT_BUDGET, "S-pair budget of 1 exhausted"),
    ("success", lambda t: ["nodes", quartic_file(t)], {}, EXIT_OK, None),
]


@pytest.mark.parametrize(
    "argv, env, code, fragment",
    [row[1:] for row in EXIT_CODE_TABLE],
    ids=[row[0] for row in EXIT_CODE_TABLE],
)
def test_exit_code_table(tmp_path, capsys, monkeypatch, argv, env, code, fragment):
    args = argv(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    got, _, err = run(capsys, *args)
    assert got == code
    if fragment is None:
        assert err == ""
        return
    assert "Traceback" not in err
    (line,) = message_lines(err)
    assert fragment in line


# ---------------------------------------------------------------------------
# top-level behavior


def test_no_command_is_usage(capsys):
    assert main([]) == EXIT_USAGE


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK


def test_unknown_flag_is_usage(capsys):
    assert main(["enumerate", "--d", "4", "--delta", "0", "--bogus"]) == EXIT_USAGE
