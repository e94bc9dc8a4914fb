"""End-to-end command-line checks, run in-process."""

import json
import shlex
from pathlib import Path

import pytest

from twistlab import algebra, cli
from twistlab.cli import HH_TSV_HEADER, main
from twistlab.fields import GF, QQ
from twistlab.twisting import (
    LINE_FAMILIES,
    TwistFamilyDescriptor,
    descriptor_scalars,
    solve_2dim_twist,
)
from twistlab.quivers import standard_quiver, truncated_path_algebra
from twistlab.algebra import standard_algebra

from test_classify import parse_orbit_tsv
from test_twisting import parse_census_tsv


DATA = Path(__file__).resolve().parent / "data"


def parse_hh_tsv(text: str) -> list:
    """Reference reader of ``hh --format tsv``: the dims in degree order."""
    lines = [l for l in text.strip().split("\n") if l]
    if lines[0] != HH_TSV_HEADER:
        raise ValueError("bad hh header")
    dims = []
    for n, line in enumerate(lines[1:]):
        deg, dim = line.split("\t")
        if int(deg) != n:
            raise ValueError("degrees out of order")
        dims.append(int(dim))
    return dims


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_f3_tsv(capsys):
    code, out, err = run(capsys, "census", "--field", "F3")
    assert code == 0
    rows = parse_census_tsv(out, GF(3))
    assert len(rows) == 8
    assert "census-line-family-form" in err
    assert "census-isolated-v-parameter" in err


def test_census_f2_rows(capsys):
    code, out, _ = run(capsys, "census", "--field", "F2")
    assert code == 0
    assert len(parse_census_tsv(out, GF(2))) == 3


def test_census_q_descriptors(capsys):
    code, out, _ = run(capsys, "census", "--field", "Q")
    assert code == 0
    rows = parse_census_tsv(out, QQ)
    assert len(rows) == 6
    assert [r["family"] for r in rows] == [
        "flip", "line_char_ne_2",
        "isolated_iii", "isolated_iv", "isolated_v", "isolated_vi",
    ]
    assert rows[1]["p"] == "alpha"


def test_census_structured_includes_errata(capsys):
    code, out, _ = run(capsys, "census", "--field", "F3",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 8
    assert [e["id"] for e in doc["errata"]] == [
        "census-line-family-form", "census-isolated-v-parameter",
    ]


def test_census_bad_field_fails(capsys):
    code, _, err = run(capsys, "census", "--field", "F4")
    assert code == 2
    assert "error:" in err


def test_census_at_the_search_space_edge(capsys):
    # 1021 is the largest prime with 4 log2(p) <= 40 = ENUM_BITS_BOUND
    code, out, _ = run(capsys, "census", "--field", "F1021")
    assert code == 0
    f = GF(1021)
    rows = parse_census_tsv(out, f)
    assert len(rows) == 1026
    closed_form = set()
    for desc in solve_2dim_twist(f):
        params = range(1021) if desc.family_id in LINE_FAMILIES else [None]
        for x in params:
            closed_form.add(descriptor_scalars(TwistFamilyDescriptor(desc.family_id, x), f))
    assert {(r["p"], r["q"], r["r"], r["s"]) for r in rows} == closed_form
    code, _, err = run(capsys, "census", "--field", "F1031")
    assert code == 2
    assert "search space of 40.1 bits exceeds the 40-bit bound" in err


def test_classify_f5_counts(capsys):
    code, out, _ = run(capsys, "classify", "--field", "F5",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_counts"] == {"I": 1, "IIa": 3, "IIb": 2, "III": 4}


def test_classify_f3_tsv_roundtrip(capsys):
    code, out, _ = run(capsys, "classify", "--field", "F3")
    assert code == 0
    entries = parse_orbit_tsv(out)
    assert len(entries) == 8
    assert sum(1 for e in entries if e.label == "III") == 4


def test_classify_f2_unknown_with_note(capsys):
    code, out, err = run(capsys, "classify", "--field", "F2")
    assert code == 0
    entries = parse_orbit_tsv(out)
    assert all(e.label == "unknown" for e in entries)
    assert "characteristic != 2" in err


def test_hh_quiver_roundtrip(capsys):
    code, out, _ = run(capsys, "hh", "--quiver", "roundtrip", "--N", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [1] * 11
    assert doc["method"] == "rsz-complex"


def test_hh_qtilde_emits_erratum(capsys):
    code, out, err = run(capsys, "hh", "--quiver", "qtilde", "--N", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 0, 0, 0, 0, 0]
    assert doc["errata"][0]["id"] == "isolated-vertex-hh0"
    assert "isolated-vertex-hh0" in err


def test_hh_stats(capsys):
    # --stats adds complex_dims' per-degree records to the structured
    # output; without it the output has no stats and tsv refuses it
    code, out, _ = run(capsys, "hh", "--quiver", "roundtrip", "--N", "4",
                       "--stats")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [1] * 5
    stats = doc["stats"]
    assert [s["degree"] for s in stats] == list(range(5))
    for n, s in enumerate(stats):
        assert set(s) == {"degree", "cochain_dim", "rank", "cleared", "nnz",
                          "build_s", "d2_s", "rank_s"}
        below = stats[n - 1]["rank"] if n else 0
        assert s["cochain_dim"] == doc["dims"][n] + s["rank"] + below
    code, out, _ = run(capsys, "hh", "--quiver", "roundtrip", "--N", "4")
    assert "stats" not in json.loads(out)
    code, _, err = run(capsys, "hh", "--quiver", "roundtrip", "--N", "4",
                       "--stats", "--format", "tsv")
    assert code == 2
    assert err == "error: --stats needs --format structured\n"


def test_hh_algebra_bar_tsv(capsys):
    code, out, _ = run(capsys, "hh", "--algebra", "matrix2", "--N", "3",
                       "--method", "bar", "--format", "tsv")
    assert code == 0
    assert parse_hh_tsv(out) == [1, 0, 0, 0]


def test_hh_quiver_file_and_algebra_file(tmp_path, capsys):
    qpath = tmp_path / "loop.quiver"
    qpath.write_text(standard_quiver("loop").to_json())
    code, out, _ = run(capsys, "hh", "--quiver", str(qpath), "--N", "4")
    assert code == 0
    assert json.loads(out)["dims"] == [2, 1, 1, 1, 1]

    apath = tmp_path / "matrix2.alg"
    apath.write_text(standard_algebra("matrix2", QQ).to_json())
    code, out, _ = run(capsys, "hh", "--algebra", str(apath), "--N", "3")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 0, 0]


def test_hh_algebra_file_reports_its_own_field(tmp_path, capsys):
    # no --field: the dims are computed over the file's field, and the
    # report names that field, not the flag's default Q
    for field, dims in ((GF(2), [2, 2, 2]), (GF(5), [2, 0, 0])):
        path = tmp_path / f"z2-{field.name}.alg"
        path.write_text(standard_algebra("group_algebra_z2", field).to_json())
        code, out, _ = run(capsys, "hh", "--algebra", str(path), "--N", "2")
        assert code == 0
        doc = json.loads(out)
        assert (doc["field"], doc["dims"]) == (field.name, dims)


def test_hh_field_flag_must_match_an_algebra_file(tmp_path, capsys):
    path = tmp_path / "z2-F2.alg"
    path.write_text(standard_algebra("group_algebra_z2", GF(2)).to_json())
    code, out, err = run(capsys, "hh", "--algebra", str(path), "--N", "2",
                         "--field", "F5")
    assert (code, out) == (2, "")
    assert "F5" in err and "F2" in err
    code, out, _ = run(capsys, "hh", "--algebra", str(path), "--N", "2",
                       "--field", "F2")
    assert code == 0
    assert json.loads(out)["dims"] == [2, 2, 2]


def test_census_field_tag_spelled_as_its_name(capsys):
    for tag in ("F0", "F007"):
        code, out, err = run(capsys, "census", "--field", tag)
        assert (code, out) == (2, "")
        assert repr(tag) in err


def test_hh_method_e_complex(capsys):
    code, out, _ = run(capsys, "hh", "--quiver", "kronecker", "--N", "4",
                       "--method", "e-complex")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [1, 3, 0, 0, 0]
    assert doc["method"] == "e-complex"
    code, out, _ = run(capsys, "hh", "--algebra", "truncated_roundtrip",
                       "--N", "4", "--method", "e-complex")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 1, 1, 1, 1]
    # a_q:2 splits off its basis by split_idempotents' root search
    for field in ("Q", "F5"):
        code, out, _ = run(capsys, "hh", "--algebra", "a_q:2", "--N", "4",
                           "--method", "e-complex", "--field", field)
        assert code == 0
        assert json.loads(out)["dims"] == [1, 1, 1, 1, 1]
    code, out, err = run(capsys, "hh", "--quiver", "loop", "--N", "33",
                         "--method", "e-complex")
    assert (code, out) == (2, "")
    assert "N must be between 0 and 32" in err


def test_hh_input_validation(capsys):
    code, _, err = run(capsys, "hh", "--N", "3")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "hh", "--quiver", "roundtrip",
                       "--algebra", "matrix2", "--N", "3")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "hh", "--algebra", "matrix2", "--N", "3",
                       "--method", "rsz")
    assert code == 2 and "needs a quiver" in err


@pytest.mark.parametrize("spec, name, par", [
    ("a_q:1/2", "a_q", "'1/2'"), ("k_n:", "k_n", "''"), ("k_n:x", "k_n", "'x'")])
def test_hh_algebra_parameter_not_an_integer(capsys, spec, name, par):
    assert run(capsys, "hh", "--algebra", spec, "--N", "1") == (
        2, "", f"error: {name} takes an integer parameter, got {par}\n")


@pytest.mark.parametrize("par", ["x", "", " 2"], ids=["x", "empty", "space"])
def test_hh_crown_parameter_not_an_integer(capsys, par):
    # decimal digits only: int() alone reads " 2" as 2
    assert run(capsys, "hh", "--quiver", f"crown({par})", "--N", "1") == (
        2, "", f"error: crown(c) takes a decimal integer c, got 'crown({par})'\n")


def test_hh_malformed_json_inputs(tmp_path, capsys):
    # a missing key or a non-object document used to end in a traceback
    cases = (
        ("--quiver", {"vertex_count": 2}, "quiver JSON lacks the key 'arrows'"),
        ("--quiver", [[0, 1]], "quiver JSON must be an object, not list"),
        ("--algebra", {"field": "Q", "dim": 1, "basis": ["1"], "unit": ["1"]},
         "algebra JSON lacks the key 'table'"),
        ("--algebra", [], "algebra JSON must be an object, not list"),
    )
    for i, (flag, doc, message) in enumerate(cases):
        path = tmp_path / f"input{i}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "hh", flag, str(path), "--N", "2")
        assert code == 2 and out == "", message
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("flag, doc, message", [
    ("--quiver", {"vertex_count": 2, "arrows": 5},
     "quiver JSON 'arrows' must be an array of arrays of integers"),
    ("--quiver", {"vertex_count": "2", "arrows": []},
     "quiver JSON 'vertex_count' must be an integer"),
    ("--algebra", dict(standard_algebra("group_algebra_z2", QQ).to_doc(), table=5),
     "algebra JSON 'table' must be an array of arrays of arrays of "
     "integers or strings"),
], ids=["arrows", "vertex_count", "table"])
def test_hh_json_values_of_wrong_type(tmp_path, capsys, flag, doc, message):
    # every key present, one value of the wrong type: exit 2 naming the key
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "hh", flag, str(path), "--N", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("arrow", [[0], [0, 1, 1]], ids=["short", "long"])
def test_hh_quiver_arrow_not_a_pair(tmp_path, capsys, arrow):
    # the message names the arrow by its index and value
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"vertex_count": 2, "arrows": [[0, 1], arrow]}))
    code, out, err = run(capsys, "hh", "--quiver", str(path), "--N", "2")
    assert (code, out, err) == (
        2, "", f"error: arrow 1 is {arrow}, not [source, target]\n")


def test_hh_criterion_inapplicable_exits_2(capsys):
    # over GF(2) the trace-form radical of these inputs is not certified
    for flag, spec in (("--quiver", "roundtrip"),
                       ("--algebra", "group_algebra_z2")):
        code, out, err = run(capsys, "hh", flag, spec, "--N", "2",
                             "--method", "e-complex", "--field", "F2")
        assert code == 2 and out == "", spec
        assert err.startswith("error: criterion-inapplicable: char 2 <= dim "), spec


def test_hh_budget_error_surfaces(capsys, monkeypatch):
    monkeypatch.setenv("TWISTLAB_BUDGET", "100")
    code, _, err = run(capsys, "hh", "--algebra", "matrix2", "--N", "3",
                       "--method", "bar")
    assert code == 2
    assert "budget" in err.lower()


def test_hh_bar_budget_is_checked_before_the_path_algebra(capsys, monkeypatch):
    # kronecker's truncated path algebra has dim d = 4, so N = 2 needs
    # d (d-1)^(N+1) = 108; one below, the d^3 table is never built
    built = []

    def spy(q, field):
        built.append(q)
        return truncated_path_algebra(q, field)

    monkeypatch.setattr(cli, "truncated_path_algebra", spy)
    argv = ("hh", "--quiver", "kronecker", "--N", "2", "--method", "bar")
    monkeypatch.setenv("TWISTLAB_BUDGET", "108")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["dims"] == [1, 3, 0]
    assert len(built) == 1
    monkeypatch.setenv("TWISTLAB_BUDGET", "107")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: the bar budget of 107 caps d (d-1)^(N+1), which is "
                   "108 for dim 4 at degree 2; lower N or raise TWISTLAB_BUDGET\n")
    assert len(built) == 1


def test_hh_algebra_budget_is_checked_before_the_algebra(capsys, monkeypatch,
                                                        tmp_path):
    # k_n:4 and a dim-4 file at N = 2 need d (d-1)^(N+1) = 108; one below,
    # k_n's table is never built and the file's axioms are never checked
    built, checked = [], []
    real_build, real_check = cli.standard_algebra, algebra.verify_axioms
    monkeypatch.setattr(cli, "standard_algebra",
                        lambda *a, **k: built.append(a) or real_build(*a, **k))
    monkeypatch.setattr(algebra, "verify_axioms",
                        lambda a: checked.append(a.dim) or real_check(a))
    path = tmp_path / "matrix2.json"
    path.write_text(standard_algebra("matrix2", GF(5)).to_json())
    refusal = ("error: the bar budget of 107 caps d (d-1)^(N+1), which is "
               "108 for dim 4 at degree 2; lower N or raise TWISTLAB_BUDGET\n")
    for spec, dims in (("k_n:4", [4, 0, 0]), (str(path), [1, 0, 0])):
        for method in ("bar", "auto"):
            argv = ("hh", "--algebra", spec, "--N", "2", "--method", method)
            monkeypatch.setenv("TWISTLAB_BUDGET", "108")
            code, out, _ = run(capsys, *argv)
            assert code == 0 and json.loads(out)["dims"] == dims
            assert built and checked
            before = (len(built), len(checked))
            monkeypatch.setenv("TWISTLAB_BUDGET", "107")
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", refusal)
            assert (len(built), len(checked)) == before
    # the other methods load first, as before
    code, out, _ = run(capsys, "hh", "--algebra", "k_n:4", "--N", "2",
                       "--method", "e-complex")
    assert code == 0 and json.loads(out)["dims"] == [4, 0, 0]


def test_hh_output_file(tmp_path, capsys):
    target = tmp_path / "profile.json"
    code, out, _ = run(capsys, "hh", "--quiver", "four_points", "--N", "3",
                       "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dims"] == [4, 0, 0, 0]


def test_counterexample_verb(capsys):
    code, out, _ = run(capsys, "counterexample", "--N", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "counterexample confirmed"
    assert doc["rsz_dims"] == [1] * 5
    code, _, err = run(capsys, "counterexample", "--N", "4", "--field", "F2")
    assert code == 2
    assert "error:" in err
    for N in ("1", "33"):
        code, out, err = run(capsys, "counterexample", "--N", N)
        assert (code, out, err) == (2, "", "error: N must be between 2 and 32\n")


def test_reproduce_paper_passes(capsys):
    code, out, _ = run(capsys, "reproduce-paper")
    assert code == 0
    lines = out.strip().split("\n")
    assert not any(line.startswith("FAIL") for line in lines)
    assert sum(1 for line in lines if line.startswith("pass")) == 28
    assert lines[-1] == "summary: 28/28 checks pass, 3 errata"
    erratum_lines = [l for l in lines if l.lstrip().startswith("erratum[")]
    assert len(erratum_lines) == 3


def test_reproduce_paper_structured_and_stability(capsys):
    code, out1, _ = run(capsys, "reproduce-paper", "--format", "structured")
    assert code == 0
    doc = json.loads(out1)
    assert doc["ok"] is True
    assert doc["passed"] == doc["total"] == 28
    assert [e["id"] for e in doc["errata"]] == [
        "census-line-family-form",
        "census-isolated-v-parameter",
        "isolated-vertex-hh0",
    ]
    routes = [c for c in doc["checks"] if c["id"].startswith("hh-three-routes")]
    assert [c["detail"] for c in routes] == [
        "rsz = bar = e-complex on roundtrip and qtilde"] * 3
    code, out2, _ = run(capsys, "reproduce-paper", "--format", "structured")
    assert out1 == out2


def test_reproduce_paper_extra_field_f7(capsys):
    code, out, _ = run(capsys, "reproduce-paper", "--field", "F7")
    assert code == 0
    assert "census-count-F7: 12 rows" in out
    assert "summary: 37/37" in out


def test_reproduce_paper_refuses_characteristic_2(capsys):
    # its expectations assume char != 2, so no check runs at all
    code, out, err = run(capsys, "reproduce-paper", "--field", "F2")
    assert (code, out) == (2, "")
    assert err == ("error: reproduce-paper's expected counts and HH profiles "
                   "assume characteristic != 2; F2 has characteristic 2\n")


def test_hh_algebra_file_with_wrong_table_shape(tmp_path, capsys):
    # a long cell used to be cut to the basis, a short row to crash
    for name, table in (("long", [[["1", "5"]]]), ("short", [[[]]])):
        apath = tmp_path / f"{name}.alg"
        apath.write_text(json.dumps({"field": "Q", "dim": 1, "basis": ["1"],
                                     "unit": ["1"], "table": table}))
        code, out, err = run(capsys, "hh", "--algebra", str(apath), "--N", "2")
        assert code == 2 and out == "", name
        assert "table/unit shape does not match the basis" in err, name


def test_file_errors_exit_2_with_one_line(tmp_path, capsys):
    # these used to end in a traceback and exit 1: a missing directory, a
    # directory given as an input file, and output paths that cannot be
    # written (a directory, and a path under a plain file)
    plain = tmp_path / "plain.txt"
    plain.write_text("not a directory")
    cases = [
        (("census", "--field", "F5", "-o", str(tmp_path / "missing" / "x.tsv")),
         "No such file or directory"),
        (("hh", "--algebra", str(tmp_path), "--N", "2"), "Is a directory"),
        (("hh", "--quiver", str(tmp_path), "--N", "2"), "Is a directory"),
        (("census", "--field", "F5", "-o", str(tmp_path)), "Is a directory"),
        (("classify", "--field", "F3", "-o", str(plain / "x.tsv")), "Not a directory"),
    ]
    for argv, reason in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert reason in err, argv


@pytest.mark.parametrize("field, table, unit, where", [
    ("Q", [[["1/0"]]], ["1"], "table[0][0][0] = '1/0'"),
    ("F5", [[["1"]]], ["1/5"], "unit[0] = '1/5'"),
], ids=["Q", "F5"])
def test_hh_algebra_scalar_with_no_image_exits_2(tmp_path, capsys, field, table,
                                                 unit, where):
    # used to end in a ZeroDivisionError traceback
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"field": field, "dim": 1, "basis": ["1"],
                                "unit": unit, "table": table}))
    code, out, err = run(capsys, "hh", "--algebra", str(path), "--N", "2")
    assert (code, out, err) == (
        2, "", f"error: {where} has no image in {field}\n")


def test_readme_quickstart_commands_run(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    quickstart = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line) for line in quickstart.splitlines()
                if line.startswith("twistlab ")]
    assert len(commands) == 5
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


E_COMPLEX_ARGV = ("hh", "--method", "e-complex", "--format", "structured", "--N", "8")
E_COMPLEX_GOLDEN = [
    (q, f, f"hh-e-complex-{q.replace('(', '').replace(')', '')}-{f}")
    for q in ("roundtrip", "qtilde", "loop", "kronecker", "crown(3)", "four_points")
    for f in ("Q", "F5")
]


@pytest.mark.parametrize("argv, stdout_file, stderr_file", [
    (("census", "--field", "F5"), "census-F5.tsv", "census.stderr"),
    (("census", "--field", "Q"), "census-Q.tsv", "census.stderr"),
    (("census", "--field", "Q", "--format", "structured"),
     "census-Q.json", "census.stderr"),
    (("census", "--field", "F2"), "census-F2.tsv", "census.stderr"),
    (("classify", "--field", "F13", "--format", "structured"),
     "classify-F13.json", None),
    (("classify", "--field", "Q"), "classify-Q.tsv", None),
    (("classify", "--field", "Q", "--format", "structured"),
     "classify-Q.json", None),
    (("classify", "--field", "F2"), "classify-F2.tsv", "classify-F2.stderr"),
    (("reproduce-paper", "--format", "structured"), "reproduce-paper.json", None),
] + [
    ((*E_COMPLEX_ARGV, "--quiver", q, "--field", f), f"{stem}.json",
     "hh-qtilde.stderr" if q == "qtilde" else None)
    for q, f, stem in E_COMPLEX_GOLDEN
] + [
    ((*E_COMPLEX_ARGV, "--algebra", "truncated_roundtrip", "--field", "F3"),
     "hh-e-complex-truncated_roundtrip-F3.json", None),
], ids=["census-F5", "census-Q", "census-Q-structured", "census-F2",
        "classify-F13", "classify-Q", "classify-Q-structured", "classify-F2",
        "reproduce-paper"] + [stem for _, _, stem in E_COMPLEX_GOLDEN]
       + ["hh-e-complex-truncated_roundtrip-F3"])
def test_cli_output_matches_golden_files(capsys, argv, stdout_file, stderr_file):
    # the golden files hold the output of an earlier release; any change to
    # a census row, a class label or a check detail shows up here
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (DATA / stdout_file).read_bytes()
    want_err = (DATA / stderr_file).read_bytes() if stderr_file else b""
    assert err.encode() == want_err


def test_hh_negative_degree_refused_by_every_method(capsys):
    for method in ("rsz", "bar", "e-complex"):
        code, out, err = run(capsys, "hh", "--quiver", "roundtrip",
                             "--method", method, "--N", "-2")
        assert code == 2 and out == "", method
        assert "error: N must be" in err, method
