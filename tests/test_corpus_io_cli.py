from __future__ import annotations

import hashlib
import json
import tracemalloc

import pytest

import swlab.corpus as corpus_module
from swlab import cli, fileio, simplicial
from swlab.corpus import CORPUS_NAMES, _rpn_facets, corpus, corpus_entries
from swlab.errors import (
    CorpusValidationFailed,
    EmptyInput,
    NotPseudomanifold,
    OracleConflict,
    ParseError,
    UnknownCorpusEntry,
    UnknownModel,
)
from swlab.fileio import (
    parse_complex_file,
    parse_complex_text,
    serialize_complex,
    write_complex_file,
)
from swlab.metric import get_model
from swlab.pipeline import compute_report
from swlab.simplicial import build_complex

EXPECTED_F = {
    "s2": (4, 6, 4),
    "rp2-6": (6, 15, 10),
    "t2-7": (7, 21, 14),
    "klein": (9, 27, 18),
    "s3": (5, 10, 10, 5),
    "rp3": (40, 232, 384, 192),
}


# ---------------------------------------------------------------- corpus

def test_corpus_f_vectors(entries):
    for name, expected in EXPECTED_F.items():
        assert entries[name].complex().f_vector == expected, name


def test_corpus_names_and_order():
    listed = [entry.name for entry in corpus_entries()]
    assert listed == list(CORPUS_NAMES)


def test_corpus_unknown_entry():
    with pytest.raises(UnknownCorpusEntry):
        corpus("mobius")


@pytest.mark.parametrize("facets,betti,match", [
    # the 2-sphere with one facet removed is a disk, open along a circle
    ([(0, 1, 2), (0, 1, 3), (0, 2, 3)], (1, 0, 1), "closed pseudomanifold"),
    # the 2-sphere listed with the torus's Betti numbers
    ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], (1, 2, 1), "betti"),
])
def test_corpus_revalidates_each_entry(monkeypatch, facets, betti, match):
    def broken():
        return corpus_module._entry("s2", "a broken entry", facets, betti,
                                    (True, False, False))

    monkeypatch.setitem(corpus_module._BUILDERS, "s2", broken)
    with pytest.raises(CorpusValidationFailed, match=match):
        corpus("s2")


def test_corpus_entries_have_descriptions(entries):
    for entry in entries.values():
        assert entry.description
        assert len(entry.sw_pattern) == len(entry.betti)


# ---------------------------------------------------------------- fileio

@pytest.mark.parametrize("n,digest", [
    (2, "236fe3a67a4ffe371c54cb0931369f2fc3d96a7762bafcdb745b2f42a11cd3a3"),
    (3, "241789d3cf1a4161112af7cdd500bbd889171580cb24cc5c430688443f25e032"),
    (4, "41dd25cdccb69dfc6215e105c2c68dfe8fdf242abdeb6fae5c5b2591a18954b0"),
])
def test_rpn_facets_are_frozen(n, digest):
    # the canonical text of RP^n, vertex numbering included, is pinned
    text = serialize_complex(build_complex(_rpn_facets(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_round_trip_all_entries(entries):
    for name, entry in entries.items():
        X = entry.complex()
        again = parse_complex_text(serialize_complex(X))
        assert again.facets == X.facets, name


def test_parse_skips_comments_and_blanks():
    text = (
        "# tetrahedron boundary\n"
        "0 1 2\n"
        "\n"
        "  0 1 3\n"
        "   # indented comment\n"
        "0 2 3\n"
        "1 2 3\n"
    )
    assert parse_complex_text(text).f_vector == (4, 6, 4)


def test_parse_of_valid_text_checks_no_facet_alone(monkeypatch):
    # valid text is checked in bulk over all tokens; only a failed bulk
    # check runs the per-line loop, which validates facet by facet
    X = corpus("rp3").complex()
    calls = []

    def counting(vertices, _real=simplicial.canonical_simplex):
        calls.append(vertices)
        return _real(vertices)

    monkeypatch.setattr(fileio, "canonical_simplex", counting)
    monkeypatch.setattr(simplicial, "canonical_simplex", counting)
    assert parse_complex_text(serialize_complex(X)).facets == X.facets
    assert calls == []


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc_info:
        parse_complex_text("0 1 2\n0 one 3\n")
    assert exc_info.value.line == 2
    assert "line 2" in str(exc_info.value)


def test_parse_error_on_repeated_vertex():
    with pytest.raises(ParseError) as exc_info:
        parse_complex_text("0 1 1\n")
    assert exc_info.value.line == 1


def test_parse_empty_input():
    with pytest.raises(EmptyInput):
        parse_complex_text("# nothing but comments\n\n")


@pytest.mark.parametrize("text,error,message,line", [
    ("0 1 2\n0 one 3\n", ParseError,
     "line 2: non-integer vertex id in '0 one 3'", 2),
    ("0 1 2 # a triangle\n", ParseError,
     "line 1: non-integer vertex id in '0 1 2 # a triangle'", 1),
    ("0 1 2\n\n0 -1 3\n", ParseError,
     "line 3: vertex ids must be non-negative ints, got -1", 3),
    ("# s\n0 1 2\n2 0 2\n", ParseError, "line 3: repeated vertex 2 in (2, 0, 2)", 3),
    ("4 4 -2 1\n", ParseError, "line 1: vertex ids must be non-negative ints, got -2", 1),
    ("0 1 2\n1 x 2\n3 3\n", ParseError, "line 2: non-integer vertex id in '1 x 2'", 2),
    ("0 1 2\n1 1 2\n0 x 2\n", ParseError, "line 2: repeated vertex 1 in (1, 1, 2)", 2),
    ("# nothing\n\n   \n  # but comments\n", EmptyInput, "no facets found in input", None),
    ("", EmptyInput, "no facets found in input", None),
    ("0 1 2 3\n4\n  5 6\n7 8 9\n6 9 6\n", ParseError,
     "line 5: repeated vertex 6 in (6, 9, 6)", 5),
])
def test_parse_errors_name_the_first_bad_line(text, error, message, line):
    with pytest.raises(error) as exc_info:
        parse_complex_text(text)
    assert str(exc_info.value) == message
    assert getattr(exc_info.value, "line", None) == line


def test_parse_rows_of_mixed_sizes():
    X = parse_complex_text("0 1 2 3\n4\n  5 6\n# c\n9 8 7\n1 0\n")
    assert X.facets == ((4,), (5, 6), (7, 8, 9), (0, 1, 2, 3))


def test_file_round_trip(tmp_path):
    X = corpus("t2-7").complex()
    path = tmp_path / "torus.facets"
    write_complex_file(path, X)
    assert parse_complex_file(path).facets == X.facets


def test_serializer_is_canonical():
    a = parse_complex_text("2 1 0\n3 1 0\n0 2 3\n3 2 1\n")
    b = parse_complex_text("0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
    assert serialize_complex(a) == serialize_complex(b)


# ------------------------------------------------------------------- cli

def s2_file(tmp_path):
    path = tmp_path / "s2.facets"
    write_complex_file(path, corpus("s2").complex())
    return str(path)


def test_cli_classes_corpus(capsys):
    assert cli.main(["classes", "--corpus", "s2"]) == 0
    out = capsys.readouterr().out
    assert "pattern: 100" in out
    assert "oracle=match" in out


def test_cli_classes_file(tmp_path, capsys):
    assert cli.main(["classes", s2_file(tmp_path)]) == 0
    assert "pattern: 100" in capsys.readouterr().out


def test_cli_classes_diagnostics(capsys):
    assert cli.main(["classes", "--corpus", "klein", "--diagnostics"]) == 0
    out = capsys.readouterr().out
    assert "pattern: 110" in out
    assert "pairing involution yes" in out


def test_cli_report_json_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["classes", "--corpus", "rp2-6",
                     "--report", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["source"] == "corpus:rp2-6"
    assert len(payload["sha256"]) == 64
    assert payload["f_vector"] == [6, 15, 10]
    assert [row["degree"] for row in payload["degrees"]] == [0, 1, 2]
    assert all(row["matches_oracle"] for row in payload["degrees"])
    assert "timings" not in payload


def test_cli_report_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(["classes", "--corpus", "t2-7", "--report", str(out_a)]) == 0
    assert cli.main(["classes", "--corpus", "t2-7", "--report", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_file_and_corpus_sha_agree(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(["classes", "--corpus", "s2", "--report", str(out_a)]) == 0
    assert cli.main(["classes", s2_file(tmp_path), "--report", str(out_b)]) == 0
    capsys.readouterr()
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["sha256"] == b["sha256"]
    assert a["source"] != b["source"]


def test_cli_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.facets"
    bad.write_text("0 1 x\n")
    open_disk = tmp_path / "disk.facets"
    open_disk.write_text("0 1 2\n")
    for argv in (
        ["classes", str(bad)],                      # parse error
        ["classes", str(open_disk)],                # not a pseudomanifold
        ["classes", str(tmp_path / "nope.facets")],  # missing file
        ["classes", "--corpus", "nope"],            # unknown corpus entry
        ["metric", "gauss-bonnet", "--model", "nope", "--eps", "0.5"],
        ["classes"],                                # neither path nor corpus
    ):
        assert cli.main(argv) == 2, argv
        capsys.readouterr()


def test_cli_unknown_model_is_a_usage_error(capsys):
    # the one usage error that printed its message without the prefix
    argv = ["metric", "gauss-bonnet", "--model", "nope", "--eps", "0.5"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown model 'nope'; available: flat-2, flat-3, "
        "hyperbolic-2, round-s2, round-s3, warped-3"]
    with pytest.raises(UnknownModel):
        get_model("nope")


def test_cli_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin.facets"
    path.write_bytes(b"0 1 2\n\xff\xfe 3\n")
    assert cli.main(["classes", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: line 2: input is not UTF-8 text"]
    with pytest.raises(ParseError) as exc_info:
        parse_complex_file(str(path))
    assert exc_info.value.line == 2


def test_cli_point_is_a_closed_manifold(tmp_path, capsys):
    point = tmp_path / "point.facets"
    point.write_text("0\n")
    out = tmp_path / "report.json"
    assert cli.main(["classes", str(point), "--report", str(out)]) == 0
    assert "pattern: 1\n" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["betti"] == [1]
    assert payload["degrees"][0]["matches_oracle"] is True


def test_cli_two_points_are_not_connected(tmp_path, capsys):
    points = tmp_path / "points.facets"
    points.write_text("0\n1\n")
    assert cli.main(["classes", str(points)]) == 2
    assert "not a closed pseudomanifold" in capsys.readouterr().err
    with pytest.raises(NotPseudomanifold) as exc_info:
        compute_report(parse_complex_file(str(points)))
    assert exc_info.value.report.n_components == 2


def test_cli_verification_failure_exit(tmp_path, capsys, pinched_sphere):
    # suspension of the projective plane: closed pseudomanifold, but the
    # Wu solve hits a degenerate pairing -> verification exit code
    rp2 = corpus("rp2-6").complex()
    lines = []
    for facet in rp2.facets:
        lines.append(" ".join(str(v) for v in facet + (6,)))
        lines.append(" ".join(str(v) for v in facet + (7,)))
    path = tmp_path / "sus.facets"
    path.write_text("\n".join(lines) + "\n")
    # the pinched sphere passes the Betti check; its cup pairing is singular
    pinched = tmp_path / "pinched.facets"
    write_complex_file(str(pinched), pinched_sphere)
    out = tmp_path / "out.json"
    for source, message in [
        (path, "betti 2 != betti 1; no mod-2 duality in degree 1"),
        (pinched, "cup pairing H^1 x H^1 -> H^2 is singular"),
    ]:
        # a failed run replaces a report left by an earlier one
        out.write_text('{"stale": true}\n')
        assert cli.main(["classes", str(source), "--report", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"verification failed: {message}" in err
        payload = json.loads(out.read_text())
        assert payload == {
            "schema": cli.SCHEMA_VERSION,
            "source": str(source),
            "sha256": hashlib.sha256(serialize_complex(
                parse_complex_file(str(source))).encode()).hexdigest(),
            "error": {"type": "PairingDegenerate", "message": message},
        }


def _two_spheres():
    s2 = corpus("s2").complex().facets
    return list(s2) + [tuple(v + 4 for v in f) for f in s2]


@pytest.mark.parametrize("facets,reason", [
    ([(0, 1, 2), (0, 1, 3), (0, 1, 4)], "ridge (0, 1) lies in 3 facets, not 2"),
    ([(0, 1, 2), (2, 3)], "facet (2, 3) has dimension 1, not 2"),
    (_two_spheres(), "2 components, not 1"),
], ids=["three-triangles-on-an-edge", "loose-edge", "two-spheres"])
def test_cli_names_the_failed_pseudomanifold_condition(tmp_path, capsys,
                                                       facets, reason):
    path = tmp_path / "bad.facets"
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    assert cli.main(["classes", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: input is not a closed pseudomanifold: {reason}\n"
    with pytest.raises(NotPseudomanifold) as exc_info:
        compute_report(parse_complex_file(str(path)))
    assert not exc_info.value.report.passed


def test_cli_rejected_input_replaces_report(tmp_path, capsys):
    # an input rejected with exit 2 replaces a report left by an earlier
    # run; the hash is there only when the file parsed
    bad = tmp_path / "bad.facets"
    bad.write_text("0 1 2\n0 1 3\n0 1 4\n")
    garbled = tmp_path / "garbled.facets"
    garbled.write_text("0 1 x\n")
    out = tmp_path / "out.json"
    sha = hashlib.sha256(serialize_complex(
        parse_complex_file(str(bad))).encode()).hexdigest()
    for argv, source, kind, message, extra in [
        ([str(bad)], str(bad), "NotPseudomanifold",
         "input is not a closed pseudomanifold: "
         "ridge (0, 1) lies in 3 facets, not 2", {"sha256": sha}),
        ([str(garbled)], str(garbled), "ParseError",
         "line 1: non-integer vertex id in '0 1 x'", {}),
        (["--corpus", "nope"], "corpus:nope", "UnknownCorpusEntry",
         f"unknown corpus entry 'nope'; available: {', '.join(CORPUS_NAMES)}",
         {}),
    ]:
        out.write_text('{"stale": true}\n')
        assert cli.main(["classes", *argv, "--report", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert json.loads(out.read_text()) == {
            "schema": cli.SCHEMA_VERSION,
            "source": source,
            "error": {"type": kind, "message": message},
            **extra,
        }


@pytest.mark.parametrize("fault", [
    AssertionError("pivot lost\nin degree 2"),
    MemoryError(),
])
def test_cli_internal_error_exit(tmp_path, monkeypatch, capsys, fault):
    def broken(complex):
        raise fault

    monkeypatch.setattr("swlab.pipeline.compute_report", broken)
    assert cli.main(["classes", "--corpus", "s2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: " + type(fault).__name__)
    assert err.count("\n") == 1
    # an internal error replaces a report left by an earlier run too
    out = tmp_path / "out.json"
    out.write_text('{"stale": true}\n')
    argv = ["classes", "--corpus", "s2", "--report", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == err
    assert json.loads(out.read_text()) == {
        "schema": cli.SCHEMA_VERSION,
        "source": "corpus:s2",
        "sha256": hashlib.sha256(serialize_complex(
            corpus("s2").complex()).encode()).hexdigest(),
        "error": {"type": type(fault).__name__, "message": str(fault)},
    }


def test_cli_oracle_conflict_keeps_partial_report(tmp_path, monkeypatch,
                                                  capsys):
    # a conflict is a result: its report rides along as "partial"
    report = compute_report(corpus("s2").complex())

    def conflicting(complex):
        raise OracleConflict("w2 disagrees", report=report)

    monkeypatch.setattr("swlab.pipeline.compute_report", conflicting)
    out = tmp_path / "out.json"
    assert cli.main(["classes", "--corpus", "s2", "--report", str(out)]) == 1
    assert capsys.readouterr().err == "verification failed: w2 disagrees\n"
    payload = json.loads(out.read_text())
    assert payload["error"] == {"type": "OracleConflict",
                                "message": "w2 disagrees"}
    assert payload["partial"] == json.loads(json.dumps(report.as_dict()))
    # an unwritable OUT loses no failure: the conflict keeps exit 1 and
    # its message, after a line naming the path that was not written
    missing = tmp_path / "missing" / "out.json"
    assert cli.main(["classes", "--corpus", "s2", "--report", str(missing)]) == 1
    assert capsys.readouterr().err == (f"report {missing} not written: No such file or directory\n"
                                       "verification failed: w2 disagrees\n")
    assert not missing.parent.exists()


def test_cli_corpus_list(capsys):
    assert cli.main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    for name in CORPUS_NAMES:
        assert name in out
    assert "pattern 1000" in out  # s3 and rp3 rows


def test_cli_gauss_bonnet(capsys):
    argv = ["metric", "gauss-bonnet", "--model", "round-s2", "--eps", "0.5"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "cochain value 1" in out
    assert cli.main(argv + ["--tol", "1e-12"]) == 1
    assert "misses 2*pi" in capsys.readouterr().err


def test_cli_main_reuses_one_parser(tmp_path, capsys):
    """`main` builds its parser once per process; a classes run, an argparse
    usage error, a metric probe and a corpus listing run in turn through
    that one parser exit and print as they do with a freshly built one."""
    runs = [["classes", s2_file(tmp_path)],
            ["classes"],
            ["metric", "gauss-bonnet", "--model", "round-s2", "--eps", "0.5"],
            ["corpus", "list"]]

    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    parser = cli._build_parser()
    assert [run(argv) for argv in runs] == fresh
    assert cli._build_parser() is parser
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    assert "one of the arguments path --corpus is required" in fresh[1][2]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
def test_cli_rejects_unusable_tolerance(capsys, tol):
    # a NaN or infinite tolerance would pass every gap, a negative one fail it
    for argv in (["gauss-bonnet", "--model", "round-s2", "--eps", "0.5"],
                 ["w3-limit", "--model", "round-s3", "--eps-list", "0.4,0.2,0.1",
                  "--grid", "8,16"]):
        assert cli.main(["metric"] + argv + [f"--tol={tol}"]) == 2, argv
        assert "invalid tolerance value" in capsys.readouterr().err


def test_cli_sphere_area(capsys):
    argv = ["metric", "sphere-area", "--model", "hyperbolic-2",
            "--eps", "0.5", "--grid", "256"]
    assert cli.main(argv) == 0
    assert "circumference" in capsys.readouterr().out


def test_cli_w3_limit(capsys):
    base = ["metric", "w3-limit", "--model", "flat-3", "--grid", "20,40"]
    assert cli.main(base + ["--eps-list", "0.4,0.2,0.1"]) == 0
    out = capsys.readouterr().out
    assert "extrapolated limit" in out
    assert "cochain value 1" in out
    # too few or non-decreasing radii are bad requests, not verification failures
    for radii in ("0.3", "0.4,0.2", "0.1,0.2,0.05", "0.4,x,0.1"):
        assert cli.main(base + ["--eps-list", radii]) == 2, radii
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_cli_w3_limit_outside_tolerance(capsys):
    # an 8,16 grid leaves the round-s3 limit about 1e-3 from 1: a
    # verification failure, not a bad request
    argv = ["metric", "w3-limit", "--model", "round-s3",
            "--eps-list", "0.4,0.2,0.1", "--grid", "8,16", "--tol", "1e-12"]
    assert cli.main(argv) == 1
    assert "limit misses 1" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1e-100", "1e-200"])
def test_cli_probe_radius_below_the_floor(capsys, eps):
    for argv in (["gauss-bonnet", "--model", "round-s2", "--eps", eps],
                 ["sphere-area", "--model", "round-s3", "--eps", eps]):
        assert cli.main(["metric"] + argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_cli_non_finite_radius(capsys):
    for argv in (["gauss-bonnet", "--model", "round-s2", "--eps", "nan"],
                 ["sphere-area", "--model", "round-s3", "--eps", "nan"],
                 ["w3-limit", "--model", "round-s3",
                  "--eps-list", "0.4,nan,0.1"]):
        assert cli.main(["metric"] + argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "probe radius nan is not finite" in lines[0], lines


def test_cli_grid_over_the_rk4_budget(capsys):
    # fifty million rays would take 763 MiB for their directions alone: the
    # budget refuses them before any array of that size is allocated
    tracemalloc.start()
    try:
        for argv in (["sphere-area", "--model", "round-s2", "--eps", "0.5",
                      "--grid", "50000000"],
                     ["sphere-area", "--model", "round-s3", "--eps", "0.2",
                      "--grid", "4000,8000"]):
            assert cli.main(["metric"] + argv) == 2, argv
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert "exceed the budget" in lines[0], lines
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def _refused_facet(tmp_path, capsys, size: int) -> str:
    """The one stderr line of `swlab classes` on one facet of `size`
    vertices, checked to exit 2 at a traced peak under 4 MiB."""
    path = tmp_path / f"simplex{size}.txt"
    path.write_text(" ".join(map(str, range(size))) + "\n")
    tracemalloc.start()
    try:
        assert cli.main(["classes", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "over the budget of 67108864" in lines[0], lines
        assert tracemalloc.get_traced_memory()[1] < 4 * 2 ** 20
    finally:
        tracemalloc.stop()
    return lines[0]


def test_cli_closure_over_its_budget(tmp_path, capsys):
    # one 40-vertex facet closes to 2^40 - 1 simplices; its own faces put
    # level 35, 3290040 faces of 35 vertices, over CLOSURE_BUDGET, so the
    # closure refuses it before it makes any level
    assert "3290040 faces of 35 vertices" in _refused_facet(tmp_path, capsys, 40)


def test_cli_refuses_a_large_facet_before_any_level(tmp_path, capsys):
    # one 26-vertex facet: level 19 would make 4604600 faces of 19 vertices,
    # 87487400 entries; the levels above it, up to 27.6 M entries, fit the
    # budget but are not made either (a traced peak of 0.2 MiB)
    assert "4604600 faces of 19 vertices" in _refused_facet(tmp_path, capsys, 26)


def test_cli_bad_grid(capsys):
    for argv in [
        ["gauss-bonnet", "--model", "round-s2", "--eps", "0.5", "--grid", "3"],
        # a LAT,LON pair for a 2-D model, a single count for a 3-D one
        ["gauss-bonnet", "--model", "round-s2", "--eps", "0.5", "--grid", "8,8"],
        ["sphere-area", "--model", "round-s2", "--eps", "0.5", "--grid", "8,8"],
        ["sphere-area", "--model", "round-s3", "--eps", "0.2", "--grid", "16"],
        # below the library's floor of 4 rays, latitudes or longitudes
        ["sphere-area", "--model", "round-s2", "--eps", "0.5", "--grid", "2"],
        ["sphere-area", "--model", "round-s3", "--eps", "0.2", "--grid", "2,8"],
        ["sphere-area", "--model", "round-s3", "--eps", "0.2", "--grid", "8,-4"],
        ["w3-limit", "--model", "round-s3", "--eps-list", "0.4,0.2,0.1",
         "--grid", "16"],
        # not integers, three counts, an empty count
        ["sphere-area", "--model", "round-s3", "--eps", "0.2", "--grid", "a"],
        ["sphere-area", "--model", "round-s3", "--eps", "0.2",
         "--grid", "8,8,8"],
        ["sphere-area", "--model", "round-s3", "--eps", "0.2", "--grid", "8,"],
    ]:
        assert cli.main(["metric"] + argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
