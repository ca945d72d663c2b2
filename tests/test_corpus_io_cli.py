from __future__ import annotations

import json

import pytest

from swlab import cli
from swlab.corpus import CORPUS_NAMES, corpus, corpus_entries
from swlab.errors import EmptyInput, ParseError, UnknownCorpusEntry
from swlab.fileio import (
    parse_complex_file,
    parse_complex_text,
    serialize_complex,
    write_complex_file,
)

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


def test_corpus_entries_have_descriptions(entries):
    for entry in entries.values():
        assert entry.description
        assert len(entry.sw_pattern) == len(entry.betti)


# ---------------------------------------------------------------- fileio

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


def test_cli_verification_failure_exit(tmp_path, capsys):
    # suspension of the projective plane: closed pseudomanifold, but the
    # Wu solve hits a degenerate pairing -> verification exit code
    rp2 = corpus("rp2-6").complex()
    lines = []
    for facet in rp2.facets:
        lines.append(" ".join(str(v) for v in facet + (6,)))
        lines.append(" ".join(str(v) for v in facet + (7,)))
    path = tmp_path / "sus.facets"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["classes", str(path)]) == 1
    err = capsys.readouterr().err
    assert "verification failed" in err


@pytest.mark.parametrize("fault", [
    AssertionError("pivot lost\nin degree 2"),
    MemoryError(),
])
def test_cli_internal_error_exit(monkeypatch, capsys, fault):
    def broken(complex):
        raise fault

    monkeypatch.setattr("swlab.pipeline.compute_report", broken)
    assert cli.main(["classes", "--corpus", "s2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: " + type(fault).__name__)
    assert err.count("\n") == 1


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
    # too few radii to extrapolate: verification failure, not usage
    assert cli.main(base + ["--eps-list", "0.4,0.2"]) == 1
    capsys.readouterr()


def test_cli_bad_grid(capsys):
    argv = ["metric", "gauss-bonnet", "--model", "round-s2", "--eps", "0.5",
            "--grid", "3"]
    assert cli.main(argv) == 2
    capsys.readouterr()
