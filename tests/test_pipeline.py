from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import swlab
from swlab.corpus import corpus
from swlab.errors import (
    NotACycle,
    NotPseudomanifold,
    OracleConflict,
    PairingDegenerate,
)
from swlab.fileio import write_complex_file
from swlab.homology import mod2_homology
from swlab.oracle import cap, class_of, wu_classes
from swlab.pipeline import (
    SWReport,
    _pairing_involution_ok,
    compute_report,
    ht_chain,
)
from swlab.simplicial import Chain, build_complex
from swlab.subdivision import (
    SubdividedComplex,
    barycentric_subdivide,
    flag_dual_cells,
)


def test_ht_chain_is_all_ones_on_derived():
    X = corpus("s2").complex()
    S = barycentric_subdivide(X)
    for i in range(X.dim + 1):
        ht = ht_chain(S, i)
        assert ht == Chain.all_ones(S.derived, i)


def test_ht_chain_rejects_open_base():
    disk = build_complex([(0, 1, 2), (0, 1, 3)])
    S = barycentric_subdivide(disk)
    with pytest.raises(NotPseudomanifold):
        ht_chain(S, 1)


def test_report_rows_match_patterns(entries, reports):
    for name, report in reports.items():
        entry = entries[name]
        X = entry.complex()
        n = X.dim
        assert report.dimension == n
        assert report.f_vector == X.f_vector
        assert len(report.rows) == n + 1
        for i, row in enumerate(report.rows):
            assert row.degree == i
            assert row.all_ones_is_cocycle, (name, i)
            assert row.ht_chain_is_cycle, (name, i)
            assert row.matches_oracle is True, (name, i)
            assert row.class_nonzero == entry.sw_pattern[i], (name, i)
        assert report.all_matched


@pytest.mark.parametrize("name,depth", [("s3", 1), ("klein", 2), ("rp2-6", 2)])
def test_report_invariant_under_subdivision(name, depth):
    """sd(s3), sd(sd(klein)), sd(sd(rp2-6)) keep the corpus invariants."""
    entry = corpus(name)
    X = entry.complex()
    for _ in range(depth):
        X = build_complex(barycentric_subdivide(X).derived.facets)
    report = compute_report(X)
    assert report.betti == entry.betti
    assert tuple(row.class_nonzero for row in report.rows) == entry.sw_pattern
    assert all(row.matches_oracle is True for row in report.rows)
    assert report.pairing_ok


@pytest.mark.parametrize("seed", [0, 1])
def test_report_invariant_under_vertex_relabeling(entries, reports, seed):
    """A seeded random relabeling onto scattered labels changes nothing in
    the report of any corpus entry."""
    rng = random.Random(seed)
    for name, entry in entries.items():
        X = entry.complex()
        old = sorted({v for facet in X.facets for v in facet})
        new = dict(zip(old, rng.sample(range(3 * len(old)), len(old))))
        Y = build_complex([tuple(sorted(new[v] for v in facet))
                           for facet in X.facets])
        assert compute_report(Y).as_dict() == reports[name].as_dict(), \
            (name, seed)


def test_all_ones_cocycle_on_derived_but_not_on_base():
    # the subdivision is what makes the all-ones cochain close up: the
    # all-ones 1-chain (its Poincare dual on a surface) is a cycle on sd(s2)
    # but not on s2, where every vertex has odd degree
    base = corpus("s2").complex()
    derived = barycentric_subdivide(base).derived
    assert Chain.all_ones(derived, 1).boundary().is_zero()
    assert not Chain.all_ones(base, 1).boundary().is_zero()


def _cells_of(S):
    """Every flag dual cell of S, as lists of id tuples, over all degrees >= 1."""
    return [ids for i in range(1, S.base.dim + 1)
            for ids in flag_dual_cells(S, i).values()]


def _fixed_point(cells):
    return {t: t for cell in cells for t in cell}


def _cyclic_shift(cells):
    # a 3-cycle or longer inside one cell: partners stay in the cell but
    # the map is not an involution there
    assert any(len(cell) > 2 for cell in cells)
    return {t: cell[(k + 1) % len(cell)]
            for cell in cells for k, t in enumerate(cell)}


def _other_cell(cells):
    return {t: cells[(c + 1) % len(cells)][0]
            for c, cell in enumerate(cells) for t in cell}


@pytest.mark.parametrize("broken", [_fixed_point, _cyclic_shift, _other_cell])
def test_broken_partner_map_fails_pairing(monkeypatch, broken):
    S = barycentric_subdivide(corpus("s2").complex())
    assert _pairing_involution_ok(S)
    table = broken(_cells_of(S))
    monkeypatch.setattr(SubdividedComplex, "partner",
                        lambda subdivision, ids: table[ids])
    assert not _pairing_involution_ok(S)


def test_report_euler_characteristic(entries, reports):
    for name, report in reports.items():
        f = entries[name].complex().f_vector
        chi = sum((-1) ** i * c for i, c in enumerate(f))
        assert sum((-1) ** i * b for i, b in enumerate(report.betti)) == chi


def test_report_pairing_involution(reports):
    for name, report in reports.items():
        assert report.pairing_ok, name


def test_base_level_cochain_diagnostics(reports):
    # On K itself the all-ones dual cochain is usually not closed; the
    # subdivision is what makes it work.  Degree 0 and degree n always are.
    for name, report in reports.items():
        assert report.k_level_cocycle[0]
        assert report.k_level_cocycle[-1]
    assert report_k(reports, "s2") == (True, False, True)
    assert all(report_k(reports, "klein"))


def report_k(reports, name):
    return reports[name].k_level_cocycle


def test_as_dict_excludes_timings(reports):
    for report in reports.values():
        d = report.as_dict()
        assert "timings" not in json.dumps(d)
        assert set(d) == {"dimension", "f_vector", "betti", "degrees",
                          "diagnostics"}
        assert report.timings  # measured, just not serialized


def test_report_deterministic():
    X = corpus("t2-7").complex()
    blob_a = json.dumps(compute_report(X).as_dict(), sort_keys=True)
    blob_b = json.dumps(compute_report(X).as_dict(), sort_keys=True)
    assert blob_a == blob_b


def test_compute_report_rejects_open_complex():
    disk = build_complex([(0, 1, 2)])
    with pytest.raises(NotPseudomanifold) as exc_info:
        compute_report(disk)
    assert exc_info.value.report is not None


def suspension(X):
    a = max(X.vertices()) + 1
    b = a + 1
    facets = []
    for facet in X.facets:
        facets.append(tuple(facet) + (a,))
        facets.append(tuple(facet) + (b,))
    return build_complex(facets)


def test_degenerate_pairing_is_reported():
    """The suspension of the projective plane is a closed pseudomanifold
    whose mod-2 Betti numbers break Poincare duality, so the Wu solve has
    no solution and must say so instead of emitting junk classes."""
    sus = suspension(corpus("rp2-6").complex())
    assert sus.is_closed_pseudomanifold().passed
    betti = tuple(
        np.array([1, 0, 1, 1]))  # b1 != b2: duality fails mod 2
    from swlab.homology import mod2_homology
    assert mod2_homology(sus).betti_vector == tuple(betti)
    with pytest.raises(PairingDegenerate):
        compute_report(sus)


def test_wrong_oracle_triggers_conflict(monkeypatch):
    """Sanity-check the conflict path: feed the pipeline a deliberately
    corrupted oracle and require OracleConflict with the report attached."""
    X = corpus("rp2-6").complex()

    def corrupted(K, order=None):
        wu = wu_classes(K, order)
        w = list(wu.w)
        w[1] = class_of(K, Chain(K, 1, 0))  # rp2 has w1 != 0
        return type(wu)(complex=wu.complex, v=wu.v, w=tuple(w))

    monkeypatch.setattr("swlab.pipeline.wu_classes", corrupted)
    with pytest.raises(OracleConflict) as exc_info:
        compute_report(X)
    report = exc_info.value.report
    assert isinstance(report, SWReport)
    assert report.rows[1].matches_oracle is False
    assert not report.all_matched
    # the dual-cell side is untouched: cochain and cycle checks still pass
    assert report.rows[1].all_ones_is_cocycle
    assert report.rows[1].ht_chain_is_cycle


def test_oracle_chain_that_is_not_a_cycle_is_rejected(monkeypatch):
    """An oracle chain PD(w_i) with a boundary must raise NotACycle, not be
    compared as if it had a class."""
    X = corpus("rp2-6").complex()

    def one_simplex(K, order, cocycle, gamma):
        pd = cap(K, order, cocycle, gamma)
        return Chain(K, pd.dimension, 1 if pd.dimension >= 1 else pd.bits)

    monkeypatch.setattr("swlab.pipeline.cap", one_simplex)
    with pytest.raises(NotACycle):
        compute_report(X)


def test_report_classes_match_derived_homology(entries, reports):
    """The old route: classes of the all-ones chains reduced in H(K') give
    the same verdicts as the report's last-vertex route through H(K)."""
    for name, entry in entries.items():
        S = barycentric_subdivide(entry.complex())
        Hp = mod2_homology(S.derived)
        n = S.base.dim
        for i, row in enumerate(reports[name].rows):
            ht = Chain.all_ones(S.derived, n - i)
            assert Hp.is_cycle(ht) == row.ht_chain_is_cycle, (name, i)
            assert (not Hp.class_is_zero(ht)) == row.class_nonzero, (name, i)


def test_all_ones_cycle_flag_where_a_degree_is_not_a_cycle():
    # the suspension of rp2 is not an Euler space: its all-ones 1-chain on the
    # subdivision is not a cycle, and the flag-table parity must say so
    S = barycentric_subdivide(suspension(corpus("rp2-6").complex()))
    flags = [is_cycle for is_cycle, _ in S.all_ones_chains()]
    assert flags == [Chain.all_ones(S.derived, d).boundary().is_zero()
                     for d in range(S.base.dim + 1)]
    assert flags[1] is False


def test_compute_report_stays_on_the_base(monkeypatch):
    """No derived complex, no subdivision chain map, and homology of K only."""
    def refuse(*args):
        raise AssertionError("compute_report reached into the derived complex")

    seen = []

    def recording(complex):
        seen.append(complex)
        return mod2_homology(complex)

    monkeypatch.setattr(SubdividedComplex, "derived", property(refuse))
    monkeypatch.setattr(SubdividedComplex, "chain_map", refuse)
    monkeypatch.setattr("swlab.pipeline.mod2_homology", recording)
    entry = corpus("rp3")
    X = entry.complex()
    report = compute_report(X)
    assert report.betti == entry.betti
    assert tuple(row.class_nonzero for row in report.rows) == entry.sw_pattern
    assert report.all_matched and report.pairing_ok
    assert seen and all(complex is X for complex in seen)


def product(X, Y):
    """Staircase triangulation of X x Y (Eilenberg-Zilber): one simplex per
    monotone lattice path through the vertex grid of each pair of facets.
    Product vertices are numbered lexicographically, so every path is an
    increasing vertex tuple."""
    m = max(Y.vertices()) + 1
    facets = []
    for a in X.facets:
        for b in Y.facets:
            p, q = len(a) - 1, len(b) - 1
            for steps_in_x in combinations(range(p + q), p):
                i = j = 0
                path = [a[0] * m + b[0]]
                for step in range(p + q):
                    if step in steps_in_x:
                        i += 1
                    else:
                        j += 1
                    path.append(a[i] * m + b[j])
                facets.append(tuple(path))
    return build_complex(facets)


def test_rp2_times_s1_has_nonzero_w2_in_dimension_3():
    # w(RP2 x S1) = w(RP2) = 1 + a + a^2, so w1 and w2 are nonzero and w3 is 0
    X = product(corpus("rp2-6").complex(), build_complex([(0, 1), (1, 2), (0, 2)]))
    assert X.f_vector == (18, 108, 180, 90)
    report = compute_report(X)
    assert report.betti == (1, 2, 2, 1)
    assert tuple(row.class_nonzero for row in report.rows) == (True, True, True, False)
    assert report.all_matched and report.pairing_ok


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def _classes_under_512_mib(X, tmp_path):
    """`swlab classes FILE --report OUT` in a child capped at 512 MiB of
    address space; returns the report."""
    facets, out = tmp_path / "input.facets", tmp_path / "report.json"
    write_complex_file(str(facets), X)
    src = str(Path(swlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "swlab.cli", "classes", str(facets), "--report", str(out)],
        env=env, preexec_fn=_limit_address_space, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def _rows(payload):
    return [(row["class_nonzero"], row["matches_oracle"]) for row in payload["degrees"]]


@pytest.mark.slow
def test_sd_sd_s3_completes_under_512_mib(tmp_path):
    X = corpus("s3").complex()
    for _ in range(2):
        X = build_complex(barycentric_subdivide(X).derived.facets)
    assert len(X.facets) == 2880
    payload = _classes_under_512_mib(X, tmp_path)
    assert payload["betti"] == [1, 0, 0, 1]
    assert _rows(payload) == [(True, True), (False, True), (False, True), (False, True)]
    assert payload["diagnostics"]["pairing_ok"] is True


@pytest.mark.slow
def test_rp2_times_rp2_completes_under_512_mib(tmp_path):
    # w(RP2 x RP2) = (1 + a + a^2)(1 + b + b^2): every degree is nonzero
    rp2 = corpus("rp2-6").complex()
    X = product(rp2, rp2)
    assert X.f_vector == (36, 405, 1270, 1500, 600)
    payload = _classes_under_512_mib(X, tmp_path)
    assert payload["betti"] == [1, 2, 3, 2, 1]
    assert _rows(payload) == [(True, True)] * 5
    assert payload["diagnostics"]["pairing_ok"] is True
