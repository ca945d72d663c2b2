from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from functools import reduce
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swlab
from conftest import relabeled
from swlab import cli
from swlab.corpus import CORPUS_NAMES, _rpn_facets, corpus
from swlab.errors import (
    NotACycle,
    NotPseudomanifold,
    OracleConflict,
    PairingDegenerate,
)
from swlab.fileio import serialize_complex, write_complex_file
from swlab.gf2 import BitMatrix
from swlab.homology import mod2_homology
from swlab.oracle import VertexOrder, cap, class_of, cup, fundamental_cycle, wu_classes
from swlab.pipeline import SWReport, all_ones_chains, compute_report
from swlab.simplicial import Chain, SimplicialComplex, build_complex
from swlab.subdivision import (
    SubdividedComplex,
    barycentric_subdivide,
    flag_dual_cells,
)


def ref_all_ones_chains(S):
    """One pass over the derived simplices of S: per degree d, whether the
    all-ones d-chain of the base is a cycle, by its boundary; whether the
    all-ones d-chain of the derived complex is a cycle (for d >= 1: every
    (d-1)-simplex has an even number of d-cofaces); and the latter's image
    on the base under the last-vertex map, which sends a flag to the span of
    its members' largest vertices (they never increase along the flag), or
    to zero when two of them coincide."""
    odd_faces = [set() for _ in range(S.base.dim + 1)]
    odd_images = [set() for _ in range(S.base.dim + 1)]
    for ids in S.derived.simplices():
        d = len(ids) - 1
        odd_faces[d].symmetric_difference_update(
            ids[:k] + ids[k + 1 :] for k in range(d + 1) if d)
        last = tuple(S.simplices[v][-1] for v in reversed(ids))
        if len(set(last)) == d + 1:
            odd_images[d].symmetric_difference_update((last,))
    index = S.base._index
    return [(Chain.all_ones(S.base, d).boundary().is_zero(), not faces,
             Chain(S.base, d, sum(1 << index[d][s] for s in images)))
            for d, (faces, images) in enumerate(zip(odd_faces, odd_images))]


def ref_pairing_ok(S):
    """Flag dual cells decompose into partner orbits of size exactly two."""
    for i in range(1, S.base.dim + 1):
        for ids in flag_dual_cells(S, i).values():
            partner = {id_tuple: S.partner(id_tuple) for id_tuple in ids}
            # no fixed point; the partner lies in this cell and maps back
            for id_tuple, other in partner.items():
                if other == id_tuple or partner.get(other) != id_tuple:
                    return False
    return True


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


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
@pytest.mark.parametrize("name,depth", [("s3", 1), ("klein", 2), ("rp2-6", 2)])
def test_report_invariant_under_subdivision(name, depth, data):
    """sd(s3), sd(sd(klein)), sd(sd(rp2-6)), relabeled onto scattered
    labels, keep the corpus invariants."""
    entry = corpus(name)
    X = entry.complex()
    for _ in range(depth):
        X = build_complex(barycentric_subdivide(X).derived.facets)
    n = X.n_simplices(0)
    X, _ = relabeled(X, data.draw(st.permutations(range(3 * n)), label="labels")[:n])
    report = compute_report(X)
    assert report.betti == entry.betti
    assert tuple(row.class_nonzero for row in report.rows) == entry.sw_pattern
    assert report.all_matched and report.pairing_ok


@pytest.mark.parametrize("seed", [0, 1])
def test_report_invariant_under_vertex_relabeling(entries, reports, seed):
    """A seeded random relabeling onto scattered labels changes nothing in
    the report of any corpus entry."""
    rng = random.Random(seed)
    for name, entry in entries.items():
        X = entry.complex()
        n = X.n_simplices(0)
        Y, _ = relabeled(X, rng.sample(range(3 * n), n))
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


def test_ridge_pairing_matches_the_flag_reference(entries, reports,
                                                  pinched_sphere):
    # the partner map swaps a flag's top facet around its ridge, so the
    # ridge count of the pseudomanifold check, the orbit check over all flag
    # dual cells and the report's diagnostic agree
    for name, entry in entries.items():
        X = entry.complex()
        assert X.is_closed_pseudomanifold().ridges_ok, name
        assert ref_pairing_ok(barycentric_subdivide(X)), name
        assert reports[name].pairing_ok, name
    assert pinched_sphere.is_closed_pseudomanifold().ridges_ok
    assert ref_pairing_ok(barycentric_subdivide(pinched_sphere))


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


def test_degenerate_pairing_is_reported(pinched_sphere):
    """The suspension of the projective plane is a closed pseudomanifold
    whose mod-2 Betti numbers break Poincare duality, so the Wu solve has
    no solution and must say so instead of emitting junk classes.  The
    pinched sphere passes the Betti check, but its cup pairing on H^1 is
    singular."""
    sus = suspension(corpus("rp2-6").complex())
    assert sus.is_closed_pseudomanifold().passed
    betti = tuple(
        np.array([1, 0, 1, 1]))  # b1 != b2: duality fails mod 2
    assert mod2_homology(sus).betti_vector == tuple(betti)
    with pytest.raises(PairingDegenerate, match="betti"):
        compute_report(sus)
    assert pinched_sphere.f_vector == (13, 36, 24)
    assert pinched_sphere.is_closed_pseudomanifold().passed
    assert mod2_homology(pinched_sphere).betti_vector == (1, 1, 1)
    with pytest.raises(PairingDegenerate,
                       match=r"cup pairing H\^1 x H\^1 -> H\^2 is singular"):
        compute_report(pinched_sphere)


def test_wrong_oracle_triggers_conflict(monkeypatch):
    """Sanity-check the conflict path: feed the pipeline a deliberately
    corrupted oracle and require OracleConflict with the report attached."""
    X = corpus("rp2-6").complex()

    def corrupted(K):
        wu = wu_classes(K)
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


def test_all_ones_image_that_is_not_a_cycle_is_rejected(monkeypatch):
    """lambda_# is a chain map, so a closed all-ones chain has a cycle for
    image.  An image with a boundary must raise NotACycle before its
    coordinates are read."""
    X = corpus("rp2-6").complex()

    def one_simplex_images(K):
        return [(k_cycle, True, Chain(K, d, 1) if d else image)
                for d, (k_cycle, _, image) in enumerate(all_ones_chains(K))]

    monkeypatch.setattr("swlab.pipeline.all_ones_chains", one_simplex_images)
    with pytest.raises(NotACycle) as exc_info:
        compute_report(X)
    assert exc_info.value.which == "all-ones image"


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_compute_report_reduces_no_boundary_matrix(monkeypatch, name):
    """Every class is read as coordinates over the cohomology transcripts,
    so the report reduces the coboundary matrices and the Wu pairing
    matrices only, none of them twice the same way, and each coboundary
    once in all, tagged."""
    reductions = []
    column_space, tagged = BitMatrix.column_space, BitMatrix.tagged_reduction

    def counting_column_space(self):
        reductions.append(("column space", self))
        return column_space(self)

    def counting_tagged(self, kept=None):
        reductions.append(("tagged", self))
        return tagged(self, kept)

    X = corpus(name).complex()
    monkeypatch.setattr(BitMatrix, "column_space", counting_column_space)
    monkeypatch.setattr(BitMatrix, "tagged_reduction", counting_tagged)
    report = compute_report(X)
    assert report.all_matched
    boundaries = [X.boundary_matrix(k) for k in range(1, X.dim + 1)]
    assert not any(m == b for _, m in reductions for b in boundaries)
    # the matrices stay referenced in `reductions`, so their ids are distinct
    assert len({(kind, id(m)) for kind, m in reductions}) == len(reductions)
    reduced = [id(m) for _, m in reductions]
    tagged_ids = [id(m) for kind, m in reductions if kind == "tagged"]
    for k in range(X.dim + 1):
        delta = id(X.coboundary_matrix(k))
        assert reduced.count(delta) == tagged_ids.count(delta) == 1


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_report_paths_build_each_coboundary_once_and_no_boundary(monkeypatch, tmp_path,
                                                                  name):
    """The facet tables are the report's one incidence record: compute_report
    and `swlab classes FILE --report OUT`, each on a fresh complex, read
    every facet_table(d) as the closure built it, build every
    coboundary_matrix(d) from them once, and call neither boundary_matrix
    nor BitMatrix.transpose."""
    entry = corpus(name)
    path = tmp_path / f"{name}.facets"
    write_complex_file(str(path), entry.complex())
    X = entry.complex()
    # the complexes stay referenced here, so their ids are distinct
    built = {id(X): (X, X._facet_tables)}
    calls = []

    def closing(cls, facets, _real=SimplicialComplex.from_canonical_facets.__func__):
        c = _real(cls, facets)
        built[id(c)] = (c, c._facet_tables)
        return c

    def reading(self, d, _real=SimplicialComplex.facet_table):
        table = _real(self, d)
        calls.append(("table", self, d, table))
        return table

    def building(self, d, _real=SimplicialComplex.coboundary_matrix):
        if d not in self._coboundary:
            calls.append(("coboundary", self, d))
        return _real(self, d)

    def recording(label, method):
        def wrapper(self, *args):
            calls.append((label, self, args))
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(SimplicialComplex, "from_canonical_facets", classmethod(closing))
    monkeypatch.setattr(SimplicialComplex, "facet_table", reading)
    monkeypatch.setattr(SimplicialComplex, "coboundary_matrix", building)
    monkeypatch.setattr(SimplicialComplex, "boundary_matrix",
                        recording("boundary", SimplicialComplex.boundary_matrix))
    monkeypatch.setattr(BitMatrix, "transpose", recording("transpose", BitMatrix.transpose))
    assert compute_report(X).all_matched
    assert cli.main(["classes", str(path), "--report", str(tmp_path / "out.json")]) == 0
    assert [call for call in calls if call[0] not in ("table", "coboundary")] == []
    complexes = {id(call[1]): call[1] for call in calls}
    assert X in complexes.values() and len(complexes) == 2
    for c in complexes.values():
        assert built[id(c)][0] is c
        tables = built[id(c)][1]
        assert len(tables) == c.dim and c._facet_tables is tables
        reads = [call for call in calls if call[0] == "table" and call[1] is c]
        assert {d for _, _, d, _ in reads} == set(range(1, c.dim + 1))
        assert all(table is tables[d - 1] for _, _, d, table in reads)
        cobounds = [call[2] for call in calls if call[0] == "coboundary" and call[1] is c]
        assert sorted(cobounds) == list(range(c.dim + 1))


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
    # subdivision is not a cycle, and the coface parity must say so
    S = barycentric_subdivide(suspension(corpus("rp2-6").complex()))
    flags = [is_cycle for _, is_cycle, _ in all_ones_chains(S.base)]
    assert flags == [Chain.all_ones(S.derived, d).boundary().is_zero()
                     for d in range(S.base.dim + 1)]
    assert flags[1] is False
    # in the double suspension both vertices and edges can have an odd
    # number of cofaces; the edges decide degree 2
    S = barycentric_subdivide(suspension(S.base))
    flags = [is_cycle for _, is_cycle, _ in all_ones_chains(S.base)]
    assert flags == [Chain.all_ones(S.derived, d).boundary().is_zero()
                     for d in range(S.base.dim + 1)]
    assert flags == [True, False, False, True, True]


CIRCLE = [(0, 1), (1, 2), (0, 2)]

LOCAL_FORMULA_INPUTS = {
    **{name: lambda name=name: corpus(name).complex() for name in CORPUS_NAMES},
    "rp2-6xs1": lambda: product(corpus("rp2-6").complex(), build_complex(CIRCLE)),
    "kleinxs1": lambda: product(corpus("klein").complex(), build_complex(CIRCLE)),
    **{f"{a}#{b}": lambda a=a, b=b: connected_sum(corpus(a).complex(), corpus(b).complex())
       for a, b in [("rp2-6", "rp2-6"), ("rp2-6", "t2-7"), ("t2-7", "t2-7"), ("rp3", "rp3")]},
    "sus(rp2-6)": lambda: suspension(corpus("rp2-6").complex()),
    "sus(sus(rp2-6))": lambda: suspension(suspension(corpus("rp2-6").complex())),
}


@pytest.mark.parametrize("name", list(LOCAL_FORMULA_INPUTS))
def test_all_ones_chains_match_the_flag_reference(name):
    X = LOCAL_FORMULA_INPUTS[name]()
    assert all_ones_chains(X) == ref_all_ones_chains(barycentric_subdivide(X))


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_all_ones_chains_under_relabeling_and_subdivision(entries, name, data):
    """The last-vertex image depends on the vertex order through the gap
    rule.  After at most one subdivision and any relabeling onto scattered
    labels, the local formula still equals the flag reference, and the
    report keeps the entry's invariants."""
    entry = entries[name]
    X = entry.complex()
    # sd(rp3) has 4608 facets, too many for the flag reference in tier-1
    if name != "rp3" and data.draw(st.booleans(), label="subdivide"):
        X = build_complex(barycentric_subdivide(X).derived.facets)
    n = X.n_simplices(0)
    X, _ = relabeled(X, data.draw(st.permutations(range(3 * n)), label="labels")[:n])
    assert all_ones_chains(X) == ref_all_ones_chains(barycentric_subdivide(X))
    report = compute_report(X)
    assert report.betti == entry.betti
    assert tuple(row.class_nonzero for row in report.rows) == entry.sw_pattern
    assert report.all_matched and report.pairing_ok


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_compute_report_computes_the_fundamental_cycle_once(monkeypatch, name):
    """wu_classes checks the fundamental cycle; the report reuses it."""
    from swlab import oracle, pipeline

    calls = []

    def counting(X):
        calls.append(X)
        return oracle_fundamental_cycle(X)

    oracle_fundamental_cycle = oracle.fundamental_cycle
    monkeypatch.setattr(oracle, "fundamental_cycle", counting)
    monkeypatch.setattr(pipeline, "fundamental_cycle", counting, raising=False)
    X = corpus(name).complex()
    assert compute_report(X).all_matched
    assert calls == [X]


def test_compute_report_stays_on_the_base(monkeypatch):
    """No subdivision, no derived complex, no subdivision chain map, and
    homology of K only."""
    def refuse(*args):
        raise AssertionError("compute_report reached into the derived complex")

    seen = []

    def recording(complex):
        seen.append(complex)
        return mod2_homology(complex)

    monkeypatch.setattr(SubdividedComplex, "__init__", refuse)
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


@pytest.mark.parametrize("name", (*CORPUS_NAMES, "sd(klein)"))
def test_a_report_leaves_no_cyclic_garbage(name):
    """With the collector disabled, a report on a fresh complex and then
    `del K`: a full collection finds no SimplicialComplex, so reference
    counting alone frees the complex with its tables and its cohomology
    pass.  The collector's state is restored afterwards."""
    if name == "sd(klein)":
        K = barycentric_subdivide(corpus("klein").complex()).derived
    else:
        K = corpus(name).complex()
    enabled, debug, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        compute_report(K)
        del K
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage[saved:]
                  if isinstance(o, SimplicialComplex)]
    finally:
        gc.set_debug(debug)
        del gc.garbage[saved:]
        if enabled:
            gc.enable()
    assert leaked == []


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


def connected_sum(X, Y):
    """X # Y: drop the first facet of each complex, shift Y's vertices past
    X's, and glue the dropped facet of Y onto that of X, vertex by vertex."""
    a, b = X.facets[0], Y.facets[0]
    shift = max(X.vertices()) + 1
    glue = dict(zip(b, a))
    moved = [tuple(sorted(glue.get(v, v + shift) for v in f)) for f in Y.facets[1:]]
    return build_complex(list(X.facets[1:]) + moved)


@pytest.mark.parametrize("left,right,betti,pattern", [
    # below the top degree w_i(M # N) = w_i(M) + w_i(N) in H^i(M) + H^i(N);
    # w2 of a surface is its Euler characteristic mod 2, so rp2 # rp2 (the
    # Klein bottle) has w2 = 0
    ("rp2-6", "rp2-6", (1, 2, 1), (True, True, False)),
    ("rp2-6", "t2-7", (1, 3, 1), (True, True, True)),
    ("t2-7", "t2-7", (1, 4, 1), (True, False, False)),
    ("rp3", "rp3", (1, 2, 2, 1), (True, False, False, False)),
])
def test_connected_sums(left, right, betti, pattern):
    X = connected_sum(corpus(left).complex(), corpus(right).complex())
    report = compute_report(X)
    assert report.betti == betti
    assert tuple(row.class_nonzero for row in report.rows) == pattern
    assert report.all_matched


def partitions(n, largest):
    """The partitions of n into parts of at most `largest`, each as its
    parts in non-increasing order."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# name: (complex, the partitions I of n with <w_I, [M]> = 1), where I =
# (i, j, ...) stands for the number of w_i w_j ...  Closed forms from Milnor
# and Stasheff, Characteristic Classes, section 4: the numbers of a boundary
# vanish, and s2, t2-7, s3, rp3 and s2 x s2 bound; the numbers add under #,
# so klein = rp2 # rp2 has none and rp2 # t2-7 has those of rp2;
# w(RP^n) = (1 + a)^(n+1), so RP^2 has w_2 = w_1^2 = a^2 and RP^4 has
# w_4 = w_1^4 = a^4 with w_2 = w_3 = 0; and by the Whitney product formula
# w(rp2 x rp2) = (1 + a + a^2)(1 + b + b^2), whose only nonzero numbers are
# w_4 = w_2^2 = a^2 b^2.
RP2 = {(2,), (1, 1)}
TOP_NUMBER_INPUTS = {
    **{name: (lambda name=name: corpus(name).complex(), RP2 if name == "rp2-6" else set())
       for name in CORPUS_NAMES},
    "s2xs2": (lambda: product(corpus("s2").complex(), corpus("s2").complex()), set()),
    "rp2-6#t2-7": (lambda: connected_sum(corpus("rp2-6").complex(),
                                         corpus("t2-7").complex()), RP2),
    "rp2": (lambda: build_complex(_rpn_facets(2)), RP2),
    "rp4": (lambda: build_complex(_rpn_facets(4)), {(4,), (1, 1, 1, 1)}),
    "rp2-6xrp2-6": (lambda: product(corpus("rp2-6").complex(), corpus("rp2-6").complex()),
                    {(4,), (2, 2)}),
}


@pytest.mark.parametrize("name", list(TOP_NUMBER_INPUTS))
def test_top_stiefel_whitney_number_is_the_euler_characteristic(name):
    """A third witness, read off the complex and not off the dual cells:
    the Wu oracle's top class paired with the fundamental cycle,
    <w_n, [M]>, is chi(M) mod 2 (the top class reduces the Euler class;
    Milnor and Stasheff, Characteristic Classes, Cor. 11.12), and every
    Stiefel-Whitney number <w_I, [M]>, the w cocycles cupped over a
    partition I of n and paired with the fundamental cycle, matches its
    closed form."""
    build, numbers = TOP_NUMBER_INPUTS[name]
    X = build()
    chi_mod_2 = int((X.dim,) in numbers)
    assert X.euler_characteristic() % 2 == chi_mod_2
    order = VertexOrder.numeric(X)
    w = [c.cocycle for c in wu_classes(X).w]
    gamma = fundamental_cycle(X)
    nonzero = set()
    for parts in partitions(X.dim, X.dim):
        w_I = reduce(lambda a, b: cup(X, order, a, b), (w[i] for i in parts))
        if w_I.pairing(gamma):
            nonzero.add(parts)
    assert nonzero == numbers


def stellar_move(X, facet):
    """The 1 -> (n+1) bistellar move: replace `facet` by the cone from a new
    vertex over its boundary."""
    apex = max(X.vertices()) + 1
    cone = [tuple(v for v in facet if v != u) + (apex,) for u in facet]
    return build_complex([f for f in X.facets if f != facet] + cone)


def edge_flip(X, edge):
    """The 2 -> 2 move on a closed surface: swap the edge ab shared by the
    triangles abc and abd for cd, unless cd is already an edge."""
    pair = X.cofacets(edge)
    c, d = (next(v for v in f if v not in edge) for f in pair)
    if X.contains((c, d)):
        return X
    a, b = edge
    flipped = [tuple(sorted((a, c, d))), tuple(sorted((b, c, d)))]
    return build_complex([f for f in X.facets if f not in pair] + flipped)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_report_invariant_under_bistellar_moves(entries, reports, name, data):
    """Random stellar moves on facets, and edge flips on surfaces, keep the
    Betti numbers, the class pattern, the match and the pairing."""
    X = entries[name].complex()
    for _ in range(data.draw(st.integers(1, 4), label="moves")):
        if X.dim == 2 and data.draw(st.booleans(), label="flip"):
            X = edge_flip(X, data.draw(st.sampled_from(X.skeleton(1)), label="edge"))
        else:
            X = stellar_move(X, data.draw(st.sampled_from(X.facets), label="facet"))
    assert all_ones_chains(X) == ref_all_ones_chains(barycentric_subdivide(X))
    report, expected = compute_report(X), reports[name]
    assert report.betti == expected.betti
    assert [row.class_nonzero for row in report.rows] \
        == [row.class_nonzero for row in expected.rows]
    assert report.all_matched and report.pairing_ok


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


# sha256 of json.dumps(report.as_dict(), sort_keys=True) for each corpus
# entry and the derived complex of each entry but rp3, frozen before the Wu
# oracle dropped its shuffled vertex orders; a refactor of the combinatorial
# layer must leave every report byte unchanged
REPORT_SHA256 = {
    "s2": "5844456f6b6abca3b01e5c79c69046cf12ea0513438f3c35b3a3953e0c9f1af7",
    "rp2-6": "84eefa276b2328adfb9a342e47a2ef635b05cc422575664350776c55b63a5b6d",
    "t2-7": "013509d8333434dad56e66b03bf9987cc139cf65200f3564d6df4102f1b94d33",
    "klein": "094508c4aba07b9d17ca4d4fb18e26be03e8ecee5b9ca87c6da2dad0fc52e40b",
    "s3": "13fd6b7bcecf9a709b7460e570843bd48f1fcf915cabdcf77ef6a450d0adcaf4",
    "rp3": "0c275922f3bfcb96ee597450ec9203c13dbd957bd8c84d3d5e1cc6e5978a0ccf",
    "sd(s2)": "f11d1908df439d20011348a877bd2d36174dba2ca7f1a9f3cbfdbaaad770f3c5",
    "sd(rp2-6)": "319b99292da3648b4db13c1d8018e1d2c4f658666f640451ac0c0aee66794b71",
    "sd(t2-7)": "8714f926b969d273dd82b1da04eb18d1d315ffa7b2bbb88d93ed7262ea17a8b2",
    "sd(klein)": "5ef89f2f9c708ecf3a253e86e6942702072d13094a8cc96fb06dbb7918499d9b",
    "sd(s3)": "fe2546e6e0463bd5fc4ae402aa1ae042b95e063aa0489df555e1c22fcfc3c81e",
}


@pytest.mark.parametrize("name", list(REPORT_SHA256))
def test_report_bytes_are_frozen(name):
    X = corpus(name.removeprefix("sd(").removesuffix(")")).complex()
    if name.startswith("sd("):
        X = barycentric_subdivide(X).derived
    text = json.dumps(compute_report(X).as_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]


# sha256 of the report `swlab classes rp4.facets --report OUT` writes for
# the RP4 of `_rpn_facets(4)`, frozen when the report's faces moved from
# vertex tuples to facet tables, which left every report byte unchanged
RP4_REPORT_SHA256 = "49e3e8ce89eef2d90e1af5381b6d7032f746f09d8d2f86a21f1494f5ba2f9409"


@pytest.mark.slow
def test_rp4_report_bytes_are_frozen():
    X = build_complex(_rpn_facets(4))
    sha = hashlib.sha256(serialize_complex(X).encode()).hexdigest()
    payload = cli._report_payload("rp4.facets", sha, compute_report(X))
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == RP4_REPORT_SHA256


@pytest.mark.slow
def test_rp4_completes_under_512_mib(tmp_path):
    # w(RP4) = (1 + a)^5 = 1 + a + a^4: zero classes between nonzero ones
    X = build_complex(_rpn_facets(4))
    assert X.f_vector == (121, 1320, 4080, 4800, 1920)
    payload = _classes_under_512_mib(X, tmp_path)
    assert payload["betti"] == [1, 1, 1, 1, 1]
    assert _rows(payload) == [(True, True), (True, True), (False, True),
                              (False, True), (True, True)]
    assert payload["diagnostics"]["pairing_ok"] is True
