from __future__ import annotations

import random

import numpy as np
import pytest

from swlab.errors import DimensionMismatch, NotACocycle, NotACycle
from swlab.gf2 import EchelonBasis
from swlab.homology import HomologySummary, mod2_homology
from swlab.simplicial import Chain, build_complex
from swlab.subdivision import barycentric_subdivide

S2_FACETS = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
TORUS_FACETS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] \
    + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]


def test_betti_of_sphere_and_torus():
    assert mod2_homology(build_complex(S2_FACETS)).betti_vector == (1, 0, 1)
    assert mod2_homology(build_complex(TORUS_FACETS)).betti_vector == (1, 2, 1)


def test_betti_out_of_range_is_zero():
    H = mod2_homology(build_complex(S2_FACETS))
    assert H.betti(-1) == 0
    assert H.betti(5) == 0


def test_euler_characteristic_equals_betti_alternation(entries):
    for entry in entries.values():
        X = entry.complex()
        H = mod2_homology(X)
        chi = sum((-1) ** d * b for d, b in enumerate(H.betti_vector))
        assert chi == X.euler_characteristic()
        assert H.betti_vector == entry.betti


def test_summary_is_cached_per_complex():
    X = build_complex(S2_FACETS)
    assert mod2_homology(X) is mod2_homology(X)


def test_cycle_checks_and_messages():
    X = build_complex(S2_FACETS)
    H = mod2_homology(X)
    gamma = Chain.all_ones(X, 2)
    assert H.is_cycle(gamma)
    H.check_cycle(gamma)
    not_cycle = Chain.from_simplices(X, 1, [(0, 1)])
    assert not H.is_cycle(not_cycle)
    with pytest.raises(NotACycle) as err:
        H.check_cycle(not_cycle, which="probe")
    assert err.value.which == "probe"
    assert err.value.failed_simplex in X.skeleton(0)


def test_class_queries_on_sphere():
    X = build_complex(S2_FACETS)
    H = mod2_homology(X)
    gamma = Chain.all_ones(X, 2)
    assert not H.class_is_zero(gamma)
    # a 1-cycle on a sphere always bounds
    tri = Chain.from_simplices(X, 1, [(0, 1), (1, 2), (0, 2)])
    assert H.class_is_zero(tri)


def test_same_class_modulo_boundaries():
    X = build_complex(TORUS_FACETS)
    H = mod2_homology(X)
    rng = np.random.default_rng(0)
    basis = H.cycle_basis(1)
    z = Chain(X, 1, basis[0])
    for _ in range(25):
        spoiler = Chain(X, 2, int(rng.integers(0, 1 << X.n_simplices(2))))
        moved = z ^ spoiler.boundary()
        assert H.same_class(z, moved)
    assert H.same_class(z, z)


def test_same_class_distinguishes_generators():
    X = build_complex(TORUS_FACETS)
    H = mod2_homology(X)
    reps = [Chain(X, 1, bits) for bits in H.cycle_basis(1)
            if not H.class_is_zero(Chain(X, 1, bits))]
    pairs = [(a, b) for a in reps for b in reps if not H.same_class(a, b)]
    assert pairs, "torus has at least two independent 1-classes"


def test_cocycle_checks():
    X = build_complex(S2_FACETS)
    H = mod2_homology(X)
    ones_top = Chain.all_ones(X, 2)
    assert H.is_cocycle(ones_top)
    vertex = Chain.from_simplices(X, 0, [(0,)])
    assert not H.is_cocycle(vertex)
    with pytest.raises(NotACocycle):
        H.check_cocycle(vertex)


def test_cocycle_class_queries():
    X = build_complex(TORUS_FACETS)
    H = mod2_homology(X)
    rng = np.random.default_rng(1)
    reps = H.cohomology_basis(1)
    assert len(reps) == 2
    for bits in reps:
        a = Chain(X, 1, bits)
        assert H.is_cocycle(a)
        assert not H.cocycle_class_is_zero(a)
        for _ in range(10):
            below = Chain(X, 0, int(rng.integers(0, 1 << X.n_simplices(0))))
            assert H.same_cocycle_class(a, a ^ below.coboundary())


def test_cohomology_basis_sizes_match_betti(entries):
    for entry in entries.values():
        X = entry.complex()
        H = mod2_homology(X)
        for d in range(X.dim + 1):
            assert len(H.cohomology_basis(d)) == H.betti(d)


def test_transcript_leaves_no_representative_in_the_rest_of_the_basis(entries):
    # the transcript stops inserting at betti(d) representatives; the
    # guard that it found them all is this test: inserting every cocycle
    # basis vector into a copy finds no new representative and no new pivot
    for name, entry in entries.items():
        X = entry.complex()
        H = mod2_homology(X)
        for d in range(X.dim + 1):
            reps, transcript = H._transcript(d)
            ncols = transcript.ncols
            full = EchelonBasis(ncols, dict(transcript.by_pivot))
            for z in H.cocycle_basis(d):
                assert not full.insert(z | 1 << (ncols + len(reps))) & ((1 << ncols) - 1), (name, d)
            assert full.by_pivot == transcript.by_pivot, (name, d)


def test_transcript_stops_at_betti(monkeypatch):
    # s2: nothing is reduced in degree 1 (betti 0), and in degree 2 the
    # first unit cocycle is already a representative
    calls = {"cocycle_basis": [], "insert": 0}
    cocycle_basis, insert = HomologySummary.cocycle_basis, EchelonBasis.insert

    def counting_cocycle_basis(self, d):
        calls["cocycle_basis"].append(d)
        return cocycle_basis(self, d)

    def counting_insert(self, v):
        calls["insert"] += 1
        return insert(self, v)

    H = mod2_homology(build_complex(S2_FACETS))
    # the image bases are reductions of their own, made before counting
    for d in range(3):
        H.betti(d), H.coboundary_image_basis(d)
    monkeypatch.setattr(HomologySummary, "cocycle_basis", counting_cocycle_basis)
    monkeypatch.setattr(EchelonBasis, "insert", counting_insert)
    assert H.cohomology_basis(1) == []
    assert calls == {"cocycle_basis": [], "insert": 0}
    assert H.cohomology_basis(2) == [1]
    assert calls == {"cocycle_basis": [2], "insert": 1}


def test_kernel_bases_are_reduced_once(monkeypatch):
    # the kernel vectors are cached on the boundary matrix; each call hands
    # out its own list, so a caller's edit cannot reach the cache
    X = build_complex(TORUS_FACETS)
    H = mod2_homology(X)
    cocycles, cycles = H.cocycle_basis(1), H.cycle_basis(1)
    inserts = []
    insert = EchelonBasis.insert
    monkeypatch.setattr(EchelonBasis, "insert",
                        lambda self, v: inserts.append(v) or insert(self, v))
    again = H.cocycle_basis(1)
    assert again == cocycles and again is not cocycles
    again.clear()
    assert H.cocycle_basis(1) == cocycles
    assert H.cycle_basis(1) == cycles
    assert inserts == []


def test_top_cocycle_basis_is_unit_vectors():
    X = build_complex(S2_FACETS)
    H = mod2_homology(X)
    assert H.cocycle_basis(2) == [1 << i for i in range(X.n_simplices(2))]


def test_image_bases_contain_only_trivial_classes():
    X = build_complex(TORUS_FACETS)
    H = mod2_homology(X)
    for bits in H.boundary_image_basis(1).by_pivot.values():
        assert H.class_is_zero(Chain(X, 1, bits))
    for bits in H.coboundary_image_basis(1).by_pivot.values():
        assert H.cocycle_class_is_zero(Chain(X, 1, bits))


def test_cross_complex_queries_rejected():
    X = build_complex(S2_FACETS)
    Y = build_complex(S2_FACETS)
    H = mod2_homology(X)
    with pytest.raises(DimensionMismatch):
        H.class_is_zero(Chain.all_ones(Y, 2))


def _random_sum(rng, vectors):
    """The GF(2) sum of a random subset of the vectors."""
    total = 0
    for v in vectors:
        if rng.random() < 0.5:
            total ^= v
    return total


@pytest.mark.parametrize("subdivided", [False, True], ids=["base", "sd"])
def test_class_queries_agree_with_the_image_bases(entries, subdivided):
    """All four class queries read coordinates over the cohomology basis.
    The old route, membership in the image basis of a boundary or of a
    coboundary, is the reference: on every entry and its first subdivision,
    over random boundaries and coboundaries, random sums of cycle basis
    vectors and of cohomology representatives, and both shifted within their
    class."""
    rng = random.Random(12)
    for name, entry in entries.items():
        X = entry.complex()
        if subdivided:
            X = build_complex(barycentric_subdivide(X).derived.facets)
        H = mod2_homology(X)
        for d in range(X.dim + 1):
            below = [rng.getrandbits(X.n_simplices(d + 1)) for _ in range(4)]
            boundaries = [Chain(X, d + 1, bits).boundary() for bits in below]
            basis = H.cycle_basis(d)
            cycles = [Chain(X, d, _random_sum(rng, basis)) for _ in range(6)]
            cycles += boundaries + [z ^ b for z in cycles for b in boundaries[:2]]
            image = H.boundary_image_basis(d)
            for z in cycles:
                assert H.class_is_zero(z) == image.contains(z.bits), (name, d)
            for z1, z2 in zip(cycles, cycles[1:] + cycles[:1]):
                assert H.same_class(z1, z2) == image.contains(z1.bits ^ z2.bits), (name, d)
            assert all(H.class_is_zero(b) for b in boundaries)

            above = [rng.getrandbits(X.n_simplices(d - 1)) if d else 0 for _ in range(4)]
            coboundaries = [Chain(X, d - 1, bits).coboundary() if d else Chain(X, 0, 0)
                            for bits in above]
            reps = H.cohomology_basis(d)
            cocycles = [Chain(X, d, _random_sum(rng, reps)) for _ in range(6)]
            cocycles += coboundaries + [a ^ b for a in cocycles for b in coboundaries[:2]]
            coimage = H.coboundary_image_basis(d)
            for a in cocycles:
                assert H.cocycle_class_is_zero(a) == coimage.contains(a.bits), (name, d)
            for a1, a2 in zip(cocycles, cocycles[1:] + cocycles[:1]):
                assert (H.same_cocycle_class(a1, a2)
                        == coimage.contains(a1.bits ^ a2.bits)), (name, d)
            assert all(H.cocycle_class_is_zero(b) for b in coboundaries)


def test_homology_coordinates_are_dual_to_the_cohomology_basis(entries):
    """Over GF(2), H_d is the dual of H^d: the pairings of the cycles with
    the cohomology representatives reach every coordinate vector, and they
    vanish exactly on boundaries."""
    for name, entry in entries.items():
        X = entry.complex()
        H = mod2_homology(X)
        for d in range(X.dim + 1):
            coords = [H.homology_coordinates(Chain(X, d, bits)) for bits in H.cycle_basis(d)]
            span = EchelonBasis(H.betti(d))
            for c in coords:
                span.insert(c)
            assert span.rank == H.betti(d), (name, d)
        assert H.homology_coordinates(Chain.all_ones(X, X.dim)) == 1, name


def test_homology_coordinates_reject_a_chain_that_is_not_a_cycle():
    X = build_complex(TORUS_FACETS)
    H = mod2_homology(X)
    edge = Chain.from_simplices(X, 1, [X.skeleton(1)[0]])
    with pytest.raises(NotACycle) as err:
        H.homology_coordinates(edge, which="probe")
    assert err.value.which == "probe"
    with pytest.raises(NotACycle):
        H.same_class(Chain(X, 1, 0), edge)
    with pytest.raises(NotACocycle) as alone:
        H.check_cocycle(edge)
    # the second cochain is checked through the sum: same cofacet, its own label
    cofacet = str(alone.value).split("coboundary ", 1)[1]
    for pair, label in (((edge, Chain(X, 1, 0)), "first"), ((Chain(X, 1, 0), edge), "second")):
        with pytest.raises(NotACocycle) as err:
            H.same_cocycle_class(*pair)
        assert str(err.value) == f"{label} cocycle has nonzero coboundary {cofacet}"
