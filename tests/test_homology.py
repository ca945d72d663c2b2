from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_gf2 import dense, dense_rank

from swlab.errors import DimensionMismatch, DimensionOutOfRange, NotACocycle, NotACycle
from swlab.corpus import corpus
from swlab.gf2 import BitMatrix, EchelonBasis
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


def test_summary_is_cached_per_complex(monkeypatch):
    """The cohomology pass runs once per complex: two summaries of X share
    the complex's one per-degree list, and a second betti_vector reduces
    no coboundary."""
    X = build_complex(S2_FACETS)
    first, second = mod2_homology(X), mod2_homology(X)
    assert first.betti_vector == (1, 0, 1)
    degrees = list(X._cohomology)
    reduced = []
    tagged_reduction = BitMatrix.tagged_reduction

    def recording(self, *args):
        reduced.append(self)
        return tagged_reduction(self, *args)

    monkeypatch.setattr(BitMatrix, "tagged_reduction", recording)
    assert second.betti_vector == (1, 0, 1)
    assert not reduced
    assert len(degrees) == len(X._cohomology) == 3
    assert all(a is b for a, b in zip(X._cohomology, degrees))
    assert all(first.cohomology_basis(d) is second.cohomology_basis(d) for d in range(3))


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


CLEARING_INPUTS = {
    "s2": lambda: build_complex(S2_FACETS),
    "torus": lambda: build_complex(TORUS_FACETS),
    "rp3": lambda: corpus("rp3").complex(),
}


@pytest.mark.parametrize("name", list(CLEARING_INPUTS))
def test_pass_reduces_each_coboundary_once_over_its_kept_columns(monkeypatch, name):
    """Clearing: in degree d the pass inserts the n_d - rank delta_{d-1}
    columns of delta_d that are no pivot of im delta_{d-1}, in one tagged
    reduction, and later Betti and class queries insert nothing."""
    X = CLEARING_INPUTS[name]()
    n = X.dim
    reducing, inserts = [], []   # the matrix under reduction at each insert
    tagged, insert = BitMatrix.tagged_reduction, EchelonBasis.insert

    def counting_tagged(self, kept=None):
        reducing.append(self)
        try:
            return tagged(self, kept)
        finally:
            reducing.pop()

    def counting_insert(self, v):
        inserts.append(reducing[-1] if reducing else None)
        return insert(self, v)

    monkeypatch.setattr(BitMatrix, "tagged_reduction", counting_tagged)
    monkeypatch.setattr(EchelonBasis, "insert", counting_insert)
    H = mod2_homology(X)
    betti = H.betti_vector
    # delta_n maps into the zero group: the pass reduces an empty-row matrix
    deltas = [X.coboundary_matrix(d) for d in range(n)]
    per_degree = [sum(m is delta for m in inserts) for delta in deltas]
    per_degree.append(sum(m is not None and m.rows == 0 for m in inserts))
    # the rest are the representatives' insertions into the transcripts
    assert inserts.count(None) == sum(betti)
    assert len(inserts) == sum(per_degree) + sum(betti)

    inserts.clear()
    assert H.betti_vector == betti
    for d in range(-1, n + 2):
        H.betti(d), H.coboundary_image_basis(d)
        for bits in H.cohomology_basis(d):
            H.cohomology_coordinates(Chain(X, d, bits))
    H.homology_coordinates(Chain.all_ones(X, n))
    assert inserts == []

    monkeypatch.undo()
    ranks = [0] + [X.boundary_matrix(d).rank() for d in range(1, n + 1)]
    assert per_degree == [X.n_simplices(d) - ranks[d] for d in range(n + 1)]


SIMPLEX_FACES = [face for k in range(1, 7) for face in combinations(range(6), k)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(SIMPLEX_FACES), min_size=1, max_size=6, unique=True))
@example([(0,), (2,), (5,)])
@example([(0, 1, 2), (2, 3), (4,)])
@example([(0, 1, 2, 3), (2, 4, 5), (1, 5)])
@example([(0, 1, 2, 3, 4, 5)])
def test_pass_matches_the_dense_reference(facets):
    """Any subcomplex of the 5-simplex, pure or not, connected or not: each
    coboundary matrix is the dense incidence of the faces, zero columns of
    maximal simplices included, and each boundary matrix its transpose;
    chain boundaries and coboundaries are the dense products; Betti
    numbers come from dense ranks, the representatives are cocycles
    independent modulo the image, and the image spans the row space of the
    boundary."""
    X = build_complex(facets)
    H = HomologySummary(X)
    n = X.dim
    rng = random.Random(repr(facets))
    deltas = []   # dense delta_d: rows = (d+1)-simplices, columns = d-simplices
    for d in range(n + 1):
        up = X.skeleton(d + 1) if d < n else ()
        want = np.zeros((len(up), X.n_simplices(d)), dtype=np.int64)
        for j, t in enumerate(up):
            for face in combinations(t, len(t) - 1):
                want[j, X.index(face)] = 1
        delta = X.coboundary_matrix(d)
        assert (delta.rows, delta.cols) == want.shape, (facets, d)
        assert (dense(delta) == want).all(), (facets, d)
        assert all(delta.columns[X.index(f)] == 0 for f in X.facets if len(f) == d + 1)
        if d:
            assert (dense(X.boundary_matrix(d)) == deltas[d - 1].T).all(), (facets, d)
        deltas.append(want)
    for d in range(n + 1):
        n_d = X.n_simplices(d)
        for bits in (0, (1 << n_d) - 1, rng.getrandbits(n_d), rng.getrandbits(n_d)):
            x = np.array([bits >> i & 1 for i in range(n_d)], dtype=np.int64)
            products = [(Chain(X, d, bits).coboundary(), deltas[d] @ x)]
            if d:
                products.append((Chain(X, d, bits).boundary(), deltas[d - 1].T @ x))
            for chain, want in products:
                assert chain.bits == sum(int(b) % 2 << i for i, b in enumerate(want)), (facets, d)
    for d in (-1, n + 1):
        with pytest.raises(DimensionOutOfRange):
            X.coboundary_matrix(d)
    # rank[k] = rank of boundary_k = rank of delta_{k-1}; zero at 0 and n + 1
    rank = [0] + [dense_rank(dense(X.boundary_matrix(k))) for k in range(1, n + 1)] + [0]
    for d in range(n + 1):
        n_d = X.n_simplices(d)
        assert H.betti(d) == n_d - rank[d] - rank[d + 1], (facets, d)
        reps = H.cohomology_basis(d)
        assert all(Chain(X, d, z).coboundary().is_zero() for z in reps)
        image = H.coboundary_image_basis(d)
        assert image.rank == rank[d]
        vectors = reps + list(image.by_pivot.values())
        assert dense_rank(dense(BitMatrix(n_d, len(vectors), vectors))) == H.betti(d) + rank[d]
        reference = X.boundary_matrix(d).row_space() if d else EchelonBasis(n_d)
        if d <= 1:
            # delta_0 has no cleared column: the same reduction, bit for bit
            assert image.by_pivot == reference.by_pivot
        # above, a cleared column hands its pivot to a later one: the
        # pivots and the span are the same, the pivot vectors may not be
        assert image.by_pivot.keys() == reference.by_pivot.keys()
        assert all(reference.contains(v) for v in image.by_pivot.values())
    for d in (-1, n + 1):
        assert H.betti(d) == 0 and H.cohomology_basis(d) == []
        assert H.coboundary_image_basis(d).rank == 0
        assert H.cohomology_coordinates(Chain(X, d, 0)) == 0


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
        H.check_cocycle(edge, which="probe")
    # the coboundary of one edge is its cofacets: the first is the first odd one
    first = X.cofacets(X.skeleton(1)[0])[0]
    assert (alone.value.which, alone.value.failed_simplex) == ("probe", first)
    # the second cochain is checked through the sum: same cofacet, its own label
    cofacet = str(alone.value).split("coboundary ", 1)[1]
    for pair, label in (((edge, Chain(X, 1, 0)), "first"), ((Chain(X, 1, 0), edge), "second")):
        with pytest.raises(NotACocycle) as err:
            H.same_cocycle_class(*pair)
        assert str(err.value) == f"{label} cocycle has nonzero coboundary {cofacet}"
        assert (err.value.which, err.value.failed_simplex) == (f"{label} cocycle", first)
