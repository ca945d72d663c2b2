from __future__ import annotations

from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swlab.corpus import CORPUS_NAMES, _rpn_facets, corpus

from swlab.errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    MalformedFacet,
    SimplexNotInComplex,
)
from swlab.simplicial import (
    Chain,
    PseudomanifoldReport,
    SimplicialComplex,
    build_complex,
    canonical_simplex,
)
from swlab.subdivision import barycentric_subdivide

S2_FACETS = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def sphere2():
    return build_complex(S2_FACETS)


def test_canonical_simplex_sorts_and_validates():
    assert canonical_simplex([3, 1, 2]) == (1, 2, 3)
    assert canonical_simplex((5,)) == (5,)
    with pytest.raises(MalformedFacet):
        canonical_simplex([1, 1, 2])
    with pytest.raises(MalformedFacet):
        canonical_simplex([])
    with pytest.raises(MalformedFacet):
        canonical_simplex([0, -2])


def test_build_complex_closes_under_faces():
    X = sphere2()
    assert X.dim == 2
    assert X.f_vector == (4, 6, 4)
    assert X.euler_characteristic() == 2
    for facet in X.facets:
        assert len(facet) == 3
    assert X.contains((1, 3))
    assert X.contains((2,))
    assert not X.contains((0, 4))


def test_facets_are_maximal_only():
    # a triangle with a dangling edge: the edge is maximal, its faces not
    X = build_complex([(0, 1, 2), (2, 3)])
    assert set(X.facets) == {(0, 1, 2), (2, 3)}
    # an isolated vertex is a facet too; facets come in (len, s) order
    X = build_complex([(0, 1, 2), (2, 3), (4,)])
    assert X.facets == ((4,), (2, 3), (0, 1, 2))


def _reference_closure(facets):
    """Skeletons, indexes, facets and facet tables of the downward closure,
    each from its definition: all k-subsets of the facets, sorted; the
    simplices that are no face of a simplex one dimension up; and each
    simplex with vertex k sliced out, looked up in the skeleton below."""
    size = max(map(len, facets), default=0)
    skeletons = [tuple(sorted(set(chain.from_iterable(combinations(f, k) for f in facets))))
                 for k in range(1, size + 1)]
    index = [{s: i for i, s in enumerate(sk)} for sk in skeletons]
    maximal = []
    for d, sk in enumerate(skeletons):
        covered = {s[:k] + s[k + 1:] for s in skeletons[d + 1] for k in range(d + 2)} \
            if d + 1 < size else set()
        maximal.extend(s for s in sk if s not in covered)
    tables = [tuple(tuple(index[d - 1][s[:k] + s[k + 1:]] for s in skeletons[d])
                    for k in range(d + 1)) for d in range(1, size)]
    return skeletons, index, tuple(maximal), tables


def _assert_closure_matches_reference(facets):
    X = SimplicialComplex.from_canonical_facets(facets)
    skeletons, index, maximal, tables = _reference_closure(facets)
    assert [X.skeleton(d) for d in range(X.dim + 1)] == skeletons
    assert list(X._index) == index
    assert X.facets == maximal
    assert [X.facet_table(d) for d in range(1, X.dim + 1)] == tables


@st.composite
def impure_facet_lists(draw):
    """Canonical facets of mixed sizes, some listed twice, with faces of
    listed facets (redundant) and lone vertices (isolated) among them."""
    simplices = st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)
    facets = [tuple(sorted(f)) for f in draw(st.lists(simplices, min_size=1, max_size=10))]
    for f in draw(st.lists(st.sampled_from(facets), max_size=4)):
        facets.append(tuple(sorted(draw(st.lists(st.sampled_from(f), min_size=1,
                                                 unique=True)))))
    facets += draw(st.lists(st.tuples(st.integers(10, 12)), max_size=2))
    return draw(st.permutations(facets))


@settings(max_examples=200, deadline=None)
@given(impure_facet_lists())
@example([])
@example([(0,)])
@example([(0, 1), (1,), (2,), (0, 1)])
def test_closure_matches_the_reference_closure(facets):
    _assert_closure_matches_reference(facets)


@pytest.mark.slow
@pytest.mark.parametrize("n", (4, 5))
def test_closure_of_rpn_matches_the_reference_closure(n):
    _assert_closure_matches_reference(_rpn_facets(n))


def test_skeleton_and_counts():
    X = sphere2()
    assert X.skeleton(1) == tuple(sorted(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    assert X.n_simplices(0) == 4
    assert X.n_simplices(5) == 0
    assert X.n_simplices(-1) == 0
    with pytest.raises(DimensionOutOfRange):
        X.skeleton(3)


def test_index_and_membership_errors():
    X = sphere2()
    assert X.skeleton(1)[X.index((0, 2))] == (0, 2)
    with pytest.raises(SimplexNotInComplex):
        X.index((0, 4))


def scanned_ridge_table(X):
    """{ridge: {facet: other facet}} from a scan of the top simplices."""
    around = {}
    for f in X.skeleton(X.dim):
        for r in combinations(f, X.dim):
            around.setdefault(r, []).append(f)
    return {r: {a: b, b: a} for r, (a, b) in around.items()}


def test_cofacets(entries):
    X = sphere2()
    assert set(X.cofacets((0, 1))) == {(0, 1, 2), (0, 1, 3)}
    assert set(X.cofacets((2,))) == {(0, 2), (1, 2), (2, 3)}
    # a triangle plus a loose edge: the edge is a facet below the top
    impure = build_complex([(0, 1, 2), (2, 3)])
    for X in [entry.complex() for entry in entries.values()] + [impure]:
        for s in X.simplices():
            d = len(s) - 1
            up = X.skeleton(d + 1) if d < X.dim else ()
            assert X.cofacets(s) == tuple(t for t in up if set(s) < set(t)), s
    assert impure.cofacets((2, 3)) == ()
    assert impure.cofacets((1, 0, 2)) == ()
    assert impure.cofacets((3, 2)) == ()
    with pytest.raises(SimplexNotInComplex):
        impure.cofacets((1, 3))
    with pytest.raises(SimplexNotInComplex):
        impure.cofacets((0, 1, 2, 3))
    with pytest.raises(MalformedFacet):
        impure.cofacets((2, 2))
    rp2_sd = barycentric_subdivide(corpus("rp2-6").complex()).derived
    for X in [entry.complex() for entry in entries.values()] + [rp2_sd]:
        table = scanned_ridge_table(X)
        assert set(table) == set(X.skeleton(X.dim - 1))
        for ridge, swap in table.items():
            assert X.cofacets(ridge) == tuple(swap), ridge


def test_link_of_vertex_in_sphere_is_circle():
    X = sphere2()
    link = X.link((0,))
    assert link.dim == 1
    assert link.f_vector == (3, 3)
    assert link.euler_characteristic() == 0


def test_boundary_matrix_squares_to_zero():
    X = sphere2()
    d1 = X.boundary_matrix(1)
    d2 = X.boundary_matrix(2)
    assert d1.matmul(d2).is_zero()


def test_pseudomanifold_detection():
    assert sphere2().is_closed_pseudomanifold().passed
    open_disk = build_complex([(0, 1, 2)])
    report = open_disk.is_closed_pseudomanifold()
    assert not report.passed
    # two triangles sharing only a vertex: not strongly connected
    pinched = build_complex([(0, 1, 2), (0, 3, 4)])
    assert not pinched.is_closed_pseudomanifold().passed


def scanned_pseudomanifold_report(facets):
    """The closed-pseudomanifold report from a scan of a facet list whose
    entries are maximal: ridge counts over the top facets, and components
    by union-find across shared ridges."""
    n = max((len(f) for f in facets), default=0) - 1
    tops = sorted(f for f in facets if len(f) == n + 1)
    counts = {r: 0 for f in facets for r in combinations(f, n)} if n >= 1 else {}
    parent = {f: f for f in tops}

    def root(f):
        while parent[f] != f:
            f = parent[f]
        return f

    first_top = {}
    for f in tops:
        for r in combinations(f, n) if n >= 1 else ():
            counts[r] += 1
            if r in first_top:
                parent[root(f)] = root(first_top[r])
            first_top.setdefault(r, f)
    bad = [(r, c) for r, c in sorted(counts.items()) if c != 2]
    impure = sorted((f for f in facets if len(f) != n + 1), key=lambda f: (len(f), f))
    n_components = len({root(f) for f in tops})
    return PseudomanifoldReport(
        dimension=n, pure=not impure, impure_facets=tuple(impure[:20]),
        ridges_ok=not bad, bad_ridges=tuple(bad[:20]),
        connected=n_components == 1, n_components=n_components)


_TETRAHEDRON = list(combinations(range(4), 3))
PSEUDOMANIFOLD_CASES = {
    "open disk": [(0, 1, 2)],
    "pinched triangles": [(0, 1, 2), (0, 3, 4)],
    "edge in three triangles": [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
    "impure": [(0, 1, 2), (2, 3)],
    "wedged tetrahedra": _TETRAHEDRON + [tuple(v + 3 for v in f) for f in _TETRAHEDRON],
    "one point": [(0,)],
    "two points": [(0,), (1,)],
    "empty": [],
    "fan of 39": [(0, i, i + 1) for i in range(1, 40)],
}


@pytest.mark.parametrize("name", list(CORPUS_NAMES) + list(PSEUDOMANIFOLD_CASES))
def test_pseudomanifold_report_matches_a_scan(name):
    if name in PSEUDOMANIFOLD_CASES:
        facets = PSEUDOMANIFOLD_CASES[name]
    else:
        facets = list(corpus(name).facets)
    X = build_complex(facets) if facets else SimplicialComplex.empty()
    report = X.is_closed_pseudomanifold()
    assert report == scanned_pseudomanifold_report(facets)
    # a point is a closed 0-manifold
    assert report.passed == (name in CORPUS_NAMES or name == "one point")
    if name == "wedged tetrahedra":
        assert report.ridges_ok and report.n_components == 2
    if name == "fan of 39":
        # 41 free edges, capped at 20 in skeleton order
        assert report.bad_ridges[:3] == (((0, 1), 1), ((0, 40), 1), ((1, 2), 1))
        assert len(report.bad_ridges) == 20


def test_chain_xor_and_popcount():
    X = sphere2()
    a = Chain.from_simplices(X, 1, [(0, 1), (1, 2)])
    b = Chain.from_simplices(X, 1, [(1, 2), (2, 3)])
    c = a ^ b
    assert c.popcount() == 2
    assert set(c.support()) == {(0, 1), (2, 3)}
    assert (a ^ a).is_zero()


def test_chain_dimension_mismatch_rejected():
    X = sphere2()
    a = Chain.from_simplices(X, 1, [(0, 1)])
    b = Chain.from_simplices(X, 2, [(0, 1, 2)])
    with pytest.raises(DimensionMismatch):
        a ^ b


def test_from_simplices_rejects_wrong_dimension():
    X = sphere2()
    with pytest.raises(DimensionMismatch):
        Chain.from_simplices(X, 1, [(0, 1, 2)])
    with pytest.raises(DimensionMismatch):
        Chain.from_simplices(X, 0, [(1, 2, 3)])
    with pytest.raises(DimensionMismatch):
        Chain.from_simplices(X, 2, [(0, 1, 2), (0, 1)])
    assert Chain.from_simplices(X, 2, [(2, 1, 0)]).support() == ((0, 1, 2),)


def test_boundary_of_boundary_vanishes():
    X = sphere2()
    rng = np.random.default_rng(0)
    for _ in range(30):
        bits = int(rng.integers(0, 1 << X.n_simplices(2)))
        c = Chain(X, 2, bits)
        assert c.boundary().boundary().is_zero()


def test_coboundary_of_coboundary_vanishes():
    X = sphere2()
    rng = np.random.default_rng(1)
    for _ in range(30):
        bits = int(rng.integers(0, 1 << X.n_simplices(0)))
        c = Chain(X, 0, bits)
        assert c.coboundary().coboundary().is_zero()


def test_boundary_coboundary_adjoint_under_pairing():
    # <delta a, c> = <a, boundary c> for random cochains and chains
    X = sphere2()
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = Chain(X, 1, int(rng.integers(0, 1 << X.n_simplices(1))))
        c = Chain(X, 2, int(rng.integers(0, 1 << X.n_simplices(2))))
        assert a.coboundary().pairing(c) == a.pairing(c.boundary())


def ref_boundary(X, d, bits):
    """Each simplex of the support adds its facets, found as vertex tuples;
    vertices have none."""
    out = 0
    for i in range(X.n_simplices(d)):
        if d >= 1 and bits >> i & 1:
            for face in combinations(X.skeleton(d)[i], d):
                out ^= 1 << X.index(face)
    return Chain(X, d - 1, out)


def ref_coboundary(X, d, bits):
    """Bit j: the parity of the cochain on the facets of (d+1)-simplex j."""
    out = 0
    for j in range(X.n_simplices(d + 1)):
        if d >= 0:
            for face in combinations(X.skeleton(d + 1)[j], d + 1):
                out ^= (bits >> X.index(face) & 1) << j
    return Chain(X, d + 1, out)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_boundary_and_coboundary_match_the_vertex_tuple_reference(name):
    """On every degree from -1 to dim+1: random, empty and all-ones chains."""
    X = corpus(name).complex()
    rng = np.random.default_rng(28)
    for d in range(-1, X.dim + 2):
        n = X.n_simplices(d)
        chains = [Chain.zero(X, d), Chain.all_ones(X, d)]
        chains += [Chain(X, d, int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n))
                   for _ in range(5)]
        for c in chains:
            assert c.boundary() == ref_boundary(X, d, c.bits), (d, c.bits)
            assert c.coboundary() == ref_coboundary(X, d, c.bits), (d, c.bits)


def test_out_of_range_chain_groups_are_zero():
    X = sphere2()
    z = Chain.zero(X, 7)
    assert z.is_zero()
    assert z.boundary().is_zero()
    assert Chain.all_ones(X, 7).is_zero()
    top = Chain.all_ones(X, 2)
    assert top.coboundary().is_zero()


@pytest.mark.parametrize("d", [-1, 3])
def test_zero_groups_have_empty_support(d):
    """Dimensions -1 and dim + 1 are zero groups (Sq above the top degree
    returns one): their chain has no support."""
    X = sphere2()
    assert Chain(X, d, 0).support() == ()
    assert Chain.zero(X, d).support() == ()


def test_fundamental_cycle_of_sphere():
    X = sphere2()
    gamma = Chain.all_ones(X, 2)
    # every edge has exactly two cofacets, so the top chain is a cycle
    assert gamma.boundary().is_zero()
    for edge in X.skeleton(1):
        assert len(X.cofacets(edge)) == 2
