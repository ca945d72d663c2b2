from __future__ import annotations

import numpy as np
import pytest

from swlab.errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    MalformedFacet,
    SimplexNotInComplex,
)
from swlab.simplicial import (
    Chain,
    SimplicialComplex,
    build_complex,
    canonical_simplex,
)

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


def test_cofacets():
    X = sphere2()
    assert set(X.cofacets((0, 1))) == {(0, 1, 2), (0, 1, 3)}
    assert set(X.cofacets((2,))) == {(0, 2), (1, 2), (2, 3)}


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


def test_out_of_range_chain_groups_are_zero():
    X = sphere2()
    z = Chain.zero(X, 7)
    assert z.is_zero()
    assert z.boundary().is_zero()
    assert Chain.all_ones(X, 7).is_zero()
    top = Chain.all_ones(X, 2)
    assert top.coboundary().is_zero()


def test_fundamental_cycle_of_sphere():
    X = sphere2()
    gamma = Chain.all_ones(X, 2)
    # every edge has exactly two cofacets, so the top chain is a cycle
    assert gamma.boundary().is_zero()
    for edge in X.skeleton(1):
        assert len(X.cofacets(edge)) == 2
