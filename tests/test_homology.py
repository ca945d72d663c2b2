from __future__ import annotations

import numpy as np
import pytest

from swlab.errors import DimensionMismatch, NotACocycle, NotACycle
from swlab.homology import mod2_homology
from swlab.simplicial import Chain, build_complex

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
