from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swlab.corpus import CORPUS_NAMES, corpus
from swlab.errors import DimensionOutOfRange, NotAFlagCell, NotPseudomanifold
from swlab.oracle import fundamental_cycle
from swlab.pipeline import all_ones_chains
from swlab.simplicial import Chain, SimplicialComplex, build_complex
from swlab.subdivision import (
    barycentric_subdivide,
    derived_facets,
    flag_dual_cells,
)

S2_FACETS = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def sub_sphere():
    return barycentric_subdivide(build_complex(S2_FACETS))


def test_derived_counts():
    S = sub_sphere()
    base, derived = S.base, S.derived
    # one derived vertex per base simplex
    assert derived.n_simplices(0) == base.total_simplices()
    # top simplices are full flags: (n+1)! per facet
    assert derived.n_simplices(2) == base.n_simplices(2) * math.factorial(3)
    assert derived.euler_characteristic() == base.euler_characteristic()


def test_vertex_ids_cover_base_simplices():
    S = sub_sphere()
    assert set(S.vertex_id) == set(S.base.simplices())
    assert sorted(S.vertex_id.values()) == list(range(len(S.vertex_id)))


def test_flag_roundtrip():
    # every derived simplex reads through `simplices` as a strictly
    # descending flag of proper faces, and back through `vertex_id`
    S = sub_sphere()
    assert [S.vertex_id[s] for s in S.simplices] == list(range(len(S.simplices)))
    for d in range(S.derived.dim + 1):
        for t in S.derived.skeleton(d):
            chain = [S.simplices[v] for v in t]
            for a, b in zip(chain, chain[1:]):
                assert len(b) < len(a) and set(b) <= set(a), t
            assert tuple(S.vertex_id[s] for s in chain) == t


def test_flag_simplex_rejects_non_flags():
    # (2,) is not a face of (0, 1): the pair is no derived simplex, and
    # partner refuses it after a facet as well as after nothing
    S = sub_sphere()
    vid = S.vertex_id
    non_flag = tuple(sorted((vid[(0, 1)], vid[(2,)])))
    assert not S.derived.contains(non_flag)
    with pytest.raises(NotAFlagCell):
        S.partner((vid[(0, 1, 2)], vid[(0, 1)], vid[(2,)]))
    with pytest.raises(NotAFlagCell):
        S.partner((vid[(0, 1)], vid[(2,)]))


def test_chain_map_commutes_with_boundary():
    for S in (sub_sphere(), barycentric_subdivide(corpus("s3").complex())):
        for d in range(1, S.base.dim + 1):
            lam_d = S.chain_map(d)
            lam_prev = S.chain_map(d - 1)
            del_base = S.base.boundary_matrix(d)
            del_derived = S.derived.boundary_matrix(d)
            assert del_derived.matmul(lam_d) == lam_prev.matmul(del_base)


@pytest.mark.parametrize("name", ["s2", "s3", "klein"])
def test_chain_map_columns_hold_full_flags(name):
    # a d-simplex has (d+1)! full flags, one per ordering of its vertices
    S = barycentric_subdivide(corpus(name).complex())
    for d in range(S.base.dim + 1):
        lam = S.chain_map(d)
        assert lam.cols == S.base.n_simplices(d)
        assert {c.bit_count() for c in lam.columns} == {math.factorial(d + 1)}


def test_chain_map_of_fundamental_cycle_is_cycle():
    for name in CORPUS_NAMES:
        S = barycentric_subdivide(corpus(name).complex())
        n = S.base.dim
        gamma = fundamental_cycle(S.base)
        pushed = Chain(S.derived, n, S.chain_map(n).matvec(gamma.bits))
        assert pushed.boundary().is_zero(), name
        # the subdivided fundamental cycle is the all-ones top chain, and the
        # last-vertex map takes that chain back to the fundamental cycle exactly
        assert pushed == Chain.all_ones(S.derived, n), name
        assert all_ones_chains(S.base)[n] == (True, True, gamma), name


def last_vertex_map(S, chain):
    """Reference last-vertex map on a derived chain: each derived simplex goes
    to the base simplex spanned by the largest vertex of each member of its
    flag, and to zero when two of those vertices coincide."""
    image = 0
    for t in chain.support():
        last = {S.simplices[v][-1] for v in t}
        if len(last) == len(t):
            image ^= 1 << S.base.index(last)
    return Chain(S.base, chain.dimension, image)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_last_vertex_map_inverts_chain_map_on_chains(name):
    # of the full flags of a simplex exactly one keeps its largest vertices
    # distinct, so the last-vertex map undoes the subdivision chain map
    S = barycentric_subdivide(corpus(name).complex())
    for d in range(S.base.dim + 1):
        for j, column in enumerate(S.chain_map(d).columns):
            pushed = Chain(S.derived, d, column)
            assert last_vertex_map(S, pushed) == Chain(S.base, d, 1 << j), (d, j)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_all_ones_chains_agree_with_the_derived_complex(name):
    # the counts on the base against the boundary and the reference map on
    # the built derived complex
    S = barycentric_subdivide(corpus(name).complex())
    for d, (k_cycle, is_cycle, image) in enumerate(all_ones_chains(S.base)):
        assert k_cycle == Chain.all_ones(S.base, d).boundary().is_zero(), d
        ht = Chain.all_ones(S.derived, d)
        assert is_cycle == ht.boundary().is_zero(), d
        assert image == last_vertex_map(S, ht), d


def test_derived_complex_is_built_on_first_access():
    # built once, with the subdivision: every access returns the same complex
    S = sub_sphere()
    first = S.derived
    S.partner(flag_dual_cells(S, 1)[(0, 1)][0])
    assert S.derived is first and S.derived is S.derived
    assert S.derived.f_vector == (14, 36, 24)
    empty = barycentric_subdivide(SimplicialComplex.empty())
    assert empty.simplices == [] and empty.derived.f_vector == ()


def test_repr_does_not_build_the_derived_complex():
    # repr reads the f-vector of the derived complex already built
    S = barycentric_subdivide(corpus("rp3").complex())
    first = S.derived
    text = repr(S)
    assert S.derived is first
    assert text.endswith(f"derived f={S.derived.f_vector})")
    assert repr(sub_sphere()) == (
        "SubdividedComplex(base f=(4, 6, 4), derived f=(14, 36, 24))")
    assert repr(barycentric_subdivide(SimplicialComplex.empty())) == (
        "SubdividedComplex(base f=(), derived f=())")


def flag_chains(X):
    """Every strictly decreasing chain of simplices of X, by brute force."""
    chains = [(s,) for s in X.simplices()]
    for chain in chains:  # grows while it is read
        chains.extend(chain + (s,) for s in X.simplices()
                      if len(s) < len(chain[-1]) and set(s) <= set(chain[-1]))
    return chains


SIMPLEX_FACES = [face for k in range(1, 7) for face in combinations(range(6), k)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(SIMPLEX_FACES), min_size=1, max_size=6, unique=True))
@example([(0,), (2,), (5,)])
@example([(0, 1, 2), (2, 3), (4,)])
@example([(0, 1, 2, 3), (2, 4, 5), (1, 5)])
@example([(0, 1, 2, 3, 4, 5)])
def test_derived_complex_holds_every_flag(facets):
    """Any subcomplex of the 5-simplex, pure or not: the derived simplices
    are the decreasing chains of simplices, and the derived facets are the
    full flags inside the facets."""
    X = build_complex(facets)
    S = barycentric_subdivide(X)
    by_dim = {}
    for chain in flag_chains(X):
        by_dim.setdefault(len(chain) - 1, []).append(
            tuple(sorted(S.vertex_id[s] for s in chain)))
    assert S.derived.dim == X.dim
    for d in range(X.dim + 1):
        assert S.derived.skeleton(d) == tuple(sorted(by_dim[d])), (facets, d)
    assert set(S.derived.facets) == derived_facets(X.facets, S.vertex_id.__getitem__)


def test_chain_map_rejects_bad_dimension():
    S = sub_sphere()
    with pytest.raises(DimensionOutOfRange):
        S.chain_map(3)


def test_flag_dual_cells_grouping():
    S = sub_sphere()
    cells = flag_dual_cells(S, 1)
    # one group per base edge, two cells per group (one per adjacent facet)
    assert set(cells) == set(S.base.skeleton(1))
    for ids in cells.values():
        assert len(ids) == 2
    top_cells = flag_dual_cells(S, 2)
    for vertex, ids in top_cells.items():
        # cells around a vertex = flags facet > edge > vertex at it
        count = sum(1 for e in S.base.cofacets(vertex)
                    for f in S.base.cofacets(e))
        assert len(ids) == count


def test_partner_is_fixed_point_free_involution():
    S = sub_sphere()
    for i in (1, 2):
        for ids in flag_dual_cells(S, i).values():
            for t in ids:
                partner = S.partner(t)
                assert partner != t
                assert S.simplices[partner[-1]] == S.simplices[t[-1]]
                assert S.partner(partner) == t


def test_partner_rejects_ids_that_are_not_facet_ridge_flags():
    S = sub_sphere()
    vid = S.vertex_id
    bad = [
        (vid[(0, 1, 2)],),                                   # no ridge
        (vid[(0, 1)], vid[(0,)]),                            # ridge is a vertex
        (vid[(0, 2, 3)], vid[(0, 1)]),                       # facet misses ridge
        (vid[(0, 1, 2)], vid[(0, 1)], vid[(2,)]),            # not a flag
        (vid[(0, 1, 2)], 10**6),                             # no such vertex
        (vid[(0,)], vid[(0, 1)]),                            # not sorted
    ]
    for ids in bad:
        with pytest.raises(NotAFlagCell):
            S.partner(ids)
    ids = (vid[(0, 1, 2)], vid[(0, 1)], vid[(0,)])
    assert S.partner(ids) == (vid[(0, 1, 3)],) + ids[1:]


def test_partner_requires_closed_base():
    # an open disk of two triangles glued along (0, 1): every flag raises,
    # the one around the boundary edge (0, 2) as well as the one around the
    # interior edge (0, 1), which has two facets; so do the flag dual cells
    # and the fundamental cycle, each naming the first boundary edge
    S = barycentric_subdivide(build_complex([(0, 1, 2), (0, 1, 3)]))
    message = "input is not a closed pseudomanifold: ridge (0, 2) lies in 1 facets, not 2"
    calls = [lambda: fundamental_cycle(S.base), lambda: flag_dual_cells(S, 1)]
    calls += [lambda r=ridge: S.partner((S.vertex_id[(0, 1, 2)], S.vertex_id[r]))
              for ridge in ((0, 2), (0, 1))]
    for call in calls:
        with pytest.raises(NotPseudomanifold) as exc_info:
            call()
        assert str(exc_info.value) == message
        assert exc_info.value.report.bad_ridges[0] == ((0, 2), 1)


def test_flag_dual_cells_requires_closed_base():
    S = barycentric_subdivide(build_complex([(0, 1, 2)]))
    with pytest.raises(NotPseudomanifold):
        flag_dual_cells(S, 1)


def test_subdivision_of_torus_counts():
    row = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    row += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    S = barycentric_subdivide(build_complex(row))
    assert S.derived.n_simplices(2) == 14 * 6
    assert S.derived.euler_characteristic() == 0
    assert S.derived.is_closed_pseudomanifold().passed
