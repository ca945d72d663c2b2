from __future__ import annotations

import math

import numpy as np
import pytest

from swlab.corpus import corpus
from swlab.errors import (
    DimensionOutOfRange,
    NotAFlagCell,
    NotPseudomanifold,
    SimplexNotInComplex,
)
from swlab.simplicial import Chain, build_complex
from swlab.subdivision import (
    FlagSimplex,
    barycentric_subdivide,
    flag_dual_cells,
    flag_partner,
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
    S = sub_sphere()
    for t in S.derived.skeleton(1):
        flag = S.flag_of(t)
        assert tuple(S.vertex_id[s] for s in flag.chain) == t
        assert flag.bottom == flag.chain[-1]
        assert flag.top == flag.chain[0]
    with pytest.raises(NotAFlagCell):
        S.flag_of((0, 999))


def test_flag_simplex_rejects_non_flags():
    with pytest.raises(NotAFlagCell):
        FlagSimplex(((0, 1), (2,)))  # (2,) is not a face of (0, 1)


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
    S = sub_sphere()
    pushed = Chain(S.derived, 2,
                   S.chain_map(2).matvec(Chain.all_ones(S.base, 2).bits))
    assert pushed.boundary().is_zero()
    # the subdivided fundamental cycle is the all-ones top chain
    assert pushed == Chain.all_ones(S.derived, 2)


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


def test_flag_partner_is_fixed_point_free_involution():
    S = sub_sphere()
    for i in (1, 2):
        for ids in flag_dual_cells(S, i).values():
            for t in ids:
                flag = S.flag_of(t)
                partner = flag_partner(S, flag)
                assert partner != flag
                assert partner.bottom == flag.bottom
                assert flag_partner(S, partner) == flag


def test_flag_partner_rejects_degree_zero_and_skew_flags():
    S = sub_sphere()
    vertex_flag = S.flag_of((S.vertex_id[(0, 1, 2)],))
    with pytest.raises(NotAFlagCell):
        flag_partner(S, vertex_flag)
    # edge barycenter -> vertex flag skips the facet level
    skew = S.flag_of((S.vertex_id[(0, 1)], S.vertex_id[(0,)]))
    with pytest.raises(NotAFlagCell):
        flag_partner(S, skew)
    with pytest.raises(SimplexNotInComplex):
        flag_partner(S, FlagSimplex(((0, 1, 9), (0, 1))))


def test_partner_rejects_ids_that_are_not_facet_ridge_flags():
    S = sub_sphere()
    vid = S.vertex_id
    bad = [
        (vid[(0, 1, 2)],),                                   # no ridge
        (vid[(0, 1)], vid[(0,)]),                            # ridge is a vertex
        (vid[(0, 2, 3)], vid[(0, 1)]),                       # facet misses ridge
        (vid[(0, 1, 2)], vid[(0, 1)], vid[(2,)]),            # not a flag
    ]
    for ids in bad:
        with pytest.raises(NotAFlagCell):
            S.partner(ids)
    ids = (vid[(0, 1, 2)], vid[(0, 1)], vid[(0,)])
    assert S.partner(ids) == (vid[(0, 1, 3)],) + ids[1:]


def test_flag_partner_requires_closed_base():
    # an open disk of two triangles glued along (0, 1): every flag raises,
    # the one around the boundary edge (0, 2) as well as the one around the
    # interior edge (0, 1), which has two facets
    S = barycentric_subdivide(build_complex([(0, 1, 2), (0, 1, 3)]))
    for ridge in ((0, 2), (0, 1)):
        flag = S.flag_of((S.vertex_id[(0, 1, 2)], S.vertex_id[ridge]))
        with pytest.raises(NotPseudomanifold):
            flag_partner(S, flag)


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
