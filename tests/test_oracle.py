from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from swlab.corpus import CORPUS_NAMES
from swlab.errors import (
    DegreeOverflow,
    DimensionMismatch,
    IndexOutOfRange,
    NotACocycle,
    NotPseudomanifold,
)
from swlab.gf2 import EchelonBasis
from swlab.homology import mod2_homology
from swlab.oracle import (
    VertexOrder,
    cap,
    class_of,
    cup,
    cup_i,
    fundamental_cycle,
    poincare_dual_of_cocycle,
    steenrod_sq,
    wu_classes,
)
from swlab import simplicial
from swlab.simplicial import Chain, build_complex
from swlab.pipeline import all_ones_chains
from swlab.subdivision import barycentric_subdivide

TRIALS = 100


def random_bits(rng, nbits):
    if nbits <= 0:
        return 0
    raw = int.from_bytes(rng.bytes((nbits + 7) // 8), "little")
    return raw & ((1 << nbits) - 1)


def random_cochain(rng, X, d):
    return Chain(X, d, random_bits(rng, X.n_simplices(d)))


def shuffled_order(rng, X):
    verts = list(X.vertices())
    rng.shuffle(verts)
    return VertexOrder(X, verts)


@pytest.fixture(scope="module", params=CORPUS_NAMES)
def entry_complex(request, entries):
    return entries[request.param].complex()


# Reference products: one face loop each, every face looked up through the
# validating `SimplicialComplex.index`, every cut sequence walked per simplex.

def _ref_value(cochain, face):
    return (cochain.bits >> cochain.complex.index(face)) & 1


def ref_cup(X, order, alpha, beta):
    p, q = alpha.dimension, beta.dimension
    bits = 0
    for idx, s in enumerate(X.skeleton(p + q)):
        w = order.sort(s)
        if _ref_value(alpha, w[:p + 1]) & _ref_value(beta, w[p:]):
            bits |= 1 << idx
    return Chain(X, p + q, bits)


def ref_cap(X, order, alpha, c):
    p, d = alpha.dimension, c.dimension
    out = 0
    for s in c.support():
        w = order.sort(s)
        if _ref_value(alpha, w[:p + 1]):
            out ^= 1 << X.index(w[p:])
    return Chain(X, d - p, out)


def ref_cup_i(X, order, alpha, beta, i):
    p, q = alpha.dimension, beta.dimension
    m = p + q - i
    bits = 0
    for idx, s in enumerate(X.skeleton(m)):
        w = order.sort(s)
        acc = 0
        for cuts in combinations(range(m + 1), i + 1):
            bounds = (0,) + cuts + (m,)
            evens, odds = [], []
            for j in range(i + 2):
                segment = w[bounds[j]:bounds[j + 1] + 1]
                (evens if j % 2 == 0 else odds).extend(segment)
            if len(evens) == p + 1 and len(odds) == q + 1:
                acc ^= _ref_value(alpha, evens) & _ref_value(beta, odds)
        if acc:
            bits |= 1 << idx
    return Chain(X, m, bits)


def test_vertex_order_validation():
    X = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    with pytest.raises(DimensionMismatch):
        VertexOrder(X, [0, 1, 2])          # missing a vertex
    with pytest.raises(DimensionMismatch):
        VertexOrder(X, [0, 1, 2, 2])       # repeated
    order = VertexOrder(X, [3, 1, 0, 2])
    assert order.sort((0, 1, 3)) == (3, 1, 0)
    assert [order.key(v) for v in (3, 1, 0, 2)] == [0, 1, 2, 3]


def test_cup_unit(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    rng = np.random.default_rng(10)
    unit = Chain.all_ones(X, 0)
    for d in range(X.dim + 1):
        for _ in range(20):
            a = random_cochain(rng, X, d)
            assert cup(X, order, unit, a) == a


def test_cup_degree_overflow(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    a = Chain.all_ones(X, X.dim)
    with pytest.raises(DegreeOverflow):
        cup(X, order, a, a)


def test_cup_leibniz(entry_complex):
    """delta(a cup b) = delta(a) cup b + a cup delta(b), 100 random pairs."""
    X = entry_complex
    order = VertexOrder.numeric(X)
    rng = np.random.default_rng(11)
    n = X.dim
    for _ in range(TRIALS):
        p = int(rng.integers(0, n))
        q = int(rng.integers(0, n - p))
        a = random_cochain(rng, X, p)
        b = random_cochain(rng, X, q)
        lhs = cup(X, order, a, b).coboundary()
        rhs = cup(X, order, a.coboundary(), b) \
            ^ cup(X, order, a, b.coboundary())
        assert lhs == rhs


def test_cup_associative(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    rng = np.random.default_rng(12)
    n = X.dim
    if n < 2:
        pytest.skip("needs dimension >= 2")
    for _ in range(40):
        parts = [1, 1, 1] if n == 3 and rng.integers(2) else [1, 1, 0]
        rng.shuffle(parts)
        p, q, r = (int(t) for t in parts[:3])
        if p + q + r > n:
            continue
        a, b, c = (random_cochain(rng, X, d) for d in (p, q, r))
        assert cup(X, order, cup(X, order, a, b), c) \
            == cup(X, order, a, cup(X, order, b, c))


def test_cap_leibniz(entry_complex):
    """boundary(a cap c) = delta(a) cap c + a cap boundary(c)."""
    X = entry_complex
    order = VertexOrder.numeric(X)
    rng = np.random.default_rng(13)
    n = X.dim
    for _ in range(TRIALS):
        d = int(rng.integers(1, n + 1))
        p = int(rng.integers(0, d))  # keep delta(a) cap c defined
        a = random_cochain(rng, X, p)
        c = random_cochain(rng, X, d)
        lhs = cap(X, order, a, c).boundary()
        rhs = cap(X, order, a.coboundary(), c) \
            ^ cap(X, order, a, c.boundary())
        assert lhs == rhs


def test_cap_cup_adjunction(entry_complex):
    """<a cup b, c> = <b, a cap c> for random triples."""
    X = entry_complex
    order = VertexOrder.numeric(X)
    rng = np.random.default_rng(14)
    n = X.dim
    for _ in range(TRIALS):
        p = int(rng.integers(0, n + 1))
        q = n - p
        a = random_cochain(rng, X, p)
        b = random_cochain(rng, X, q)
        c = random_cochain(rng, X, n)
        assert cup(X, order, a, b).pairing(c) \
            == b.pairing(cap(X, order, a, c))


def test_cup_i_zero_is_cup(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    rng = np.random.default_rng(15)
    n = X.dim
    for _ in range(30):
        p = int(rng.integers(0, n))
        q = int(rng.integers(0, n - p))
        a = random_cochain(rng, X, p)
        b = random_cochain(rng, X, q)
        assert cup_i(X, order, a, b, 0) == ref_cup(X, order, a, b)


@pytest.mark.parametrize("shuffled", [False, True])
def test_products_match_reference(entry_complex, shuffled):
    """cup, cup_i and cap agree with the reference loops for every (p, q, i)."""
    X = entry_complex
    rng = np.random.default_rng(22)
    order = shuffled_order(rng, X) if shuffled else VertexOrder.numeric(X)
    n = X.dim
    for p in range(n + 1):
        for q in range(n + 1):
            a = random_cochain(rng, X, p)
            b = random_cochain(rng, X, q)
            if p + q <= n:
                assert cup(X, order, a, b) == ref_cup(X, order, a, b)
            for i in range(min(p, q) + 1):
                if p + q - i <= n:
                    assert cup_i(X, order, a, b, i) == ref_cup_i(X, order, a, b, i)
            if p <= q:
                assert cap(X, order, a, b) == ref_cap(X, order, a, b)


def _one_simplex_orders(X):
    rng = np.random.default_rng(23)
    return [VertexOrder.numeric(X), shuffled_order(rng, X)]


@pytest.mark.parametrize("facets", [[(0, 1, 2)], [(5,)]],
                         ids=["one-triangle", "one-vertex"])
def test_products_match_reference_on_one_simplex_skeletons(facets):
    """A one-triangle and a one-vertex complex: the product degrees that
    have exactly one simplex gather through a single-index table."""
    X = build_complex(facets)
    n = X.dim
    for order in _one_simplex_orders(X):
        for p in range(n + 1):
            for q in range(n + 1):
                for a_bits in range(1 << X.n_simplices(p)):
                    for b_bits in range(1 << X.n_simplices(q)):
                        a, b = Chain(X, p, a_bits), Chain(X, q, b_bits)
                        if p + q <= n:
                            assert cup(X, order, a, b) == ref_cup(X, order, a, b)
                        for i in range(min(p, q) + 1):
                            if p + q - i <= n:
                                assert cup_i(X, order, a, b, i) \
                                    == ref_cup_i(X, order, a, b, i)
                        if p <= q:
                            assert cap(X, order, a, b) == ref_cap(X, order, a, b)


def ref_faces(X, order, m, positions):
    """Each m-simplex's face at `positions` of its order-sorted vertex list,
    found as a sorted vertex tuple through the validating index."""
    return [X.index(tuple(sorted(order.sort(s)[k] for k in positions)))
            for s in X.skeleton(m)]


@pytest.fixture(scope="module", params=(*CORPUS_NAMES, "sd(klein)"))
def face_complex(request, entries):
    """Each corpus entry, and sd(klein) for a larger 2-complex."""
    if request.param == "sd(klein)":
        return barycentric_subdivide(entries["klein"].complex()).derived
    return entries[request.param].complex()


def test_face_tables_match_the_sorted_tuple_lookup(face_complex):
    """Every (m, positions) table, for the numeric order and two shuffled
    ones, equals the face found by sorting each simplex in the order and
    looking its face up by vertex tuple."""
    X = face_complex
    rng = random.Random(28)
    for order in (VertexOrder.numeric(X), shuffled_order(rng, X), shuffled_order(rng, X)):
        for m in range(X.dim + 1):
            for k in range(1, m + 2):
                for positions in combinations(range(m + 1), k):
                    assert list(order.faces(X, m, positions)) \
                        == ref_faces(X, order, m, positions), (m, positions)


def test_facet_table_columns_are_the_numeric_facet_tables(face_complex):
    """Column k of facet_table(d) is each d-simplex's facet without vertex
    k, and the numeric order's table of the facets without position r is
    column r itself, not a copy."""
    X = face_complex
    order = VertexOrder.numeric(X)
    for m in range(1, X.dim + 1):
        table = X.facet_table(m)
        assert len(table) == m + 1
        for k, column in enumerate(table):
            assert list(column) == [X.index(s[:k] + s[k + 1:]) for s in X.skeleton(m)]
        for r in range(m + 1):
            positions = tuple(p for p in range(m + 1) if p != r)
            assert order.faces(X, m, positions) is table[r]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_face_tables_are_built_once_per_order(entries, monkeypatch, name):
    """Across all_ones_chains, wu_classes and the degree caps, each
    (m, positions) table and the deletion columns of each m are built once,
    the numeric order is one per complex and sorts nothing, and a shuffled
    order sorts each simplex of a skeleton once, whatever the number of
    tables read from it: no table re-sorts simplices."""
    from swlab import oracle

    X = entries[name].complex()
    numeric, shuffled = VertexOrder.numeric(X), shuffled_order(random.Random(3), X)
    sorts, tables, columns = [], [], []
    monkeypatch.setattr(oracle, "sorted",
                        lambda *args, **kw: sorts.append(args) or sorted(*args, **kw),
                        raising=False)

    def recording(method, cache, built, key):
        def wrapper(self, *args):
            if key(*args) not in getattr(self, cache):
                built.append((self, key(*args)))
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(VertexOrder, "faces",
                        recording(VertexOrder.faces, "_faces", tables,
                                  lambda Y, m, positions: (m, positions)))
    monkeypatch.setattr(VertexOrder, "_deletions",
                        recording(VertexOrder._deletions, "_columns", columns, lambda m: m))

    def products(order):
        if order is numeric:
            all_ones_chains(X)
        wu = wu_classes(X, order)
        gamma = fundamental_cycle(X)
        for cls in wu.w:
            cap(X, order, cls.cocycle, gamma)

    for order in (numeric, shuffled):
        products(order)
        mine = [key for o, key in tables if o is order]
        assert mine and len(mine) == len(set(mine)) == len(order._faces)
        assert len([o for o, _ in columns if o is order]) == len(order._columns)
        sorted_skeletons = {m for o, m in columns if o is order and order is shuffled}
        assert len(sorts) == sum(X.n_simplices(m) for m in sorted_skeletons)
        cached = dict(order._faces)
        built = (len(tables), len(columns), len(sorts))
        products(order)
        assert (len(tables), len(columns), len(sorts)) == built
        assert all(order._faces[key] is table for key, table in cached.items())
        sorts.clear()
    assert VertexOrder.numeric(X) is numeric


def test_cap_rejects_a_negative_degree(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    with pytest.raises(IndexOutOfRange):
        cap(X, order, Chain.zero(X, -1), fundamental_cycle(X))


def test_products_reject_an_order_on_another_complex(entry_complex):
    X = entry_complex
    renamed = build_complex([tuple(v + 1 for v in f) for f in X.facets])
    same = build_complex(X.facets)
    a = Chain.all_ones(X, 0)
    gamma = Chain.all_ones(X, X.dim)
    for Y in (renamed, same):
        order = VertexOrder.numeric(Y)
        with pytest.raises(DimensionMismatch):
            cup(X, order, a, a)
        with pytest.raises(DimensionMismatch):
            cup_i(X, order, a, a, 0)
        with pytest.raises(DimensionMismatch):
            cap(X, order, a, gamma)


def test_wu_and_cap_make_no_simplex_lookup(entry_complex, monkeypatch):
    """Once the pseudomanifold report is cached, the oracle reads every face
    from the complex's index tables and canonicalizes no vertex tuple."""
    X = entry_complex
    X.is_closed_pseudomanifold()
    calls = []
    canonical = simplicial.canonical_simplex
    monkeypatch.setattr(simplicial, "canonical_simplex",
                        lambda vs: calls.append(vs) or canonical(vs))
    order = VertexOrder.numeric(X)
    wu = wu_classes(X, order)
    gamma = fundamental_cycle(X)
    for cls in wu.w:
        cap(X, order, cls.cocycle, gamma)
    assert calls == []


def test_cup_i_coboundary_identity(entry_complex):
    """The Steenrod relation
    delta(a cup_i b) = da cup_i b + a cup_i db + a cup_{i-1} b + b cup_{i-1} a
    for degrees where every term lives."""
    X = entry_complex
    order = VertexOrder.numeric(X)
    rng = np.random.default_rng(16)
    n = X.dim
    checked = 0
    while checked < TRIALS:
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(1, n + 1))
        i = int(rng.integers(1, min(p, q) + 1))
        if p + q - i + 1 > n or p + q - i + 1 < 0:
            continue
        a = random_cochain(rng, X, p)
        b = random_cochain(rng, X, q)
        lhs = cup_i(X, order, a, b, i).coboundary()
        rhs = cup_i(X, order, a.coboundary(), b, i) \
            ^ cup_i(X, order, a, b.coboundary(), i) \
            ^ cup_i(X, order, a, b, i - 1) \
            ^ cup_i(X, order, b, a, i - 1)
        assert lhs == rhs
        checked += 1


def test_cup_i_index_bounds(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    a = Chain.all_ones(X, 1)
    with pytest.raises(IndexOutOfRange):
        cup_i(X, order, a, a, -1)
    with pytest.raises(IndexOutOfRange):
        cup_i(X, order, a, a, 2)


def test_sq_zero_is_identity_on_cochains(entry_complex):
    """Sq^0 = cup_p with itself... no: Sq^0(a) = a on the nose."""
    X = entry_complex
    order = VertexOrder.numeric(X)
    H = mod2_homology(X)
    rng = np.random.default_rng(17)
    for d in range(X.dim + 1):
        reps = H.cohomology_basis(d)
        for bits in reps:
            a = Chain(X, d, bits)
            assert steenrod_sq(X, order, 0, a) == a


def test_sq_top_is_cup_square(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    H = mod2_homology(X)
    for d in range(1, X.dim // 2 + 1):
        for bits in H.cohomology_basis(d):
            a = Chain(X, d, bits)
            assert steenrod_sq(X, order, d, a) == cup(X, order, a, a)


def test_sq_above_degree_is_zero(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    H = mod2_homology(X)
    for d in range(X.dim + 1):
        for bits in H.cohomology_basis(d):
            a = Chain(X, d, bits)
            out = steenrod_sq(X, order, d + 1, a)
            assert out.is_zero()
            assert out.dimension == 2 * d + 1


def test_sq_requires_cocycle(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    vertex = Chain(X, 0, 1)
    if not vertex.coboundary().is_zero():
        with pytest.raises(NotACocycle):
            steenrod_sq(X, order, 0, vertex)
    with pytest.raises(IndexOutOfRange):
        steenrod_sq(X, order, -1, Chain.all_ones(X, 0))


def test_sq_is_class_level_operation(entry_complex):
    """Sq^k sends cohomologous cocycles to cohomologous cocycles."""
    X = entry_complex
    order = VertexOrder.numeric(X)
    H = mod2_homology(X)
    rng = np.random.default_rng(18)
    n = X.dim
    for d in range(1, n + 1):
        for bits in H.cohomology_basis(d):
            a = Chain(X, d, bits)
            for k in range(0, min(d, n - d) + 1):
                lhs = steenrod_sq(X, order, k, a)
                below = random_cochain(rng, X, d - 1)
                moved = a ^ below.coboundary()
                rhs = steenrod_sq(X, order, k, moved)
                assert H.same_cocycle_class(lhs, rhs)


def test_fundamental_cycle_properties(entry_complex):
    X = entry_complex
    gamma = fundamental_cycle(X)
    assert gamma == Chain.all_ones(X, X.dim)
    assert gamma.boundary().is_zero()


def test_fundamental_cycle_rejects_open_complex():
    disk = build_complex([(0, 1, 2)])
    with pytest.raises(NotPseudomanifold):
        fundamental_cycle(disk)


def test_class_of_coordinates(entry_complex):
    X = entry_complex
    H = mod2_homology(X)
    rng = np.random.default_rng(19)
    for d in range(X.dim + 1):
        for bits in H.cohomology_basis(d):
            a = Chain(X, d, bits)
            cls = class_of(X, a)
            assert not cls.is_zero()
            if d >= 1:
                below = random_cochain(rng, X, d - 1)
                again = class_of(X, a ^ below.coboundary())
                assert again.coordinates == cls.coordinates
        if d >= 1:
            below = random_cochain(rng, X, d - 1)
            assert class_of(X, below.coboundary()).is_zero()
        reps = H.cohomology_basis(d)
        for _ in range(10):
            mask = random_bits(rng, len(reps))
            bits = 0
            for j, rep in enumerate(reps):
                if (mask >> j) & 1:
                    bits ^= rep
            if d >= 1:
                bits ^= random_cochain(rng, X, d - 1).coboundary().bits
            assert class_of(X, Chain(X, d, bits)).coordinates == mask


def test_class_of_reads_the_transcript_without_inserting(entry_complex, monkeypatch):
    X = entry_complex
    H = mod2_homology(X)
    wu = wu_classes(X)
    cocycles = [c.cocycle for c in wu.v + wu.w]
    for d in range(X.dim + 1):
        cocycles += [Chain(X, d, bits) for bits in H.cohomology_basis(d)]
    inserts = []
    insert = EchelonBasis.insert
    monkeypatch.setattr(EchelonBasis, "insert",
                        lambda self, v: inserts.append(v) or insert(self, v))
    coords = [class_of(X, a).coordinates for a in cocycles]
    assert inserts == []
    assert coords[:len(wu.v + wu.w)] == [c.coordinates for c in wu.v + wu.w]


def test_poincare_dual_of_unit_is_fundamental(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    unit = Chain.all_ones(X, 0)
    assert poincare_dual_of_cocycle(X, order, unit) == fundamental_cycle(X)


def test_poincare_dual_class_invariance(entry_complex):
    X = entry_complex
    order = VertexOrder.numeric(X)
    H = mod2_homology(X)
    rng = np.random.default_rng(20)
    for d in range(1, X.dim + 1):
        for bits in H.cohomology_basis(d):
            a = Chain(X, d, bits)
            pd = poincare_dual_of_cocycle(X, order, a)
            assert pd.boundary().is_zero()
            below = random_cochain(rng, X, d - 1)
            pd2 = poincare_dual_of_cocycle(X, order, a ^ below.coboundary())
            assert H.same_class(pd, pd2)


def test_wu_data_invariants(entry_complex):
    X = entry_complex
    wu = wu_classes(X)
    assert wu.wu_vanishing_holds()
    assert wu.v0_is_unit()
    n = X.dim
    assert len(wu.v) == len(wu.w) == n + 1
    for k, cls in enumerate(wu.v):
        assert cls.degree == k
    # w0 is the unit class
    H = mod2_homology(X)
    assert H.same_cocycle_class(wu.w[0].cocycle, Chain.all_ones(X, 0))


def test_wu_defining_property(entry_complex):
    """<v_k cup x, gamma> = <Sq^k x, gamma> for all basis cocycles x."""
    X = entry_complex
    order = VertexOrder.numeric(X)
    H = mod2_homology(X)
    gamma = fundamental_cycle(X)
    wu = wu_classes(X, order)
    n = X.dim
    for k in range(n + 1):
        for bits in H.cohomology_basis(n - k):
            x = Chain(X, n - k, bits)
            lhs = cup(X, order, wu.v[k].cocycle, x).pairing(gamma)
            rhs = steenrod_sq(X, order, k, x).pairing(gamma)
            assert lhs == rhs


def test_wu_classes_order_independent(entry_complex):
    """Two distinct vertex orders give identical class coordinates."""
    X = entry_complex
    rng = np.random.default_rng(21)
    order_a = VertexOrder.numeric(X)
    order_b = shuffled_order(rng, X)
    wu_a = wu_classes(X, order_a)
    wu_b = wu_classes(X, order_b)
    H = mod2_homology(X)
    for k in range(X.dim + 1):
        assert H.same_cocycle_class(wu_a.v[k].cocycle, wu_b.v[k].cocycle)
        assert H.same_cocycle_class(wu_a.w[k].cocycle, wu_b.w[k].cocycle)
        assert wu_a.w[k].coordinates == wu_b.w[k].coordinates


def test_known_class_patterns(entries):
    for name, entry in entries.items():
        X = entry.complex()
        wu = wu_classes(X)
        pattern = tuple(not cls.is_zero() for cls in wu.w)
        assert pattern == entry.sw_pattern, name


def test_wu_naturality_under_subdivision(entries):
    """Subdividing does not change the pattern of nonzero classes."""
    for name in ("s2", "rp2-6", "klein"):
        X = entries[name].complex()
        Kp = barycentric_subdivide(X).derived
        pattern = tuple(not cls.is_zero() for cls in wu_classes(Kp).w)
        assert pattern == entries[name].sw_pattern, name
