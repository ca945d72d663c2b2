from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from conftest import relabeled
from swlab.corpus import CORPUS_NAMES, _rpn_facets, corpus
from swlab.errors import (
    DegreeOverflow,
    DimensionMismatch,
    IndexOutOfRange,
    NotACocycle,
    NotPseudomanifold,
)
from swlab.gf2 import EchelonBasis, gather
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
from swlab import oracle, pipeline, simplicial
from swlab.simplicial import Chain, SimplicialComplex, build_complex
from swlab.pipeline import all_ones_chains, compute_report
from swlab.subdivision import barycentric_subdivide

TRIALS = 100


def random_bits(rng, nbits):
    if nbits <= 0:
        return 0
    raw = int.from_bytes(rng.bytes((nbits + 7) // 8), "little")
    return raw & ((1 << nbits) - 1)


def random_cochain(rng, X, d):
    return Chain(X, d, random_bits(rng, X.n_simplices(d)))


def shuffled_ranks(rng, X):
    """The ranks of a random vertex order on X, by vertex."""
    verts = list(X.vertices())
    rng.shuffle(verts)
    return {v: r for r, v in enumerate(verts)}


def numeric_ranks(X):
    return {v: v for v in X.vertices()}


def relabeled_by(X, ranks):
    """X relabeled by `ranks`, its index maps, and their inverses: the
    numeric products there are the products on X under the ranked order."""
    Y, index = relabeled(X, [ranks[v] for v in X.vertices()])
    inverse = []
    for column in index:
        back = [0] * len(column)
        for i, j in enumerate(column):
            back[j] = i
        inverse.append(back)
    return Y, index, inverse


def pulled(X, index, c):
    """The cochain c of X's relabeling, pulled back to X."""
    d = c.dimension
    return Chain(X, d, gather(c.bits, index[d], c.complex.n_simplices(d)))


def products_under(X, ranks):
    """cup, cup_i and cap of cochains on X under the vertex order with
    `ranks`: the library's products on X relabeled by the ranks, with the
    cochains moved there and the results pulled back to X."""
    Y, index, inverse = relabeled_by(X, ranks)
    order = VertexOrder.numeric(Y)

    def run(product, *args):
        moved = [pulled(Y, inverse, c) if isinstance(c, Chain) else c for c in args]
        return pulled(X, index, product(Y, order, *moved))

    return (lambda a, b: run(cup, a, b), lambda a, b, i: run(cup_i, a, b, i),
            lambda a, c: run(cap, a, c))


@pytest.fixture(scope="module", params=CORPUS_NAMES)
def entry_complex(request, entries):
    return entries[request.param].complex()


# Reference products: one face loop each, every simplex sorted by the ranks
# of a vertex order, every face looked up through the validating
# `SimplicialComplex.index`, every cut sequence walked per simplex.

def _ref_value(cochain, face):
    return (cochain.bits >> cochain.complex.index(face)) & 1


def _ranked(ranks, s):
    return tuple(sorted(s, key=ranks.__getitem__))


def ref_cup(X, ranks, alpha, beta):
    p, q = alpha.dimension, beta.dimension
    bits = 0
    for idx, s in enumerate(X.skeleton(p + q)):
        w = _ranked(ranks, s)
        if _ref_value(alpha, w[:p + 1]) & _ref_value(beta, w[p:]):
            bits |= 1 << idx
    return Chain(X, p + q, bits)


def ref_cap(X, ranks, alpha, c):
    p, d = alpha.dimension, c.dimension
    out = 0
    for s in c.support():
        w = _ranked(ranks, s)
        if _ref_value(alpha, w[:p + 1]):
            out ^= 1 << X.index(w[p:])
    return Chain(X, d - p, out)


def ref_cup_i(X, ranks, alpha, beta, i):
    p, q = alpha.dimension, beta.dimension
    m = p + q - i
    bits = 0
    for idx, s in enumerate(X.skeleton(m)):
        w = _ranked(ranks, s)
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
        assert cup_i(X, order, a, b, 0) == ref_cup(X, numeric_ranks(X), a, b)


def check_products(X, ranks, products, a, b):
    """The products of a and b agree with the reference loops under the
    ranked order for every i that lands in the complex."""
    lib_cup, lib_cup_i, lib_cap = products
    p, q, n = a.dimension, b.dimension, X.dim
    if p + q <= n:
        assert lib_cup(a, b) == ref_cup(X, ranks, a, b)
    for i in range(min(p, q) + 1):
        if p + q - i <= n:
            assert lib_cup_i(a, b, i) == ref_cup_i(X, ranks, a, b, i)
    if p <= q:
        assert lib_cap(a, b) == ref_cap(X, ranks, a, b)


def numeric_products(X):
    order = VertexOrder.numeric(X)
    return (lambda a, b: cup(X, order, a, b),
            lambda a, b, i: cup_i(X, order, a, b, i),
            lambda a, c: cap(X, order, a, c))


@pytest.mark.parametrize("shuffled", [False, True])
def test_products_match_reference(entry_complex, shuffled):
    """cup, cup_i and cap agree with the reference loops for every (p, q, i):
    in the numeric order on X, and in a shuffled order as the numeric
    products on X relabeled by its ranks."""
    X = entry_complex
    rng = np.random.default_rng(22)
    if shuffled:
        ranks = shuffled_ranks(rng, X)
        products = products_under(X, ranks)
    else:
        ranks, products = numeric_ranks(X), numeric_products(X)
    n = X.dim
    for p in range(n + 1):
        for q in range(n + 1):
            a = random_cochain(rng, X, p)
            b = random_cochain(rng, X, q)
            check_products(X, ranks, products, a, b)


def _one_simplex_orders(X):
    rng = np.random.default_rng(23)
    ranks = shuffled_ranks(rng, X)
    return [(numeric_ranks(X), numeric_products(X)),
            (ranks, products_under(X, ranks))]


@pytest.mark.parametrize("facets", [[(0, 1, 2)], [(5,)]],
                         ids=["one-triangle", "one-vertex"])
def test_products_match_reference_on_one_simplex_skeletons(facets):
    """A one-triangle and a one-vertex complex: the product degrees that
    have exactly one simplex gather through a single-index table."""
    X = build_complex(facets)
    n = X.dim
    for ranks, products in _one_simplex_orders(X):
        for p in range(n + 1):
            for q in range(n + 1):
                for a_bits in range(1 << X.n_simplices(p)):
                    for b_bits in range(1 << X.n_simplices(q)):
                        check_products(X, ranks, products,
                                       Chain(X, p, a_bits), Chain(X, q, b_bits))


def ref_faces(X, ranks, m, positions):
    """Each m-simplex's face at `positions` of its vertex list sorted by
    the ranks, found through the validating index."""
    return [X.index(tuple(_ranked(ranks, s)[k] for k in positions))
            for s in X.skeleton(m)]


@pytest.fixture(scope="module", params=(*CORPUS_NAMES, "sd(klein)"))
def face_complex(request, entries):
    """Each corpus entry, and sd(klein) for a larger 2-complex."""
    if request.param == "sd(klein)":
        return barycentric_subdivide(entries["klein"].complex()).derived
    return entries[request.param].complex()


def test_face_tables_match_the_sorted_tuple_lookup(face_complex):
    """Every (m, positions) table equals the face found by sorting each
    simplex and looking its face up by vertex tuple: on X in the numeric
    order, and for two shuffled orders on X relabeled by their ranks, read
    back through the relabeling's index maps."""
    X = face_complex
    rng = random.Random(28)
    for ranks in (numeric_ranks(X), shuffled_ranks(rng, X), shuffled_ranks(rng, X)):
        Y, index, inverse = relabeled_by(X, ranks)
        for m in range(X.dim + 1):
            for k in range(1, m + 2):
                for positions in combinations(range(m + 1), k):
                    table = Y.face_table(m, positions)
                    assert [inverse[k - 1][table[j]] for j in index[m]] \
                        == ref_faces(X, ranks, m, positions), (m, positions)


def test_facet_table_columns_are_the_numeric_facet_tables(face_complex):
    """Column k of facet_table(d) is each d-simplex's facet without vertex
    k, and the complex's face table of the facets without position r is
    column r itself, not a copy."""
    X = face_complex
    for m in range(1, X.dim + 1):
        table = X.facet_table(m)
        assert len(table) == m + 1
        for k, column in enumerate(table):
            assert list(column) == [X.index(s[:k] + s[k + 1:]) for s in X.skeleton(m)]
        for r in range(m + 1):
            positions = tuple(p for p in range(m + 1) if p != r)
            assert X.face_table(m, positions) is table[r]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_face_tables_are_built_once_per_order(entries, monkeypatch, name):
    """Across all_ones_chains, wu_classes and the degree caps, each
    (m, positions) table of the complex is built once, and a table that
    leaves out one position is that column of the facet table itself, not
    a copy."""
    X = entries[name].complex()
    order = VertexOrder.numeric(X)
    built = []
    face_table = SimplicialComplex.face_table

    def recording(self, m, positions):
        if (m, positions) not in self._face_tables:
            built.append((self, (m, positions)))
        return face_table(self, m, positions)

    monkeypatch.setattr(SimplicialComplex, "face_table", recording)

    def products():
        all_ones_chains(X)
        wu = wu_classes(X)
        gamma = fundamental_cycle(X)
        for cls in wu.w:
            cap(X, order, cls.cocycle, gamma)

    products()
    keys = [key for Y, key in built if Y is X]
    assert keys and len(keys) == len(set(keys)) == len(built) == len(X._face_tables)
    for (m, positions), table in X._face_tables.items():
        if len(positions) == m:
            r = next(r for r, p in enumerate(positions + (m + 1,)) if r != p)
            assert table is X.facet_table(m)[r]
    cached = dict(X._face_tables)
    products()
    assert len(built) == len(cached)
    assert all(X._face_tables[key] is table for key, table in cached.items())


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
    wu = wu_classes(X)
    gamma = fundamental_cycle(X)
    for cls in wu.w:
        cap(X, order, cls.cocycle, gamma)
    assert calls == []


@pytest.mark.parametrize("make", [
    pytest.param(lambda: corpus("rp3").complex(), id="rp3"),
    pytest.param(lambda: build_complex(_rpn_facets(4)), id="rp4", marks=pytest.mark.slow),
])
def test_wu_classes_check_each_wu_class_once(make, monkeypatch):
    """In a report, wu_classes applies delta to each Wu class once, in
    class_of, and not again for each of its squares; and it multiplies no
    zero cochain, so a zero v_j costs no product at all."""
    X = make()
    checked, multiplied, wu = [], [], []
    coboundary, product, solve = Chain.coboundary, oracle.cup_i, pipeline.wu_classes
    monkeypatch.setattr(Chain, "coboundary", lambda c: checked.append(c) or coboundary(c))
    monkeypatch.setattr(oracle, "cup_i", lambda *args: multiplied.append(args[2:4])
                        or product(*args))
    monkeypatch.setattr(pipeline, "wu_classes", lambda K: wu.append(solve(K)) or wu[-1])
    assert compute_report(X).all_matched
    (data,) = wu
    assert any(v.is_zero() for v in data.v) and any(not v.is_zero() for v in data.v)
    for v in data.v:
        assert sum(c is v.cocycle for c in checked) == 1, v.degree
    assert multiplied and all(a.bits and b.bits for a, b in multiplied)


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
    wu = wu_classes(X)
    n = X.dim
    for k in range(n + 1):
        for bits in H.cohomology_basis(n - k):
            x = Chain(X, n - k, bits)
            lhs = cup(X, order, wu.v[k].cocycle, x).pairing(gamma)
            rhs = steenrod_sq(X, order, k, x).pairing(gamma)
            assert lhs == rhs


def test_wu_classes_order_independent(entry_complex):
    """The Wu and Stiefel-Whitney classes of X relabeled by a shuffled
    order's ranks, pulled back to X, are those of X, with identical class
    coordinates."""
    X = entry_complex
    rng = np.random.default_rng(21)
    Y, index, _ = relabeled_by(X, shuffled_ranks(rng, X))
    wu_a, wu_b = wu_classes(X), wu_classes(Y)
    H = mod2_homology(X)
    for k in range(X.dim + 1):
        v_b = pulled(X, index, wu_b.v[k].cocycle)
        w_b = pulled(X, index, wu_b.w[k].cocycle)
        assert H.same_cocycle_class(wu_a.v[k].cocycle, v_b)
        assert H.same_cocycle_class(wu_a.w[k].cocycle, w_b)
        assert wu_a.w[k].coordinates == class_of(X, w_b).coordinates


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
