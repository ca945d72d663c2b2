"""Ground-truth mod-2 cohomology operations.

Cup, cap, and cup-i products at the cochain level, Steenrod squares, the
fundamental cycle, Wu classes, and Stiefel-Whitney classes via the Wu
formula w = Sq(v).  Everything here is independent of the dual-cell
machinery so the two routes can be compared against each other.

A d-cochain is stored as a Chain on the d-skeleton: over GF(2) with the
simplex basis, chains and cochains carry identical data and differ only in
which side of `pairing` they sit on.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    DegreeOverflow,
    DimensionMismatch,
    IndexOutOfRange,
    NotACocycle,
    NotPseudomanifold,
    PairingDegenerate,
)
from .gf2 import BitMatrix
from .homology import HomologySummary, mod2_homology
from .simplicial import Chain, Simplex, SimplicialComplex


class VertexOrder:
    """A strict total order on the vertices of a complex.

    The order decides how a simplex splits into front and back faces, which
    is the only freedom in the cochain-level products.  Derived complexes
    get this for free: their vertex ids are assigned by decreasing dimension
    of the underlying barycenter, so `numeric` is already the order that the
    subdivision construction wants.
    """

    __slots__ = ("complex", "_rank")

    def __init__(self, complex: SimplicialComplex, sequence):
        seq = tuple(sequence)
        verts = complex.vertices()
        if sorted(seq) != sorted(verts):
            raise DimensionMismatch(
                "order must list every vertex of the complex exactly once")
        self.complex = complex
        self._rank = {v: i for i, v in enumerate(seq)}

    @classmethod
    def numeric(cls, complex: SimplicialComplex) -> VertexOrder:
        """Ascending vertex ids (the default order everywhere)."""
        return cls(complex, complex.vertices())

    def key(self, v: int) -> int:
        return self._rank[v]

    def sort(self, simplex: Simplex) -> tuple[int, ...]:
        """Vertices of `simplex` listed in increasing order rank."""
        return tuple(sorted(simplex, key=self._rank.__getitem__))

    def __repr__(self):
        seq = sorted(self._rank, key=self._rank.__getitem__)
        return f"VertexOrder({list(seq)})"


def _check_cochain(X: SimplicialComplex, cochain: Chain, name: str):
    if cochain.complex is not X:
        raise DimensionMismatch(f"{name} lives on a different complex")


def _value(cochain: Chain, face: tuple[int, ...]) -> int:
    return (cochain.bits >> cochain.complex.index(tuple(sorted(face)))) & 1


def cup(X: SimplicialComplex, order: VertexOrder, alpha: Chain,
        beta: Chain) -> Chain:
    """Front-face/back-face cup product of a p- and a q-cochain."""
    _check_cochain(X, alpha, "alpha")
    _check_cochain(X, beta, "beta")
    p, q = alpha.dimension, beta.dimension
    if p + q > X.dim:
        raise DegreeOverflow(f"cup degree {p}+{q} exceeds dimension {X.dim}")
    bits = 0
    for idx, s in enumerate(X.skeleton(p + q)):
        w = order.sort(s)
        if _value(alpha, w[:p + 1]) & _value(beta, w[p:]):
            bits |= 1 << idx
    return Chain(X, p + q, bits)


def cap(X: SimplicialComplex, order: VertexOrder, alpha: Chain,
        c: Chain) -> Chain:
    """Cap product of a p-cochain with a d-chain: evaluate on the front
    p-face, emit the back (d-p)-face, sum mod 2."""
    _check_cochain(X, alpha, "alpha")
    _check_cochain(X, c, "chain")
    p, d = alpha.dimension, c.dimension
    if p > d:
        raise DegreeOverflow(f"cannot cap a {p}-cochain with a {d}-chain")
    out = 0
    skel = X.skeleton(d)
    bits = c.bits
    while bits:
        low = bits & -bits
        w = order.sort(skel[low.bit_length() - 1])
        if _value(alpha, w[:p + 1]):
            out ^= 1 << X.index(tuple(sorted(w[p:])))
        bits ^= low
    return Chain(X, d - p, out)


def cup_i(X: SimplicialComplex, order: VertexOrder, alpha: Chain,
          beta: Chain, i: int) -> Chain:
    """Steenrod's higher product of a p- and a q-cochain.

    On an order-sorted (p+q-i)-simplex, sum over strictly increasing cut
    sequences 0 <= a_1 < ... < a_{i+1} <= p+q-i.  The cuts split the vertex
    list into i+2 closed intervals overlapping at the cut points; alpha
    evaluates on the union of the even-numbered intervals, beta on the odd.
    Terms whose interval unions have the wrong cardinality drop out, so
    cup_0 collapses to the plain cup product.
    """
    _check_cochain(X, alpha, "alpha")
    _check_cochain(X, beta, "beta")
    p, q = alpha.dimension, beta.dimension
    if i < 0 or i > min(p, q):
        raise IndexOutOfRange(f"cup-{i} undefined for degrees ({p}, {q})")
    m = p + q - i
    if m > X.dim:
        raise DegreeOverflow(f"cup-{i} degree {m} exceeds dimension {X.dim}")
    bits = 0
    for idx, s in enumerate(X.skeleton(m)):
        w = order.sort(s)
        acc = 0
        for cuts in combinations(range(m + 1), i + 1):
            bounds = (0,) + cuts + (m,)
            evens: list[int] = []
            odds: list[int] = []
            for j in range(i + 2):
                segment = w[bounds[j]:bounds[j + 1] + 1]
                (evens if j % 2 == 0 else odds).extend(segment)
            if len(evens) == p + 1 and len(odds) == q + 1:
                acc ^= _value(alpha, evens) & _value(beta, odds)
        if acc:
            bits |= 1 << idx
    return Chain(X, m, bits)


def steenrod_sq(X: SimplicialComplex, order: VertexOrder, k: int,
                alpha: Chain) -> Chain:
    """Sq^k on a p-cocycle, realized as alpha cup_{p-k} alpha."""
    _check_cochain(X, alpha, "alpha")
    if k < 0:
        raise IndexOutOfRange(f"Sq^{k} undefined")
    mod2_homology(X).check_cocycle(alpha)
    p = alpha.dimension
    if k > p or p + k > X.dim:
        # above the degree (or above the complex dimension) the target
        # cochain group is zero
        return Chain.zero(X, p + k)
    return cup_i(X, order, alpha, alpha, p - k)


def fundamental_cycle(X: SimplicialComplex) -> Chain:
    """The sum of all top simplices, checked to be a nonzero cycle class."""
    report = X.is_closed_pseudomanifold()
    if not report.passed:
        raise NotPseudomanifold(
            "fundamental cycle needs a closed pseudomanifold", report=report)
    gamma = Chain.all_ones(X, X.dim)
    H = mod2_homology(X)
    H.check_cycle(gamma, which="fundamental chain")
    if H.class_is_zero(gamma):
        raise AssertionError("fundamental cycle bounds; homology is broken")
    return gamma


@dataclass(frozen=True)
class CohomologyClass:
    """A degree-d class with a cocycle representative.

    `coordinates` is the bitmask of the class over the cohomology basis
    chosen by the elimination transcript, so two representatives of the same
    class always carry equal coordinates.
    """

    complex: SimplicialComplex
    degree: int
    cocycle: Chain
    coordinates: int

    def is_zero(self) -> bool:
        return self.coordinates == 0


def class_of(X: SimplicialComplex, cochain: Chain) -> CohomologyClass:
    """Wrap a cocycle with its coordinates in the chosen cohomology basis."""
    _check_cochain(X, cochain, "cochain")
    H = mod2_homology(X)
    H.check_cocycle(cochain)
    d = cochain.dimension
    basis = H.cohomology_basis(d)
    if not basis:
        if d <= X.dim and not H.cocycle_class_is_zero(cochain):
            raise AssertionError("nonzero class in a rank-0 cohomology group")
        return CohomologyClass(X, d, cochain, 0)
    img = H.coboundary_image_basis(d)
    reduced = img.reduce(cochain.bits)
    cols = BitMatrix(X.n_simplices(d), len(basis), [img.reduce(y) for y in basis])
    coords = cols.solve(reduced)
    if coords is None:
        raise AssertionError("cocycle escapes the cohomology basis")
    return CohomologyClass(X, d, cochain, coords)


@dataclass(frozen=True)
class WuData:
    """Wu classes v and Stiefel-Whitney classes w = Sq(v), degree 0..n."""

    complex: SimplicialComplex
    v: tuple[CohomologyClass, ...]
    w: tuple[CohomologyClass, ...]

    def wu_vanishing_holds(self) -> bool:
        """v_k = 0 whenever 2k exceeds the dimension."""
        n = self.complex.dim
        return all(self.v[k].is_zero() for k in range(n + 1) if 2 * k > n)

    def v0_is_unit(self) -> bool:
        H = mod2_homology(self.complex)
        unit = Chain.all_ones(self.complex, 0)
        return H.same_cocycle_class(self.v[0].cocycle, unit)


def wu_classes(X: SimplicialComplex, order: VertexOrder | None = None) -> WuData:
    """Solve for the Wu classes degreewise and expand w = Sq(v).

    v_k is the unique class with <v_k cup x, gamma> = <Sq^k x, gamma> for
    every x in H^{n-k}; mod-2 Poincare duality makes the pairing matrix
    square and invertible on manifolds, and a singular pairing is reported
    as PairingDegenerate rather than papered over.
    """
    if order is None:
        order = VertexOrder.numeric(X)
    gamma = fundamental_cycle(X)
    n = X.dim
    H = mod2_homology(X)
    v: list[CohomologyClass] = []
    for k in range(n + 1):
        xs = [Chain(X, n - k, b) for b in H.cohomology_basis(n - k)]
        ys = [Chain(X, k, b) for b in H.cohomology_basis(k)]
        if len(xs) != len(ys):
            raise PairingDegenerate(
                f"betti {n - k} != betti {k}; no mod-2 duality in degree {k}")
        targets = 0
        entries = []
        for irow, x in enumerate(xs):
            if steenrod_sq(X, order, k, x).pairing(gamma):
                targets |= 1 << irow
            for jcol, y in enumerate(ys):
                if cup(X, order, y, x).pairing(gamma):
                    entries.append((irow, jcol))
        pairing = BitMatrix.from_entries(len(xs), len(ys), entries)
        if pairing.rank() < len(ys):
            raise PairingDegenerate(
                f"cup pairing H^{k} x H^{n - k} -> H^{n} is singular")
        coords = pairing.solve(targets)
        assert coords is not None
        rep = Chain.zero(X, k)
        for jcol, y in enumerate(ys):
            if (coords >> jcol) & 1:
                rep = rep ^ y
        v.append(class_of(X, rep))
    w: list[CohomologyClass] = []
    for i in range(n + 1):
        rep = Chain.zero(X, i)
        for j in range(i + 1):
            rep = rep ^ steenrod_sq(X, order, i - j, v[j].cocycle)
        w.append(class_of(X, rep))
    return WuData(X, tuple(v), tuple(w))


def poincare_dual_of_cocycle(X: SimplicialComplex, order: VertexOrder,
                             alpha: Chain) -> Chain:
    """Cap a cocycle with the fundamental cycle; the result is a cycle whose
    class depends only on the class of the cocycle."""
    mod2_homology(X).check_cocycle(alpha)
    return cap(X, order, alpha, fundamental_cycle(X))
