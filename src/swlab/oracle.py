"""Ground-truth mod-2 cohomology operations.

Cup, cap, and cup-i products at the cochain level, Steenrod squares, the
fundamental cycle, Wu classes, and Stiefel-Whitney classes via the Wu
formula w = Sq(v).  Everything here is independent of the dual-cell
machinery so the two routes can be compared against each other.

Products act on whole chains at once.  They split each simplex by its
vertices in increasing id, the complex's own numbering; a product under
any other vertex order is the product on the complex relabeled by that
order's ranks.  Which face of an m-simplex sits at given vertex positions
depends only on the complex, m and the positions, not on the cochains, so
each such face-index table is the complex's own, built once by
`SimplicialComplex.face_table` and shared by every product and by the
pipeline's counts.  A `VertexOrder` is only the products' handle on the
complex; each product checks that it names the complex once.  A product is
then a few `gf2.gather`s, each one C-level pass that moves bit
table[idx] of a cochain to bit idx: `cup_i` XORs, over its cut terms, the
AND of alpha gathered on the even faces and beta gathered on the odd ones
(`cup` is cup_0), and `cap` gathers alpha on the front faces and scatters
the back faces of the simplices that survive (`gf2.scatter`).  Steenrod's
cut-sequence form of the products (Medina-Mardones, "New formulas for cup-i
products and fast computation of Steenrod squares", Comput. Geom. 2023)
keeps the number of terms small.

A d-cochain is stored as a Chain on the d-skeleton: over GF(2) with the
simplex basis, chains and cochains carry identical data and differ only in
which side of `pairing` they sit on.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress

from .errors import (
    DegreeOverflow,
    DimensionMismatch,
    IndexOutOfRange,
    PairingDegenerate,
)
from .gf2 import BitMatrix, gather, scatter, to_flags
from .homology import mod2_homology
from .simplicial import Chain, SimplicialComplex


class VertexOrder:
    """The products' handle on the vertex order of one complex.

    The products split each simplex into front and back faces by its
    vertices in increasing id.  That numeric order is the only one: on a
    derived complex the ids decrease with the dimension of the underlying
    barycenter, which is the order the subdivision construction wants, and
    any other order is a relabeling of the complex.  The face-index tables
    are the complex's own (`SimplicialComplex.face_table`).
    """

    __slots__ = ("complex",)

    def __init__(self, complex: SimplicialComplex):
        self.complex = complex

    @classmethod
    def numeric(cls, complex: SimplicialComplex) -> VertexOrder:
        """The complex's one order: increasing vertex id."""
        return cls(complex)


def _check_complex(X: SimplicialComplex, item, name: str):
    if item.complex is not X:
        raise DimensionMismatch(f"{name} lives on a different complex")


def cup(X: SimplicialComplex, order: VertexOrder, alpha: Chain,
        beta: Chain) -> Chain:
    """Front-face/back-face cup product of a p- and a q-cochain: cup_0."""
    return cup_i(X, order, alpha, beta, 0)


def cap(X: SimplicialComplex, order: VertexOrder, alpha: Chain,
        c: Chain) -> Chain:
    """Cap product of a p-cochain with a d-chain: evaluate on the front
    p-face, emit the back (d-p)-face, sum mod 2."""
    _check_complex(X, order, "order")
    _check_complex(X, alpha, "alpha")
    _check_complex(X, c, "chain")
    p, d = alpha.dimension, c.dimension
    if p < 0:
        raise IndexOutOfRange(f"cannot cap with a cochain of degree {p}")
    if p > d:
        raise DegreeOverflow(f"cannot cap a {p}-cochain with a {d}-chain")
    front = X.face_table(d, tuple(range(p + 1)))
    back = X.face_table(d, tuple(range(p, d + 1)))
    hit = gather(alpha.bits, front, X.n_simplices(p)) & c.bits
    return Chain(X, d - p, scatter(compress(back, to_flags(hit, len(back))),
                                   X.n_simplices(d - p)))


def cup_i(X: SimplicialComplex, order: VertexOrder, alpha: Chain,
          beta: Chain, i: int) -> Chain:
    """Steenrod's higher product of a p- and a q-cochain.

    On the sorted vertex tuple of a (p+q-i)-simplex, sum over strictly
    increasing cut sequences 0 <= a_1 < ... < a_{i+1} <= p+q-i.  The cuts
    split the vertex list into i+2 closed intervals overlapping at the cut
    points; alpha evaluates on the union of the even-numbered intervals,
    beta on the odd.
    Terms whose interval unions have the wrong cardinality drop out (this
    depends only on p, q, i), so cup_0 is the front/back-face cup product.
    """
    _check_complex(X, order, "order")
    _check_complex(X, alpha, "alpha")
    _check_complex(X, beta, "beta")
    p, q = alpha.dimension, beta.dimension
    if i < 0 or i > min(p, q):
        raise IndexOutOfRange(f"cup-{i} undefined for degrees ({p}, {q})")
    m = p + q - i
    if m > X.dim:
        raise DegreeOverflow(f"cup-{i} degree {m} exceeds dimension {X.dim}")
    a, b, bits = alpha.bits, beta.bits, 0
    na, nb = X.n_simplices(p), X.n_simplices(q)
    for cuts in combinations(range(m + 1), i + 1):
        bounds = (0,) + cuts + (m,)
        parts = [range(bounds[j], bounds[j + 1] + 1) for j in range(i + 2)]
        evens = tuple(k for part in parts[0::2] for k in part)
        odds = tuple(k for part in parts[1::2] for k in part)
        if len(evens) == p + 1 and len(odds) == q + 1:
            bits ^= (gather(a, X.face_table(m, evens), na)
                     & gather(b, X.face_table(m, odds), nb))
    return Chain(X, m, bits)


def steenrod_sq(X: SimplicialComplex, order: VertexOrder, k: int,
                alpha: Chain) -> Chain:
    """Sq^k on a p-cocycle, realized as alpha cup_{p-k} alpha."""
    _check_complex(X, alpha, "alpha")
    if k < 0:
        raise IndexOutOfRange(f"Sq^{k} undefined")
    mod2_homology(X).check_cocycle(alpha)
    return _square(X, order, k, alpha)


def _square(X: SimplicialComplex, order: VertexOrder, k: int,
            alpha: Chain) -> Chain:
    """Sq^k of a cocycle already checked: a zero cochain, and any square
    whose target cochain group is zero (above the degree, or above the
    complex dimension), is zero with no product."""
    p = alpha.dimension
    if alpha.is_zero() or k > p or p + k > X.dim:
        return Chain.zero(X, p + k)
    return cup_i(X, order, alpha, alpha, p - k)


def fundamental_cycle(X: SimplicialComplex) -> Chain:
    """The sum of all top simplices, checked to be a nonzero cycle class."""
    X.require_closed_pseudomanifold()
    gamma = Chain.all_ones(X, X.dim)
    if mod2_homology(X).homology_coordinates(gamma, which="fundamental chain") == 0:
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
    _check_complex(X, cochain, "cochain")
    coords = mod2_homology(X).cohomology_coordinates(cochain)
    return CohomologyClass(X, cochain.dimension, cochain, coords)


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


def wu_classes(X: SimplicialComplex) -> WuData:
    """Solve for the Wu classes degreewise and expand w = Sq(v).

    v_k is the unique class with <v_k cup x, gamma> = <Sq^k x, gamma> for
    every x in H^{n-k}; mod-2 Poincare duality makes the pairing matrix
    square and invertible on manifolds, and a singular pairing is reported
    as PairingDegenerate rather than papered over.
    """
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
        basis, kernel = BitMatrix.from_entries(
            len(xs), len(ys), entries).tagged_reduction()
        if kernel:
            raise PairingDegenerate(
                f"cup pairing H^{k} x H^{n - k} -> H^{n} is singular")
        coords = basis.tags(targets)
        assert coords is not None
        rep = Chain.zero(X, k)
        for jcol, y in enumerate(ys):
            if (coords >> jcol) & 1:
                rep = rep ^ y
        v.append(class_of(X, rep))
    # class_of has checked each v_j by delta; none is checked again per square
    w: list[CohomologyClass] = []
    for i in range(n + 1):
        rep = Chain.zero(X, i)
        for j in range(i + 1):
            rep = rep ^ _square(X, order, i - j, v[j].cocycle)
        w.append(class_of(X, rep))
    return WuData(X, tuple(v), tuple(w))


def poincare_dual_of_cocycle(X: SimplicialComplex, order: VertexOrder,
                             alpha: Chain) -> Chain:
    """Cap a cocycle with the fundamental cycle; the result is a cycle whose
    class depends only on the class of the cocycle."""
    mod2_homology(X).check_cocycle(alpha)
    return cap(X, order, alpha, fundamental_cycle(X))
