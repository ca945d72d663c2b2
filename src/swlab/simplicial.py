"""Finite abstract simplicial complexes with canonical enumeration.

A simplex is a strictly increasing tuple of non-negative vertex ids.  A
complex stores, per dimension, the lexicographically sorted tuple of its
simplices plus an index map, so every chain group has a fixed basis order and
mod-2 chains can be plain int bit vectors (bit ``i`` = simplex ``skeleton(d)[i]``).

Complexes are immutable after construction; derived data (boundary matrices,
coface maps, the pseudomanifold diagnostic) is computed once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    EmptyInput,
    MalformedFacet,
    SimplexNotInComplex,
)
from .gf2 import BitMatrix

__all__ = [
    "Simplex",
    "canonical_simplex",
    "SimplicialComplex",
    "build_complex",
    "Chain",
    "PseudomanifoldReport",
]

Simplex = tuple[int, ...]


def canonical_simplex(vertices) -> Simplex:
    """Sort and validate a vertex tuple. Raises MalformedFacet."""
    vs = tuple(vertices)
    if not vs:
        raise MalformedFacet("empty vertex tuple")
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise MalformedFacet(f"vertex ids must be non-negative ints, got {v!r}")
    out = tuple(sorted(vs))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise MalformedFacet(f"repeated vertex {a} in {vs!r}")
    return out


@dataclass(frozen=True)
class PseudomanifoldReport:
    """Diagnostic for the closed-pseudomanifold check.

    passed = pure and every ridge in exactly two facets and facet graph
    connected.  Offender lists are capped at 20 entries to stay printable.
    """

    dimension: int
    pure: bool
    impure_facets: tuple[Simplex, ...]
    ridges_ok: bool
    bad_ridges: tuple[tuple[Simplex, int], ...]
    connected: bool
    n_components: int

    @property
    def passed(self) -> bool:
        return self.pure and self.ridges_ok and self.connected


class SimplicialComplex:
    """Downward-closed set of simplices with per-dimension canonical order."""

    __slots__ = (
        "_skeletons",
        "_index",
        "_facets",
        "_boundary",
        "_cofaces",
        "_pm_report",
        "_extra",
    )

    def __init__(self, skeletons: tuple[tuple[Simplex, ...], ...]):
        # trusted constructor: skeletons must already be closed and sorted
        self._skeletons = skeletons
        self._index = tuple({s: i for i, s in enumerate(sk)} for sk in skeletons)
        self._boundary: dict[int, BitMatrix] = {}
        self._cofaces: dict[Simplex, tuple[Simplex, ...]] | None = None
        self._pm_report: PseudomanifoldReport | None = None
        self._extra: dict = {}  # scratch cache for sibling modules
        # a facet is a face of no simplex one dimension up; walking the
        # skeletons upward keeps the (len, s) order
        facets = []
        for d, sk in enumerate(skeletons):
            up = skeletons[d + 1] if d + 1 < len(skeletons) else ()
            faces = {t[:k] + t[k + 1 :] for t in up for k in range(len(t))}
            facets.extend(s for s in sk if s not in faces)
        self._facets = tuple(facets)

    # ---------------------------------------------------------------- build

    @classmethod
    def from_facets(cls, facets) -> SimplicialComplex:
        facet_list = [canonical_simplex(f) for f in facets]
        if not facet_list:
            raise EmptyInput("at least one facet is required")
        by_dim: dict[int, set[Simplex]] = {}
        for f in facet_list:
            for k in range(1, len(f) + 1):
                for face in combinations(f, k):
                    by_dim.setdefault(k - 1, set()).add(face)
        dim = max(by_dim)
        skeletons = tuple(tuple(sorted(by_dim.get(d, ()))) for d in range(dim + 1))
        return cls(skeletons)

    @classmethod
    def empty(cls) -> SimplicialComplex:
        return cls(())

    # ---------------------------------------------------------------- basics

    @property
    def dim(self) -> int:
        return len(self._skeletons) - 1

    @property
    def facets(self) -> tuple[Simplex, ...]:
        return self._facets

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(sk) for sk in self._skeletons)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(sk) for d, sk in enumerate(self._skeletons))

    def skeleton(self, d: int) -> tuple[Simplex, ...]:
        if not 0 <= d <= self.dim:
            raise DimensionOutOfRange(f"dimension {d} outside 0..{self.dim}")
        return self._skeletons[d]

    def n_simplices(self, d: int) -> int:
        """Like len(skeleton(d)) but 0 outside the range (empty chain group)."""
        if 0 <= d <= self.dim:
            return len(self._skeletons[d])
        return 0

    def total_simplices(self) -> int:
        return sum(len(sk) for sk in self._skeletons)

    def vertices(self) -> tuple[int, ...]:
        if self.dim < 0:
            return ()
        return tuple(s[0] for s in self._skeletons[0])

    def contains(self, simplex) -> bool:
        s = canonical_simplex(simplex)
        d = len(s) - 1
        return d <= self.dim and s in self._index[d]

    def index(self, simplex) -> int:
        s = canonical_simplex(simplex)
        d = len(s) - 1
        if d > self.dim or s not in self._index[d]:
            raise SimplexNotInComplex(f"{s} not in complex")
        return self._index[d][s]

    def simplices(self):
        for sk in self._skeletons:
            yield from sk

    # ------------------------------------------------------------- incidence

    def cofacets(self, simplex) -> tuple[Simplex, ...]:
        """Cofaces of codimension one, in skeleton order."""
        if self._cofaces is None:
            cof: dict[Simplex, list[Simplex]] = {s: [] for s in self.simplices()}
            for d in range(1, self.dim + 1):
                for t in self._skeletons[d]:
                    for k in range(len(t)):
                        cof[t[:k] + t[k + 1 :]].append(t)
            self._cofaces = {s: tuple(v) for s, v in cof.items()}
        s = canonical_simplex(simplex)
        if s not in self._cofaces:
            raise SimplexNotInComplex(f"{s} not in complex")
        return self._cofaces[s]

    def boundary_matrix(self, d: int) -> BitMatrix:
        """Mod-2 boundary: rows = (d-1)-simplices, columns = d-simplices."""
        if not 1 <= d <= self.dim:
            raise DimensionOutOfRange(f"boundary dimension {d} outside 1..{self.dim}")
        if d not in self._boundary:
            rows = self._index[d - 1]
            entries = []
            for j, t in enumerate(self._skeletons[d]):
                for k in range(len(t)):
                    entries.append((rows[t[:k] + t[k + 1 :]], j))
            self._boundary[d] = BitMatrix.from_entries(
                len(self._skeletons[d - 1]), len(self._skeletons[d]), entries
            )
        return self._boundary[d]

    def link(self, simplex) -> SimplicialComplex:
        """All tau disjoint from sigma with tau + sigma in the complex."""
        s = canonical_simplex(simplex)
        if not self.contains(s):
            raise SimplexNotInComplex(f"{s} not in complex")
        sset = set(s)
        by_dim: dict[int, set[Simplex]] = {}
        for t in self.simplices():
            if len(t) <= len(s):
                continue
            tset = set(t)
            if sset <= tset:
                rest = tuple(v for v in t if v not in sset)
                by_dim.setdefault(len(rest) - 1, set()).add(rest)
        if not by_dim:
            return SimplicialComplex.empty()
        dim = max(by_dim)
        skeletons = tuple(tuple(sorted(by_dim.get(d, ()))) for d in range(dim + 1))
        return SimplicialComplex(skeletons)

    # ---------------------------------------------------------- pseudomanifold

    def is_closed_pseudomanifold(self) -> PseudomanifoldReport:
        if self._pm_report is not None:
            return self._pm_report
        n = self.dim
        impure = tuple(f for f in self._facets if len(f) != n + 1)
        pure = not impure
        bad_ridges: list[tuple[Simplex, int]] = []
        if n >= 1:
            for r in self._skeletons[n - 1]:
                cnt = len(self.cofacets(r))
                if cnt != 2:
                    bad_ridges.append((r, cnt))
        ridges_ok = not bad_ridges
        # facet adjacency across ridges
        tops = self._skeletons[n] if n >= 0 else ()
        n_comp = 0
        if tops:
            idx = self._index[n]
            seen = [False] * len(tops)
            for start in range(len(tops)):
                if seen[start]:
                    continue
                n_comp += 1
                stack = [start]
                seen[start] = True
                while stack:
                    t = tops[stack.pop()]
                    for k in range(len(t)):
                        for u in self.cofacets(t[:k] + t[k + 1 :]):
                            j = idx.get(u)
                            if j is not None and not seen[j]:
                                seen[j] = True
                                stack.append(j)
        connected = n_comp == 1
        self._pm_report = PseudomanifoldReport(
            dimension=n,
            pure=pure,
            impure_facets=impure[:20],
            ridges_ok=ridges_ok,
            bad_ridges=tuple(bad_ridges[:20]),
            connected=connected,
            n_components=n_comp,
        )
        return self._pm_report

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dim}, f={self.f_vector})"


def build_complex(facets) -> SimplicialComplex:
    """Close a facet list downward into a complex (facets may be redundant)."""
    return SimplicialComplex.from_facets(facets)


@dataclass(frozen=True)
class Chain:
    """Mod-2 chain in a fixed dimension; doubles as a cochain (dual basis).

    ``bits`` is an int bit vector over ``complex.skeleton(dimension)``.
    Dimensions outside 0..dim are allowed and denote the zero group (handy for
    degree bookkeeping at the boundaries of products).
    """

    complex: SimplicialComplex
    dimension: int
    bits: int

    def __post_init__(self):
        n = self.complex.n_simplices(self.dimension)
        if self.bits < 0 or self.bits >> n:
            raise DimensionMismatch(
                f"bit vector exceeds {n} simplices in dimension {self.dimension}"
            )

    def _check_same_space(self, other: Chain):
        if self.complex is not other.complex or self.dimension != other.dimension:
            raise DimensionMismatch("chains live in different chain groups")

    def __xor__(self, other: Chain) -> Chain:
        self._check_same_space(other)
        return Chain(self.complex, self.dimension, self.bits ^ other.bits)

    __add__ = __xor__

    def is_zero(self) -> bool:
        return self.bits == 0

    def popcount(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[Simplex, ...]:
        sk = self.complex.skeleton(self.dimension)
        x = self.bits
        out = []
        while x:
            i = (x & -x).bit_length() - 1
            out.append(sk[i])
            x &= x - 1
        return tuple(out)

    def pairing(self, other: Chain) -> int:
        """<cochain, chain> over GF(2): parity of the common support."""
        self._check_same_space(other)
        return (self.bits & other.bits).bit_count() & 1

    def boundary(self) -> Chain:
        d = self.dimension
        if d <= 0 or d > self.complex.dim:
            return Chain(self.complex, d - 1, 0)
        return Chain(self.complex, d - 1, self.complex.boundary_matrix(d).matvec(self.bits))

    def coboundary(self) -> Chain:
        """Cochain coboundary: transpose of the (d+1)-boundary."""
        d = self.dimension
        if d < 0 or d + 1 > self.complex.dim:
            return Chain(self.complex, d + 1, 0)
        return Chain(self.complex, d + 1, self.complex.boundary_matrix(d + 1).matvec_t(self.bits))

    @classmethod
    def zero(cls, complex: SimplicialComplex, dimension: int) -> Chain:
        return cls(complex, dimension, 0)

    @classmethod
    def all_ones(cls, complex: SimplicialComplex, dimension: int) -> Chain:
        n = complex.n_simplices(dimension)
        return cls(complex, dimension, (1 << n) - 1 if n else 0)

    @classmethod
    def from_simplices(cls, complex: SimplicialComplex, dimension: int, simplices) -> Chain:
        bits = 0
        for s in simplices:
            bits ^= 1 << complex.index(s)
        return cls(complex, dimension, bits)
