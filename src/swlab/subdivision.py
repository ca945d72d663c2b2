"""Barycentric subdivision realized on flags of the base complex.

A derived vertex is a base simplex (its barycenter); a derived k-simplex is a
flag: a chain of k+1 base simplices each a proper face of the previous one.
Derived vertex ids are assigned by decreasing base dimension (ties broken
lexicographically), so the id tuple of a flag is automatically increasing and
canonical.  The flag behind every derived simplex is stored at build time,
and the chain maps, the flag dual cells and the partner involution are all
read from that one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    DimensionOutOfRange,
    NotAFlagCell,
    NotPseudomanifold,
    SimplexNotInComplex,
)
from .gf2 import BitMatrix
from .simplicial import Simplex, SimplicialComplex

__all__ = [
    "FlagSimplex",
    "SubdividedComplex",
    "barycentric_subdivide",
    "flag_dual_cells",
    "flag_partner",
]


def _is_proper_face(a: Simplex, b: Simplex) -> bool:
    return len(a) < len(b) and set(a) <= set(b)


@dataclass(frozen=True)
class FlagSimplex:
    """Descending chain of base simplices (each a proper face of the previous)."""

    chain: tuple[Simplex, ...]

    def __post_init__(self):
        if not self.chain:
            raise NotAFlagCell("empty flag")
        for a, b in zip(self.chain, self.chain[1:]):
            if not _is_proper_face(b, a):
                raise NotAFlagCell(f"{b} is not a proper face of {a}")

    @property
    def degree(self) -> int:
        return len(self.chain) - 1

    @property
    def top(self) -> Simplex:
        return self.chain[0]

    @property
    def bottom(self) -> Simplex:
        return self.chain[-1]

    def dims(self) -> tuple[int, ...]:
        return tuple(len(s) - 1 for s in self.chain)


class SubdividedComplex:
    """Base complex, its barycentric subdivision, and the flag bookkeeping."""

    __slots__ = ("base", "derived", "vertex_id", "_flags", "_chain_maps", "_ridge_tops")

    def __init__(self, base: SimplicialComplex):
        self.base = base
        order = sorted(base.simplices(), key=lambda s: (-len(s), s))
        self.vertex_id: dict[Simplex, int] = {s: i for i, s in enumerate(order)}
        flags: dict[tuple[int, ...], tuple[Simplex, ...]] = {}
        vid = self.vertex_id

        def extend(ids: tuple[int, ...], chain: tuple[Simplex, ...]):
            flags[ids] = chain
            last = chain[-1]
            for k in range(1, len(last)):
                for face in combinations(last, k):
                    extend(ids + (vid[face],), chain + (face,))

        for s in order:
            extend((vid[s],), (s,))
        self._flags = flags
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for t in flags:
            by_dim.setdefault(len(t) - 1, []).append(t)
        skeletons = tuple(tuple(sorted(by_dim[d])) for d in range(len(by_dim)))
        self.derived = SimplicialComplex(skeletons)
        self._chain_maps: dict[int, BitMatrix] = {}
        self._ridge_tops: dict[int, tuple[int, ...]] | None = None

    def flag_of(self, derived_simplex) -> FlagSimplex:
        t = tuple(derived_simplex)
        chain = self._flags.get(t)
        if chain is None:
            raise NotAFlagCell(f"{t} is not a derived simplex")
        return FlagSimplex(chain)

    def chain_map(self, d: int) -> BitMatrix:
        """Mod-2 subdivision chain map C_d(base) -> C_d(derived).

        Column sigma carries the (d+1)! full flags inside sigma: the derived
        d-simplices whose flag starts at the d-simplex sigma.
        """
        if not 0 <= d <= self.base.dim:
            raise DimensionOutOfRange(f"dimension {d} outside 0..{self.base.dim}")
        if d not in self._chain_maps:
            col = self.base._index[d]
            entries = []
            for i, t in enumerate(self.derived.skeleton(d)):
                top = self._flags[t][0]
                if len(top) == d + 1:
                    entries.append((i, col[top]))
            self._chain_maps[d] = BitMatrix.from_entries(
                self.derived.n_simplices(d), self.base.n_simplices(d), entries
            )
        return self._chain_maps[d]

    def partner(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        """The partner of a flag dual cell, as derived vertex ids.

        ``ids`` is a derived simplex whose flag runs through dimensions n,
        n-1, ..., n-i with i >= 1.  Its top id is swapped for the other facet
        around the ridge ``ids[1]``; facets carry the smallest ids, so the
        result is still sorted.  Raises NotPseudomanifold unless the base is
        a closed pseudomanifold, and NotAFlagCell unless ``ids`` is a derived
        simplex that starts with a facet and a ridge of it.
        """
        if self._ridge_tops is None:
            _require_closed_base(self)
            vid = self.vertex_id
            self._ridge_tops = {
                vid[r]: tuple(vid[t] for t in self.base.cofacets(r))
                for r in self.base.skeleton(self.base.dim - 1)
            }
        tops = self._ridge_tops.get(ids[1]) if len(ids) > 1 else None
        if tops is None or ids[0] not in tops or ids not in self._flags:
            raise NotAFlagCell(f"{ids} does not start with a facet and its ridge")
        a, b = tops
        return (b if ids[0] == a else a,) + ids[1:]

    def __repr__(self):
        return f"SubdividedComplex(base f={self.base.f_vector}, derived f={self.derived.f_vector})"


def barycentric_subdivide(complex: SimplicialComplex) -> SubdividedComplex:
    return SubdividedComplex(complex)


def _require_closed_base(subdivision: SubdividedComplex):
    report = subdivision.base.is_closed_pseudomanifold()
    if not report.passed:
        raise NotPseudomanifold("base complex is not a closed pseudomanifold", report)


def flag_dual_cells(subdivision: SubdividedComplex, i: int):
    """Derived i-simplices whose flags run through dimensions n, n-1, ..., n-i.

    Returns {base (n-i)-simplex: [derived id tuples]} with keys in skeleton
    order and cells in derived skeleton order.
    """
    _require_closed_base(subdivision)
    n = subdivision.base.dim
    if not 0 <= i <= n:
        raise DimensionOutOfRange(f"cell degree {i} outside 0..{n}")
    groups: dict[Simplex, list[tuple[int, ...]]] = {
        s: [] for s in subdivision.base.skeleton(n - i)
    }
    for t in subdivision.derived.skeleton(i):
        chain = subdivision._flags[t]
        if len(chain[0]) == n + 1 and len(chain[-1]) == n - i + 1:
            groups[chain[-1]].append(t)
    return groups


def flag_partner(subdivision: SubdividedComplex, cell: FlagSimplex) -> FlagSimplex:
    """Swap the top simplex for the other facet around the same ridge.

    Defined for cells of degree >= 1 whose flag starts at a top-dimensional
    simplex with consecutive dimensions; a fixed-point-free involution on
    closed pseudomanifolds.  Any other base raises NotPseudomanifold for
    every cell, even one whose ridge lies in exactly two facets.
    """
    n = subdivision.base.dim
    dims = cell.dims()
    if cell.degree < 1 or dims != tuple(range(n, n - cell.degree - 1, -1)):
        raise NotAFlagCell(f"flag dimensions {dims} are not consecutive from {n}")
    missing = [s for s in cell.chain if s not in subdivision.vertex_id]
    if missing:
        raise SimplexNotInComplex(f"{missing[0]} not in complex")
    ids = tuple(subdivision.vertex_id[s] for s in cell.chain)
    return subdivision.flag_of(subdivision.partner(ids))
