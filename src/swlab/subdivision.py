"""Barycentric subdivision realized on flags of the base complex.

A derived vertex is a base simplex (its barycenter); a derived k-simplex is a
flag: a chain of k+1 base simplices each a proper face of the previous one.
`derived_facets` lists the full flags, one per facet and order of its
vertices, and the derived complex is their downward closure.  Derived vertex
ids are assigned by decreasing base dimension (ties broken
lexicographically), so the id tuple of a flag is automatically increasing and
canonical.  A derived simplex is its id tuple, and `simplices[v]` maps a
derived vertex back to its base simplex; the chain maps, the flag dual cells
and the partner involution read them.

The verification report builds none of this: it counts what it needs on the
base (`swlab.pipeline.all_ones_chains`).  This module is the flag-level
reference those counts are checked against.
"""

from __future__ import annotations

from itertools import permutations

from .errors import DimensionOutOfRange, NotAFlagCell
from .gf2 import BitMatrix
from .simplicial import Simplex, SimplicialComplex

__all__ = [
    "SubdividedComplex",
    "barycentric_subdivide",
    "derived_facets",
    "flag_dual_cells",
]


def derived_facets(facets, vertex) -> set[Simplex]:
    """Facets of the barycentric subdivision of the complex with these facets.

    Each facet F and order p of F's vertices give the flag of p's initial
    segments, as the sorted tuple of their ids ``vertex(segment)``.  `vertex`
    numbers the derived vertices; under a quotient's numbering two flags may
    share an id tuple, and the set keeps one.
    """
    return {tuple(sorted(vertex(tuple(sorted(p[:k]))) for k in range(1, len(p) + 1)))
            for f in facets for p in permutations(f)}


class SubdividedComplex:
    """Base complex and its barycentric subdivision: the derived complex,
    built once as the closure of `derived_facets`, and the numbering of
    derived vertices by base simplices both ways."""

    __slots__ = ("base", "simplices", "vertex_id", "derived")

    def __init__(self, base: SimplicialComplex):
        self.base = base
        self.simplices: list[Simplex] = sorted(base.simplices(),
                                               key=lambda s: (-len(s), s))
        self.vertex_id: dict[Simplex, int] = {
            s: i for i, s in enumerate(self.simplices)}
        self.derived = SimplicialComplex.from_canonical_facets(
            derived_facets(base.facets, self.vertex_id.__getitem__))

    def chain_map(self, d: int) -> BitMatrix:
        """Mod-2 subdivision chain map C_d(base) -> C_d(derived).

        Column sigma carries the (d+1)! full flags inside sigma: the derived
        d-simplices whose flag starts at the d-simplex sigma.
        """
        if not 0 <= d <= self.base.dim:
            raise DimensionOutOfRange(f"dimension {d} outside 0..{self.base.dim}")
        col = self.base._index[d]
        entries = []
        for i, t in enumerate(self.derived.skeleton(d)):
            top = self.simplices[t[0]]
            if len(top) == d + 1:
                entries.append((i, col[top]))
        return BitMatrix.from_entries(
            self.derived.n_simplices(d), self.base.n_simplices(d), entries)

    def partner(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        """The partner of a flag dual cell, as derived vertex ids.

        ``ids`` is a derived simplex whose flag runs through dimensions n,
        n-1, ..., n-i with i >= 1.  Its top is swapped for the other facet
        around the ridge ``ids[1]``, read from the base's cofacets; facets
        carry the smallest ids, so the result is still sorted.  Raises
        NotPseudomanifold unless the base is a closed pseudomanifold, and
        NotAFlagCell unless ``ids`` is a derived simplex that starts with a
        facet and a ridge of it.
        """
        self.base.require_closed_pseudomanifold()
        d = len(ids) - 1
        # the top of a flag is a proper coface of its second member, so a
        # ridge in second place puts a facet on top
        if (not 1 <= d <= self.derived.dim or ids not in self.derived._index[d]
                or len(self.simplices[ids[1]]) != self.base.dim):
            raise NotAFlagCell(f"{ids} does not start with a facet and its ridge")
        top, ridge = self.simplices[ids[0]], self.simplices[ids[1]]
        a, b = self.base.cofacets(ridge)
        return (self.vertex_id[b if a == top else a],) + ids[1:]

    def __repr__(self):
        return (f"SubdividedComplex(base f={self.base.f_vector}, "
                f"derived f={self.derived.f_vector})")


def barycentric_subdivide(complex: SimplicialComplex) -> SubdividedComplex:
    return SubdividedComplex(complex)


def flag_dual_cells(subdivision: SubdividedComplex, i: int):
    """Derived i-simplices whose flags run through dimensions n, n-1, ..., n-i.

    Returns {base (n-i)-simplex: [derived id tuples]} with keys in skeleton
    order and cells in derived skeleton order, which is sorted id order.
    """
    subdivision.base.require_closed_pseudomanifold()
    n = subdivision.base.dim
    if not 0 <= i <= n:
        raise DimensionOutOfRange(f"cell degree {i} outside 0..{n}")
    groups: dict[Simplex, list[tuple[int, ...]]] = {
        s: [] for s in subdivision.base.skeleton(n - i)
    }
    simplices = subdivision.simplices
    for t in subdivision.derived.skeleton(i):
        if len(simplices[t[0]]) == n + 1 and len(simplices[t[-1]]) == n - i + 1:
            groups[simplices[t[-1]]].append(t)
    return groups
