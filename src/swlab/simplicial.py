"""Finite abstract simplicial complexes with canonical enumeration.

A simplex is a strictly increasing tuple of non-negative vertex ids.  A
complex stores, per dimension, the lexicographically sorted tuple of its
simplices plus an index map, so every chain group has a fixed basis order and
mod-2 chains can be plain int bit vectors (bit ``i`` = simplex ``skeleton(d)[i]``).

Complexes are immutable after construction.  Every complex is built by one
closure, ``SimplicialComplex.from_canonical_facets``, which walks from the
top dimension down, as the Simplex Tree is built (Boissonnat & Maria,
Algorithmica 2014), and emits the skeletons, their indexes, the facet
tables and the facets together; coboundary matrices, face tables and the
pseudomanifold diagnostic are computed once on request and cached, and the
complex keeps its cohomology pass, which ``homology`` fills.  No cache
refers back to the complex, so reference counting frees it whole.  The
facet tables are the one incidence record, stored as deletion columns:
entry j of column k of ``facet_table(d)`` is the index in ``skeleton(d-1)``
of the facet of d-simplex j without vertex k.  Every other incidence query
reads them by index, as Ripser does (Bauer, J. Appl. Comput. Topol. 2021):
the coboundary columns, the references' boundary matrices, the
pseudomanifold check, chain boundaries and ``face_table``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress, count, groupby
from operator import itemgetter

from .errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    EmptyInput,
    InputTooLarge,
    MalformedFacet,
    NotPseudomanifold,
    SimplexNotInComplex,
)
from .gf2 import BitMatrix, scatter, set_bits, to_flags

__all__ = [
    "Simplex",
    "canonical_simplex",
    "SimplicialComplex",
    "build_complex",
    "Chain",
    "PseudomanifoldReport",
]

Simplex = tuple[int, ...]

# The most vertex entries, faces times vertices per face, that the closure
# may make on one level; a level above it is refused before it is made,
# and a largest facet whose own faces put a level above it before any is.
# Level d makes (d+1)*n_d faces of d vertices each.  RP6, the largest
# input planned, has f = (1093, 36876, 297864, 974400, 1518720, 1128960,
# 322560); its largest level, d = 5, makes 6 * 1128960 faces of 5
# vertices, 33868800 entries, so the budget leaves it 1.98x headroom.
CLOSURE_BUDGET = 2 ** 26


def _check_largest_facet(size: int) -> None:
    """Refuse, before any level is made, a facet of `size` vertices whose
    own faces would put some level of the closure over CLOSURE_BUDGET.

    The facet puts C(size, d+1) simplices in skeleton(d), so level d makes
    at least (d+1)*C(size, d+1) faces of d vertices.  The levels are walked
    from the top, C(size, d+1) updated in place, and the walk stops at the
    first one over the budget, so a huge facet costs no more than a small
    one."""
    simplices = 1  # C(size, d+1)
    for d in range(size - 1, 0, -1):
        faces = (d + 1) * simplices
        if faces * d > CLOSURE_BUDGET:
            raise InputTooLarge(
                f"closing a facet of {size} vertices would make at least {faces} faces "
                f"of {d} vertices, {faces * d} vertex entries over the budget of "
                f"{CLOSURE_BUDGET}")
        simplices = simplices * (d + 1) // (size - d)


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
        "_facet_tables",
        "_coboundary",
        "_face_tables",
        "_cohomology",
        "_pm_report",
    )

    def __init__(self, skeletons: tuple[tuple[Simplex, ...], ...],
                 index: tuple[dict[Simplex, int], ...],
                 facet_tables: tuple[tuple[tuple[int, ...], ...], ...],
                 facets: tuple[Simplex, ...]):
        # trusted constructor: the fields come from from_canonical_facets
        self._skeletons = skeletons
        self._index = index
        self._facet_tables = facet_tables
        self._facets = facets
        self._coboundary: dict[int, BitMatrix] = {}
        self._face_tables: dict[tuple[int, tuple[int, ...]], Sequence[int]] = {}
        self._cohomology: list = []  # the cohomology pass, filled by homology
        self._pm_report: PseudomanifoldReport | None = None

    # ---------------------------------------------------------------- build

    @classmethod
    def from_facets(cls, facets) -> SimplicialComplex:
        """Validate each facet (MalformedFacet; EmptyInput if there is none)
        and close the list downward."""
        facet_list = [canonical_simplex(f) for f in facets]
        if not facet_list:
            raise EmptyInput("at least one facet is required")
        return cls.from_canonical_facets(facet_list)

    @classmethod
    def from_canonical_facets(cls, facets) -> SimplicialComplex:
        """Downward closure of facets that are already canonical simplices,
        trusted as they are (repeated or redundant ones allowed); no facet
        gives the empty complex.

        One pass from the top dimension down.  The d+1 deletion columns of
        skeleton(d), together with the listed simplices of dimension d-1,
        give skeleton(d-1) and its index; the same columns, read through
        that index, are facet_table(d); and a listed simplex of dimension
        d-1 is a facet exactly when it is in no deletion column.  A column
        entry is looked up by hash once, as it is made: it is numbered by
        the position where its face first occurs, and the table reads
        that number through the sort's ranking."""
        # dict.fromkeys drops repeats but keeps the input order, so the
        # sorts below start from the runs of an already sorted list
        listed = {size: dict.fromkeys(group)
                  for size, group in groupby(sorted(facets, key=len), len)}
        if not listed:
            return cls((), (), (), ())
        top = max(listed)
        _check_largest_facet(top)
        sk = tuple(sorted(listed.pop(top)))
        skeletons, indexes, tables, maximal = [sk], [dict(zip(sk, count()))], [], [sk]
        for d in range(top - 1, 0, -1):  # sk is skeleton(d)
            n = len(sk)
            if (d + 1) * n * d > CLOSURE_BUDGET:
                raise InputTooLarge(
                    f"closing the facets would make {(d + 1) * n} faces of {d} vertices, "
                    f"{(d + 1) * n * d} vertex entries over the budget of {CLOSURE_BUDGET}")
            # the deletion columns, last first: the last one is sorted, so the
            # sort below starts from one long run.  itemgetter of one
            # position gives a bare vertex; zip makes it a 1-tuple
            getters = (itemgetter(*range(k), *range(k + 1, d + 1)) for k in range(d, -1, -1))
            faces = chain.from_iterable(map(g, sk) if d > 1 else zip(map(g, sk)) for g in getters)
            # each face's id is the position where it first occurs; a repeat
            # is dropped at once, so no column is held as tuples
            index: dict[Simplex, int] = {}
            ids = list(map(index.setdefault, faces, count()))
            first_at = list(index.values())
            lone = [s for s in listed.pop(d, ()) if s not in index]
            sk = tuple(sorted(chain(index, lone)))
            index.update(zip(sk, count()))  # now the index of skeleton(d-1)
            rank = dict(zip(first_at, index.values()))
            tables.append(tuple(tuple(map(rank.__getitem__, ids[j * n:(j + 1) * n]))
                                for j in range(d, -1, -1)))
            skeletons.append(sk)
            indexes.append(index)
            maximal.append(tuple(sorted(lone)))
        return cls(tuple(reversed(skeletons)), tuple(reversed(indexes)),
                   tuple(reversed(tables)), tuple(chain.from_iterable(reversed(maximal))))

    @classmethod
    def empty(cls) -> SimplicialComplex:
        return cls.from_canonical_facets(())

    # ---------------------------------------------------------------- basics

    @property
    def dim(self) -> int:
        return len(self._skeletons) - 1

    @property
    def facets(self) -> tuple[Simplex, ...]:
        """The simplices that are a face of none, in (len, s) order."""
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

    def _locate(self, simplex) -> tuple[int, int]:
        """(dimension, index) of a simplex. Raises SimplexNotInComplex."""
        s = canonical_simplex(simplex)
        d = len(s) - 1
        if d > self.dim or s not in self._index[d]:
            raise SimplexNotInComplex(f"{s} not in complex")
        return d, self._index[d][s]

    def index(self, simplex) -> int:
        return self._locate(simplex)[1]

    def simplices(self):
        for sk in self._skeletons:
            yield from sk

    # ------------------------------------------------------------- incidence

    def cofacets(self, simplex) -> tuple[Simplex, ...]:
        """Cofaces of codimension one, in skeleton order: the support of the
        simplex's column of the coboundary."""
        d, i = self._locate(simplex)
        return tuple(self._skeletons[d + 1][j]
                     for j in set_bits(self.coboundary_matrix(d).columns[i]))

    def facet_table(self, d: int) -> tuple[tuple[int, ...], ...]:
        """The d+1 deletion columns of the d-simplices: entry j of column k
        is the index in skeleton(d-1) of the facet of d-simplex j that
        leaves out vertex k.  Built by the closure with the skeletons."""
        if not 1 <= d <= self.dim:
            raise DimensionOutOfRange(f"facet table dimension {d} outside 1..{self.dim}")
        return self._facet_tables[d - 1]

    def face_table(self, m: int, positions: tuple[int, ...]) -> Sequence[int]:
        """For each m-simplex in skeleton order, the index of its face
        spanned by the vertices at `positions` of its sorted vertex tuple;
        built on first use and cached.  All positions give the simplices
        themselves.  Otherwise the first position r left out names a facet,
        which keeps the order of the other vertices: with r the only one
        left out the table is column r of facet_table(m) itself, and else
        the facets' table at the positions above r shifted down, read
        through that column."""
        table = self._face_tables.get((m, positions))
        if table is None:
            if len(positions) == m + 1:
                table = range(self.n_simplices(m))
            else:
                r = next(r for r, p in enumerate(positions + (m + 1,)) if r != p)
                table = self.facet_table(m)[r]
                if len(positions) < m:
                    sub = self.face_table(m - 1, tuple(p - (p > r) for p in positions))
                    table = list(map(sub.__getitem__, table))
            self._face_tables[m, positions] = table
        return table

    def coboundary_matrix(self, d: int) -> BitMatrix:
        """Mod-2 coboundary, built once from facet_table(d+1): rows =
        (d+1)-simplices (none at d = dim), columns = d-simplices."""
        if not 0 <= d <= self.dim:
            raise DimensionOutOfRange(f"coboundary dimension {d} outside 0..{self.dim}")
        if d not in self._coboundary:
            columns = [0] * len(self._skeletons[d])
            row_bits = [1 << j for j in range(self.n_simplices(d + 1))]
            for deletion in self.facet_table(d + 1) if d < self.dim else ():
                for i, bit in zip(deletion, row_bits):
                    columns[i] |= bit
            self._coboundary[d] = BitMatrix(self.n_simplices(d + 1), len(columns), columns)
        return self._coboundary[d]

    def boundary_matrix(self, d: int) -> BitMatrix:
        """Mod-2 boundary, built afresh from facet_table(d) for the
        references: rows = (d-1)-simplices, columns = d-simplices; column j
        has the bits of the facets of d-simplex j."""
        if not 1 <= d <= self.dim:
            raise DimensionOutOfRange(f"boundary dimension {d} outside 1..{self.dim}")
        columns = [sum(1 << i for i in faces) for faces in zip(*self.facet_table(d))]
        return BitMatrix(len(self._skeletons[d - 1]), len(columns), columns)

    def link(self, simplex) -> SimplicialComplex:
        """All tau disjoint from sigma with tau + sigma in the complex."""
        s = canonical_simplex(simplex)
        self._locate(s)  # raises SimplexNotInComplex
        sset = set(s)
        return SimplicialComplex.from_canonical_facets(
            tuple(v for v in t if v not in sset)
            for t in self.simplices() if len(t) > len(s) and sset <= set(t))

    # ---------------------------------------------------------- pseudomanifold

    def require_closed_pseudomanifold(self) -> PseudomanifoldReport:
        """The pseudomanifold report, or NotPseudomanifold naming the first
        condition it fails."""
        pm = self.is_closed_pseudomanifold()
        if not pm.pure:
            facet = pm.impure_facets[0]
            reason = f"facet {facet} has dimension {len(facet) - 1}, not {pm.dimension}"
        elif not pm.ridges_ok:
            ridge, count = pm.bad_ridges[0]
            reason = f"ridge {ridge} lies in {count} facets, not 2"
        elif not pm.connected:
            reason = f"{pm.n_components} components, not 1"
        else:
            return pm
        raise NotPseudomanifold(f"input is not a closed pseudomanifold: {reason}", report=pm)

    def is_closed_pseudomanifold(self) -> PseudomanifoldReport:
        if self._pm_report is not None:
            return self._pm_report
        n = self.dim
        impure = tuple(f for f in self.facets if len(f) != n + 1)
        # entry j of each column of facet_table(n) is a ridge of top j; points
        # have no ridge.  Union-find joins each top to the first top seen
        # around each of its ridges, giving the components of the facet graph.
        tops = self._skeletons[n] if n >= 0 else ()
        ridges, table = (self._skeletons[n - 1], self.facet_table(n)) if n >= 1 else ((), ())
        count = Counter(chain.from_iterable(table))
        bad_ridges = [(r, c) for r, c in zip(ridges, map(count.__getitem__, range(len(ridges))))
                      if c != 2]
        root = list(range(len(tops)))

        def find(j):
            while root[j] != j:
                root[j] = j = root[root[j]]  # path halving
            return j

        first: dict[int, int] = {}
        for column in table:
            for j, r in enumerate(column):
                other = first.setdefault(r, j)
                if other != j:
                    root[find(other)] = find(j)
        n_comp = sum(root[j] == j for j in range(len(tops)))
        self._pm_report = PseudomanifoldReport(
            dimension=n,
            pure=not impure,
            impure_facets=impure[:20],
            ridges_ok=not bad_ridges,
            bad_ridges=tuple(bad_ridges[:20]),
            connected=n_comp == 1,
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
        # a zero chain may lie in a zero group outside 0..dim, with no skeleton
        sk = self.complex.skeleton(self.dimension) if self.bits else ()
        return tuple(sk[i] for i in set_bits(self.bits))

    def pairing(self, other: Chain) -> int:
        """<cochain, chain> over GF(2): parity of the common support."""
        self._check_same_space(other)
        return (self.bits & other.bits).bit_count() & 1

    def boundary(self) -> Chain:
        """Bit r is the parity of the chain on the cofacets of (d-1)-simplex
        r: each column of facet_table(d), compressed to the support, scattered."""
        d, X = self.dimension, self.complex
        if d <= 0 or d > X.dim:
            return Chain(X, d - 1, 0)
        flags = to_flags(self.bits, X.n_simplices(d))
        faces = chain.from_iterable(compress(column, flags) for column in X.facet_table(d))
        return Chain(X, d - 1, scatter(faces, X.n_simplices(d - 1)))

    def coboundary(self) -> Chain:
        """Cochain coboundary: delta_d applied to the bits."""
        d = self.dimension
        if not 0 <= d <= self.complex.dim:
            return Chain(self.complex, d + 1, 0)
        return Chain(self.complex, d + 1, self.complex.coboundary_matrix(d).matvec(self.bits))

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
            if len(s) != dimension + 1:
                raise DimensionMismatch(f"{s!r} is not a {dimension}-simplex")
            bits ^= 1 << complex.index(s)
        return cls(complex, dimension, bits)
