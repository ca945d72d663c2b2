"""Built-in triangulations of small closed manifolds.

Every entry is a closed pseudomanifold and is revalidated each time it is
loaded: the facet list must pass the pseudomanifold check and the mod-2
Betti numbers must match the frozen expectations.  A corrupted entry fails
loudly with CorpusValidationFailed.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import CorpusValidationFailed, UnknownCorpusEntry
from .homology import mod2_homology
from .simplicial import Simplex, SimplicialComplex, build_complex
from .subdivision import derived_facets

# Antipodal quotient of the icosahedron: the 6-vertex projective plane.
_RP2_FACETS = [
    (0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5),
]


def _torus_facets() -> list[Simplex]:
    """Cyclic 7-vertex torus: orbits of {0,1,3} and {0,2,3} under i -> i+1."""
    facets = set()
    for i in range(7):
        for tri in ((0, 1, 3), (0, 2, 3)):
            facets.add(tuple(sorted((i + v) % 7 for v in tri)))
    return sorted(facets)


def _klein_facets() -> list[Simplex]:
    """Klein bottle from a 3x3 grid: cyclic in one direction, reflected glue
    in the other.  Vertex (i, j) is numbered 3*i + j."""
    def vid(i: int, j: int) -> int:
        if j == 3:
            i, j = (3 - i) % 3, 0
        return (i % 3) * 3 + j

    facets = set()
    for i in range(3):
        for j in range(3):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            facets.add(tuple(sorted((a, b, d))))
            facets.add(tuple(sorted((a, c, d))))
    return sorted(facets)


def _rpn_facets(n: int) -> list[Simplex]:
    """Projective n-space as the antipodal quotient of the barycentric
    subdivision of the boundary of the (n+1)-dimensional cross-polytope.

    Vertices 0..n stand for +e_1..+e_{n+1} and n+1..2n+1 for -e_1..-e_{n+1},
    so the antipodal map is v -> (v + n + 1) mod (2n + 2).  It acts freely
    on the simplices of the cross-polytope boundary (no face contains an
    antipodal pair), hence the quotient of the subdivision is again
    simplicial.  A derived vertex is an antipodal pair of cells, numbered
    by (len, s) of its smaller member, and a facet is the class of a full
    flag inside one facet of the cross-polytope (a sign per coordinate and
    an order of them), listed by `derived_facets`.
    """
    m = n + 1

    def antipode(s: Simplex) -> Simplex:
        return tuple(sorted((v + m) % (2 * m) for v in s))

    def canon(s: Simplex) -> Simplex:
        return min(s, antipode(s))

    tops = [tuple(sorted(i + m * sign for i, sign in enumerate(signs)))
            for signs in product((0, 1), repeat=m)]
    cells = set()
    for top in tops:
        for k in range(1, m + 1):
            for face in combinations(top, k):
                cells.add(canon(face))
    vid = {s: k for k, s in enumerate(sorted(cells, key=lambda s: (len(s), s)))}
    return sorted(derived_facets(tops, lambda s: vid[canon(s)]))


@dataclass(frozen=True)
class CorpusEntry:
    """A named triangulation with its frozen invariants.

    ``sw_pattern[i]`` records whether the degree-i Stiefel-Whitney class is
    expected to be nonzero (degree 0 is the unit class, always nonzero).
    """

    name: str
    description: str
    facets: tuple[Simplex, ...]
    betti: tuple[int, ...]
    sw_pattern: tuple[bool, ...]

    def complex(self) -> SimplicialComplex:
        return build_complex(self.facets)


def _entry(name, description, facets, betti, sw_pattern) -> CorpusEntry:
    return CorpusEntry(name, description, tuple(facets), betti, sw_pattern)


_BUILDERS = {
    "s2": lambda: _entry(
        "s2", "boundary of the 3-simplex (2-sphere)",
        sorted(combinations(range(4), 3)), (1, 0, 1), (True, False, False)),
    "rp2-6": lambda: _entry(
        "rp2-6", "6-vertex projective plane (icosahedron quotient)",
        _RP2_FACETS, (1, 1, 1), (True, True, True)),
    "t2-7": lambda: _entry(
        "t2-7", "7-vertex torus", _torus_facets(), (1, 2, 1),
        (True, False, False)),
    "klein": lambda: _entry(
        "klein", "9-vertex Klein bottle", _klein_facets(), (1, 2, 1),
        (True, True, False)),
    "s3": lambda: _entry(
        "s3", "boundary of the 4-simplex (3-sphere)",
        sorted(combinations(range(5), 4)), (1, 0, 0, 1),
        (True, False, False, False)),
    "rp3": lambda: _entry(
        "rp3", "projective 3-space (cross-polytope quotient, 40 vertices)",
        _rpn_facets(3), (1, 1, 1, 1), (True, False, False, False)),
}

CORPUS_NAMES = tuple(_BUILDERS)


def corpus(name: str) -> CorpusEntry:
    """Return a validated corpus entry by name."""
    if name not in _BUILDERS:
        raise UnknownCorpusEntry(
            f"unknown corpus entry {name!r}; available: {', '.join(CORPUS_NAMES)}")
    entry = _BUILDERS[name]()
    X = entry.complex()
    report = X.is_closed_pseudomanifold()
    if not report.passed:
        raise CorpusValidationFailed(f"{name}: not a closed pseudomanifold: {report}")
    betti = mod2_homology(X).betti_vector
    if betti != entry.betti:
        raise CorpusValidationFailed(
            f"{name}: betti numbers {betti} differ from expected {entry.betti}")
    return entry


def corpus_entries() -> list[CorpusEntry]:
    """All corpus entries in canonical order, each validated at load."""
    return [corpus(name) for name in CORPUS_NAMES]
