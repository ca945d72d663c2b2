"""Built-in triangulations of small closed manifolds.

Every entry is a closed pseudomanifold and is revalidated each time it is
loaded: the facet list must pass the pseudomanifold check and the mod-2
Betti numbers must match the frozen expectations.  A corrupted entry fails
loudly with CorpusValidationFailed.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import CorpusValidationFailed, UnknownCorpusEntry
from .homology import mod2_homology
from .simplicial import Simplex, SimplicialComplex, build_complex

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


def _rp3_facets() -> list[Simplex]:
    """Projective 3-space as the antipodal quotient of the barycentric
    subdivision of the boundary of the 4-dimensional cross-polytope.

    Vertices 0..3 stand for +e_1..+e_4 and 4..7 for -e_1..-e_4, so the
    antipodal map is v -> (v + 4) mod 8.  It acts freely on the simplices
    of the cross-polytope boundary (no face contains an antipodal pair),
    hence the quotient of the subdivision is again simplicial.
    """
    def antipode(s: Simplex) -> Simplex:
        return tuple(sorted((v + 4) % 8 for v in s))

    def canon(s: Simplex) -> Simplex:
        return min(s, antipode(s))

    tops = [tuple(sorted((0 + 4 * s0, 1 + 4 * s1, 2 + 4 * s2, 3 + 4 * s3)))
            for s0 in (0, 1) for s1 in (0, 1)
            for s2 in (0, 1) for s3 in (0, 1)]
    cells = set()
    for top in tops:
        for k in range(1, 5):
            for face in combinations(top, k):
                cells.add(canon(face))
    vid = {s: k for k, s in enumerate(sorted(cells, key=lambda s: (len(s), s)))}

    facets = set()
    for top in tops:
        for perm in permutations(top):
            flag = [tuple(sorted(perm[:k + 1])) for k in range(4)]
            facets.add(tuple(sorted(vid[canon(s)] for s in flag)))
    return sorted(facets)


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
        _rp3_facets(), (1, 1, 1, 1), (True, False, False, False)),
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
