"""End-to-end verification that the all-ones dual-cell cochains represent
the Stiefel-Whitney classes.

For a closed pseudomanifold K with barycentric subdivision K', the all-ones
cochain on the dual i-cells of K' has, under Poincare duality, the bits of
the sum ht of all (n-i)-simplices of K'.  It is a cocycle exactly when ht is
a cycle.  Every class question is asked in H(K) through the last-vertex map
lambda, which sends a derived vertex (a simplex of K) to its largest vertex.
It is a simplicial approximation of the identity, so lambda_* inverts sd_*,
the subdivision map on homology, and lambda_# sd_# = id holds even on
chains.  Hence [ht] = [sd_# PD(w_i)] in H(K') exactly when
[lambda_# ht] = [PD(w_i)] in H(K), and [ht] != 0 exactly when
[lambda_# ht] != 0.  PD(w_i) is the Wu-formula oracle's class, computed on K
independently and capped with the fundamental cycle.  Agreement in every
degree is the theorem under test; disagreement raises OracleConflict with
the full report attached.  Each class is read as its pairings with the
cohomology basis of K (`homology_coordinates`): no boundary is reduced.

K' is never built: both facts the report needs about ht are local counts
on K, read from its face tables (`SimplicialComplex.face_table`), in the
line of Halperin and Toledo ("Stiefel-Whitney homology classes", Ann. of
Math. 1972) and Goldstein and Turner ("A formula for Stiefel-Whitney
homology classes", Proc. AMS 1976).

- Cycle: a (d-1)-simplex of K' is a flag s_0 > ... > s_{d-1} of simplices
  of K, and its d-cofaces insert one more member.  Between two neighbours
  whose sizes differ by k, or below the last member, there are 2^k - 2
  choices, an even number; above the top there is one per proper coface of
  s_0.  So ht in degree d >= 1 is a cycle exactly when every simplex of K of
  dimension >= d-1 has an even number of proper cofaces.  On K itself the
  all-ones d-chain is a cycle exactly when every (d-1)-simplex has an even
  number of d-cofaces (`k_level_cocycle`), so one count of the m-cofaces of
  each d-simplex, per pair d < m, answers both.
- Image: for a d-simplex rho = (v_0 < ... < v_d) of K, the coefficient of
  rho in lambda_# ht is the parity of the number of simplices sigma >= rho
  with max sigma = v_d whose other vertices all lie in gaps of rho with index
  = d (mod 2); gap g is the open interval after the first g vertices of rho,
  so gap 0 lies below v_0.

The pairing diagnostic is `ridges_ok` of the pseudomanifold check: the
partner of a flag dual cell swaps its top facet for the other facet around
its ridge, so it is a fixed-point-free involution exactly when every ridge
lies in exactly two facets.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, combinations
from operator import xor

from .errors import OracleConflict
from .gf2 import scatter
from .homology import mod2_homology
from .oracle import VertexOrder, cap, wu_classes
from .simplicial import Chain, SimplicialComplex


@dataclass(frozen=True)
class DegreeRow:
    """Verification record for one cohomological degree.

    `ht_chain_is_cycle` (the name of the JSON key) says whether the
    all-ones chain of K' in the dual degree, the Halperin-Toledo chain, is
    a cycle; it always equals `all_ones_is_cocycle`, since that chain is the
    Poincare dual of the all-ones cochain.
    """

    degree: int
    all_ones_is_cocycle: bool
    ht_chain_is_cycle: bool
    class_nonzero: bool
    matches_oracle: bool | None

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "all_ones_is_cocycle": self.all_ones_is_cocycle,
            "ht_chain_is_cycle": self.ht_chain_is_cycle,
            "class_nonzero": self.class_nonzero,
            "matches_oracle": self.matches_oracle,
        }


@dataclass(frozen=True)
class SWReport:
    """Full pipeline result for one complex.

    `rows[i]` is the degree-i record; `k_level_cocycle[i]` reports whether
    the all-ones cochain is already a cocycle on the dual cells of K
    itself (generally it is not; the subdivision is what makes it one);
    `pairing_ok` certifies the fixed-point-free partner involution on flag
    dual cells in every degree >= 1; it is read from the pseudomanifold
    check's count of facets around each ridge of K.  `timings`
    holds wall-clock phase durations and is deliberately left out of
    `as_dict` so that reports are byte-identical across runs.
    """

    dimension: int
    f_vector: tuple[int, ...]
    betti: tuple[int, ...]
    rows: tuple[DegreeRow, ...]
    k_level_cocycle: tuple[bool, ...]
    pairing_ok: bool
    timings: dict

    def as_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "f_vector": list(self.f_vector),
            "betti": list(self.betti),
            "degrees": [row.as_dict() for row in self.rows],
            "diagnostics": {
                "k_level_cocycle": list(self.k_level_cocycle),
                "pairing_ok": self.pairing_ok,
            },
        }

    @property
    def all_matched(self) -> bool:
        return all(row.matches_oracle for row in self.rows)


@cache
def _gap_patterns(size: int) -> tuple[tuple[int, ...], ...]:
    """Positions of the faces rho of a sorted simplex of `size` vertices that
    keep its largest vertex and leave each other vertex in a gap of rho whose
    index has the parity of dim rho.  The gap index of a vertex outside rho
    is the number of rho's vertices below it.  Cached: a report reads the
    patterns of each size once per degree."""
    top = size - 1
    patterns = []
    for mask in range(1 << top):
        d = mask.bit_count()
        if all((mask & ((1 << i) - 1)).bit_count() % 2 == d % 2
               for i in range(top) if not mask >> i & 1):
            patterns.append(tuple(i for i in range(top) if mask >> i & 1) + (top,))
    return tuple(patterns)


def all_ones_chains(K: SimplicialComplex) -> list[tuple[bool, bool, Chain]]:
    """Per degree d: whether the all-ones d-chain of K is a cycle, whether
    the all-ones d-chain of K' is, and the image of the latter under the
    last-vertex map, all counted on K by the rules of the module docstring.
    Each count of m-cofaces on the d-simplices, and each image, is one
    `gf2.scatter` over K's face-index tables (`face_table`), which the Wu
    oracle's products read too."""
    n = K.dim

    def scattered(d, tables):
        return scatter(chain.from_iterable(tables), K.n_simplices(d))

    # cofaces[d][m - d - 1]: each d-simplex counts once per m-coface
    cofaces = [[scattered(d, (K.face_table(m, p) for p in combinations(range(m + 1), d + 1)))
                for m in range(d + 1, n + 1)] for d in range(n + 1)]
    # and each sigma once for every admissible rho inside it
    images = [scattered(d, (K.face_table(m, p) for m in range(d, n + 1)
                            for p in _gap_patterns(m + 1) if len(p) == d + 1))
              for d in range(n + 1)]
    highest_odd = max((d for d, counts in enumerate(cofaces) if reduce(xor, counts, 0)),
                      default=-1)
    return [(d == 0 or not cofaces[d - 1][0], d == 0 or highest_odd < d - 1,
             Chain(K, d, image)) for d, image in enumerate(images)]


def compute_report(K: SimplicialComplex) -> SWReport:
    """Run the full dual-cell vs Wu-oracle comparison on K."""
    pm = K.require_closed_pseudomanifold()
    timings: dict[str, float] = {}
    n = K.dim

    t0 = time.perf_counter()
    all_ones = all_ones_chains(K)
    timings["subdivide"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    H = mod2_homology(K)
    betti = H.betti_vector
    timings["homology"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    order = VertexOrder.numeric(K)
    wu = wu_classes(K)
    gamma = Chain.all_ones(K, n)  # the fundamental cycle, checked by wu_classes
    timings["wu_oracle"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows = []
    conflicts = []
    for i in range(n + 1):
        _, closed, image = all_ones[n - i]
        class_nonzero, matches = False, None
        if closed:
            coords = H.homology_coordinates(image, which="all-ones image")
            class_nonzero = coords != 0
            pd_wi = cap(K, order, wu.w[i].cocycle, gamma)
            matches = coords == H.homology_coordinates(pd_wi, which="Wu cycle")
            if not matches:
                conflicts.append(i)
        rows.append(DegreeRow(i, closed, closed, class_nonzero, matches))
    timings["degrees"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pairing_ok = pm.ridges_ok
    timings["pairing"] = time.perf_counter() - t0

    report = SWReport(
        dimension=n,
        f_vector=K.f_vector,
        betti=betti,
        rows=tuple(rows),
        k_level_cocycle=tuple(all_ones[n - i][0] for i in range(n + 1)),
        pairing_ok=pairing_ok,
        timings=timings,
    )
    if conflicts:
        raise OracleConflict(
            "dual-cell classes disagree with the Wu oracle in degrees "
            f"{conflicts}", report=report)
    return report
