"""End-to-end verification that the all-ones dual-cell cochains represent
the Stiefel-Whitney classes.

For a closed pseudomanifold K the pipeline builds the barycentric
subdivision K', the dual block complex over K', and for every degree i the
all-ones block i-cochain.  Its Poincare-dual chain is the sum of all
(n-i)-simplices of K' (the Halperin-Toledo chain).  The class of that chain
is compared in H_{n-i}(K') against the Wu-formula oracle computed
independently on K and pushed through the subdivision chain map.  Agreement
in every degree is the theorem under test; disagreement raises
OracleConflict with the full report attached.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .dual_blocks import BlockComplex, build_block_complex
from .errors import NotPseudomanifold, OracleConflict
from .homology import mod2_homology
from .oracle import VertexOrder, cap, fundamental_cycle, wu_classes
from .simplicial import Chain, SimplicialComplex
from .subdivision import (
    SubdividedComplex,
    barycentric_subdivide,
    flag_dual_cells,
    flag_partner,
)


def ht_chain(subdivision: SubdividedComplex, i: int) -> Chain:
    """The sum of all i-simplices of the derived complex.

    This is the Halperin-Toledo chain: the Poincare dual of the all-ones
    block (n-i)-cochain.  Whether it is a cycle is for the caller to check;
    the report records the verification rather than assuming it.
    """
    base = subdivision.base
    if not base.is_closed_pseudomanifold().passed:
        raise NotPseudomanifold(
            "dual blocks need a closed pseudomanifold base",
            report=base.is_closed_pseudomanifold())
    return Chain.all_ones(subdivision.derived, i)


@dataclass(frozen=True)
class DegreeRow:
    """Verification record for one cohomological degree."""

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
    the all-ones cochain is already a cocycle on the dual blocks of K
    itself (generally it is not; the subdivision is what makes it one);
    `pairing_ok` certifies the fixed-point-free partner involution on flag
    dual cells in every degree >= 1.  `timings` holds wall-clock phase
    durations and is deliberately left out of `as_dict` so that reports are
    byte-identical across runs.
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


def _pairing_involution_ok(S: SubdividedComplex) -> bool:
    """Flag dual cells decompose into partner orbits of size exactly two."""
    for i in range(1, S.base.dim + 1):
        for ids in flag_dual_cells(S, i).values():
            members = set(ids)
            for id_tuple in ids:
                flag = S.flag_of(id_tuple)
                partner = flag_partner(S, flag)
                partner_ids = tuple(sorted(
                    S.vertex_id[s] for s in partner.chain))
                if partner_ids == id_tuple or partner_ids not in members:
                    return False
                if flag_partner(S, partner) != flag:
                    return False
    return True


def w0_row(K: SimplicialComplex) -> dict:
    """The degree-0 fragment: the all-ones cochain on dual 0-cells.

    Dual 0-cells are the facet barycenters, so the Poincare-dual chain must
    equal the subdivided fundamental cycle on the nose, not just up to
    homology.
    """
    S = barycentric_subdivide(K)
    B = build_block_complex(S.derived)
    n = K.dim
    ones = B.all_ones(0)
    pd = B.dual_chain(ones)
    pushed = Chain(S.derived, n,
                   S.chain_map(n).matvec(fundamental_cycle(K).bits))
    Hp = mod2_homology(S.derived)
    return {
        "all_ones_is_cocycle": B.is_cocycle(ones),
        "pd_equals_subdivided_fundamental_cycle": pd == pushed,
        "pd_class_is_fundamental": Hp.same_class(pd, Chain.all_ones(S.derived, n)),
    }


def compute_report(K: SimplicialComplex) -> SWReport:
    """Run the full dual-cell vs Wu-oracle comparison on K."""
    pm = K.is_closed_pseudomanifold()
    if not pm.passed:
        raise NotPseudomanifold("input is not a closed pseudomanifold",
                                report=pm)
    timings: dict[str, float] = {}
    n = K.dim

    t0 = time.perf_counter()
    S = barycentric_subdivide(K)
    Kp = S.derived
    B = build_block_complex(Kp)
    BK = build_block_complex(K)
    timings["subdivide"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    Hp = mod2_homology(Kp)
    for d in range(n + 1):
        Hp.boundary_image_basis(d)  # the eliminations the degree queries use
    betti = mod2_homology(K).betti_vector
    timings["homology"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    order = VertexOrder.numeric(K)
    wu = wu_classes(K, order)
    gamma = fundamental_cycle(K)
    timings["wu_oracle"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows = []
    conflicts = []
    for i in range(n + 1):
        ones = B.all_ones(i)
        is_cocycle = B.is_cocycle(ones)
        ht = ht_chain(S, n - i)
        is_cycle = Hp.is_cycle(ht)
        class_nonzero = is_cycle and not Hp.class_is_zero(ht)
        matches: bool | None = None
        if is_cocycle and is_cycle:
            pd_wi = cap(K, order, wu.w[i].cocycle, gamma)
            pushed = Chain(Kp, n - i, S.chain_map(n - i).matvec(pd_wi.bits))
            matches = Hp.same_class(ht, pushed)
            if not matches:
                conflicts.append(i)
        rows.append(DegreeRow(i, is_cocycle, is_cycle, class_nonzero, matches))
    timings["degrees"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pairing_ok = _pairing_involution_ok(S)
    k_level = tuple(BK.is_cocycle(BK.all_ones(i)) for i in range(n + 1))
    timings["pairing"] = time.perf_counter() - t0

    report = SWReport(
        dimension=n,
        f_vector=K.f_vector,
        betti=betti,
        rows=tuple(rows),
        k_level_cocycle=k_level,
        pairing_ok=pairing_ok,
        timings=timings,
    )
    if conflicts:
        raise OracleConflict(
            "dual-cell classes disagree with the Wu oracle in degrees "
            f"{conflicts}", report=report)
    return report
