"""End-to-end verification that the all-ones dual-cell cochains represent
the Stiefel-Whitney classes.

For a closed pseudomanifold K the pipeline builds the barycentric
subdivision K' and, for every degree i, the all-ones cochain on the dual
i-cells of K'.  A dual i-cell of K' is dual to an (n-i)-simplex of K', so
under Poincare duality that cochain has the same bits as the sum of all
(n-i)-simplices of K' (the Halperin-Toledo chain), and the pipeline works on
that chain directly.  The dual coboundary is the simplicial boundary on the
same bits, so the cochain is a cocycle exactly when the chain is a cycle,
and one boundary product per degree decides both.  The class of the chain is
compared in H_{n-i}(K') against the Wu-formula oracle computed independently
on K and pushed through the subdivision chain map.  Agreement in every degree
is the theorem under test; disagreement raises OracleConflict with the full
report attached.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import NotPseudomanifold, OracleConflict
from .homology import mod2_homology
from .oracle import VertexOrder, cap, fundamental_cycle, wu_classes
from .simplicial import Chain, SimplicialComplex
from .subdivision import SubdividedComplex, barycentric_subdivide, flag_dual_cells


def ht_chain(subdivision: SubdividedComplex, i: int) -> Chain:
    """The sum of all i-simplices of the derived complex.

    This is the Halperin-Toledo chain: the Poincare dual of the all-ones
    cochain on the dual (n-i)-cells.  Whether it is a cycle is for the
    caller to check; the report records the verification rather than
    assuming it.
    """
    base = subdivision.base
    if not base.is_closed_pseudomanifold().passed:
        raise NotPseudomanifold(
            "dual cells need a closed pseudomanifold base",
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
    the all-ones cochain is already a cocycle on the dual cells of K
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
            partner = {id_tuple: S.partner(id_tuple) for id_tuple in ids}
            # no fixed point; the partner lies in this cell and maps back
            for id_tuple, other in partner.items():
                if other == id_tuple or partner.get(other) != id_tuple:
                    return False
    return True


def w0_row(K: SimplicialComplex) -> dict:
    """The degree-0 fragment: the all-ones cochain on dual 0-cells.

    Dual 0-cells are the facet barycenters, so the Poincare-dual chain must
    equal the subdivided fundamental cycle on the nose, not just up to
    homology.
    """
    S = barycentric_subdivide(K)
    n = K.dim
    pd = ht_chain(S, n)
    pushed = Chain(S.derived, n,
                   S.chain_map(n).matvec(fundamental_cycle(K).bits))
    return {
        "all_ones_is_cocycle": pd.boundary().is_zero(),
        "pd_equals_subdivided_fundamental_cycle": pd == pushed,
        "pd_class_is_fundamental": mod2_homology(S.derived).same_class(pd, pushed),
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
        ht = ht_chain(S, n - i)
        closed = ht.boundary().is_zero()
        img = Hp.boundary_image_basis(n - i)
        class_nonzero = closed and not img.contains(ht.bits)
        matches: bool | None = None
        if closed:
            pd_wi = cap(K, order, wu.w[i].cocycle, gamma)
            pushed = Chain(Kp, n - i, S.chain_map(n - i).matvec(pd_wi.bits))
            Hp.check_cycle(pushed, which="pushed Wu cycle")
            matches = img.contains(ht.bits ^ pushed.bits)
            if not matches:
                conflicts.append(i)
        rows.append(DegreeRow(i, closed, closed, class_nonzero, matches))
    timings["degrees"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pairing_ok = _pairing_involution_ok(S)
    k_level = tuple(Chain.all_ones(K, n - i).boundary().is_zero()
                    for i in range(n + 1))
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
