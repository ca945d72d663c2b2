"""Mod-2 homology and cohomology summaries with cached reduction transcripts.

Each image basis is one lowest-pivot column reduction: of the boundary
columns for homology, and of the coboundary columns (the rows of the
boundary matrix) for cohomology.  The bases are kept so that many
class-membership queries (is this cycle a boundary? are these two cycles
homologous? same for cocycles) reduce against the transcript instead of
re-eliminating.  Only cycle and cocycle bases pay for the tagged reduction
that records kernel vectors.
"""

from __future__ import annotations

from .errors import DimensionMismatch, NotACocycle, NotACycle
from .gf2 import EchelonBasis
from .simplicial import Chain, SimplicialComplex

__all__ = ["HomologySummary", "mod2_homology"]


class HomologySummary:
    """Betti numbers plus reusable elimination data for one complex."""

    __slots__ = ("complex", "_ranks", "_img", "_coimg", "_cocycle_basis", "_cohom_basis")

    def __init__(self, complex: SimplicialComplex):
        self.complex = complex
        self._ranks: dict[int, int] = {}
        self._img: dict[int, EchelonBasis] = {}
        self._coimg: dict[int, EchelonBasis] = {}
        self._cocycle_basis: dict[int, list[int]] = {}
        self._cohom_basis: dict[int, list[int]] = {}

    # -------------------------------------------------------------- plumbing

    def _boundary_rank(self, d: int) -> int:
        """rank of the d-th boundary matrix (0 outside 1..dim)."""
        if d not in self._ranks:
            if d < 1 or d > self.complex.dim:
                self._ranks[d] = 0
            elif d - 1 in self._img:
                self._ranks[d] = self._img[d - 1].rank
            elif d in self._coimg:
                self._ranks[d] = self._coimg[d].rank
            else:
                # column space doubles as the boundary-membership transcript,
                # which same_class wants anyway; eliminate each matrix once
                self._ranks[d] = self.boundary_image_basis(d - 1).rank
        return self._ranks[d]

    def boundary_image_basis(self, d: int) -> EchelonBasis:
        """Echelon basis of im(boundary_{d+1}) inside C_d."""
        if d not in self._img:
            if d + 1 < 1 or d + 1 > self.complex.dim:
                self._img[d] = EchelonBasis(self.complex.n_simplices(d))
            else:
                self._img[d] = self.complex.boundary_matrix(d + 1).column_space()
        return self._img[d]

    def coboundary_image_basis(self, d: int) -> EchelonBasis:
        """Echelon basis of im(delta_{d-1}) inside C^d (= row space of boundary_d)."""
        if d not in self._coimg:
            if d < 1 or d > self.complex.dim:
                self._coimg[d] = EchelonBasis(self.complex.n_simplices(d))
            else:
                self._coimg[d] = self.complex.boundary_matrix(d).row_space()
        return self._coimg[d]

    # ----------------------------------------------------------------- betti

    def betti(self, d: int) -> int:
        if d < 0 or d > self.complex.dim:
            return 0
        f = self.complex.n_simplices(d)
        return f - self._boundary_rank(d) - self._boundary_rank(d + 1)

    @property
    def betti_vector(self) -> tuple[int, ...]:
        return tuple(self.betti(d) for d in range(self.complex.dim + 1))

    # ---------------------------------------------------------- chain queries

    def check_cycle(self, chain: Chain, which: str = "chain"):
        if chain.complex is not self.complex:
            raise DimensionMismatch("chain lives on a different complex")
        b = chain.boundary()
        if not b.is_zero():
            i = (b.bits & -b.bits).bit_length() - 1
            raise NotACycle(
                f"{which} has nonzero boundary (first odd face {b.complex.skeleton(b.dimension)[i]})",
                which=which,
                failed_simplex=b.complex.skeleton(b.dimension)[i],
            )

    def is_cycle(self, chain: Chain) -> bool:
        return chain.boundary().is_zero()

    def class_is_zero(self, chain: Chain) -> bool:
        self.check_cycle(chain)
        return self.boundary_image_basis(chain.dimension).contains(chain.bits)

    def same_class(self, z1: Chain, z2: Chain) -> bool:
        if z1.dimension != z2.dimension:
            raise DimensionMismatch("cycles of different dimensions")
        self.check_cycle(z1, which="first cycle")
        self.check_cycle(z2, which="second cycle")
        return self.boundary_image_basis(z1.dimension).contains(z1.bits ^ z2.bits)

    def cycle_basis(self, d: int) -> list[int]:
        """Kernel basis of boundary_d (whole chain group when d = 0)."""
        if d < 0 or d > self.complex.dim:
            return []
        if d == 0:
            return [1 << i for i in range(self.complex.n_simplices(0))]
        return self.complex.boundary_matrix(d).null_space()

    # --------------------------------------------------------- cochain queries

    def check_cocycle(self, cochain: Chain, which: str = "cochain"):
        if cochain.complex is not self.complex:
            raise DimensionMismatch("cochain lives on a different complex")
        cb = cochain.coboundary()
        if not cb.is_zero():
            i = (cb.bits & -cb.bits).bit_length() - 1
            raise NotACocycle(
                f"{which} has nonzero coboundary "
                f"(first odd cofacet {cb.complex.skeleton(cb.dimension)[i]})"
            )

    def is_cocycle(self, cochain: Chain) -> bool:
        return cochain.coboundary().is_zero()

    def cocycle_class_is_zero(self, cochain: Chain) -> bool:
        self.check_cocycle(cochain)
        return self.coboundary_image_basis(cochain.dimension).contains(cochain.bits)

    def same_cocycle_class(self, a1: Chain, a2: Chain) -> bool:
        if a1.dimension != a2.dimension:
            raise DimensionMismatch("cochains of different degrees")
        self.check_cocycle(a1, which="first cocycle")
        self.check_cocycle(a2, which="second cocycle")
        return self.coboundary_image_basis(a1.dimension).contains(a1.bits ^ a2.bits)

    def cocycle_basis(self, d: int) -> list[int]:
        """Kernel basis of the coboundary out of degree d."""
        if d < 0 or d > self.complex.dim:
            return []
        if d not in self._cocycle_basis:
            if d == self.complex.dim:
                basis = [1 << i for i in range(self.complex.n_simplices(d))]
            else:
                basis = self.complex.boundary_matrix(d + 1).transpose().null_space()
            self._cocycle_basis[d] = basis
        return self._cocycle_basis[d]

    def cohomology_basis(self, d: int) -> list[int]:
        """Cocycle representatives of a basis of H^d (mod-2)."""
        if d < 0 or d > self.complex.dim:
            return []
        if d not in self._cohom_basis:
            img = self.coboundary_image_basis(d)
            acc = EchelonBasis(img.ncols, dict(img.by_pivot))
            reps = [z for z in self.cocycle_basis(d) if acc.insert(z)]
            if len(reps) != self.betti(d):
                raise AssertionError("cohomology basis size disagrees with betti number")
            self._cohom_basis[d] = reps
        return self._cohom_basis[d]


def mod2_homology(complex: SimplicialComplex) -> HomologySummary:
    """Summary for a complex, cached on the complex itself."""
    summary = complex._extra.get("homology")
    if summary is None:
        summary = HomologySummary(complex)
        complex._extra["homology"] = summary
    return summary
