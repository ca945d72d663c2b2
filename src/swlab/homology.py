"""Mod-2 homology and cohomology summaries, every class read as coordinates.

The one cache is a single cohomology pass per complex, a per-degree list
that the complex keeps; a `HomologySummary` is a view over it, and
`mod2_homology` stores nothing.  The pass runs in increasing degree with
clearing (Chen & Kerber, "Persistent homology computation with a twist",
EuroCG 2011; Bauer, "Ripser", J. Appl. Comput. Topol. 2021).  In degree d
it skips each column of the coboundary delta_d whose index is the pivot of
a reduced column of delta_{d-1}, and reduces the kept columns once, tagged.
The cleared columns add nothing: with the reduced columns of delta_{d-1},
which are coboundaries, the unit vectors of the other indices form a
triangular basis of C^d.  Nonzero residues are the image basis of delta_d,
which clears degree d+1.  The tags of the zero residues are the
representatives of a basis of H^d: cocycles supported off the cleared
pivots, so no nonzero combination of them is a coboundary, and there are
n_d - rank delta_{d-1} - rank delta_d of them, the Betti number.  The
transcript of degree d, the image of delta_{d-1} extended by the tagged
representatives, gives any cocycle's coordinates.

Cycles need no boundary reduction: over a field the Kronecker pairing of
H^d and H_d is perfect, so H_d is the dual of H^d (de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", Inverse Problems
2011).  A cycle z thus bounds exactly when it pairs to 0 with every basis
representative, and the bits <rep_j, z> are the coordinates of [z] in the
dual basis.
"""

from __future__ import annotations

from .errors import DimensionMismatch, NotACocycle, NotACycle
from .gf2 import EchelonBasis
from .simplicial import Chain, SimplicialComplex

__all__ = ["HomologySummary", "mod2_homology"]


class HomologySummary:
    """Betti numbers and class queries over one complex's cohomology pass."""

    __slots__ = ("complex",)

    def __init__(self, complex: SimplicialComplex):
        self.complex = complex

    # -------------------------------------------------------------- plumbing

    def _degree(self, d: int) -> tuple[list[int], EchelonBasis, EchelonBasis]:
        """The complex's cohomology pass through degree d, 0 <= d <= dim: per
        degree, representatives of H^d, their transcript, the image of delta_d."""
        X, degrees = self.complex, self.complex._cohomology
        while len(degrees) <= d:
            k = len(degrees)
            n_k = X.n_simplices(k)
            cleared = degrees[-1][2] if degrees else EchelonBasis(n_k)
            delta = X.coboundary_matrix(k)
            kept = [j for j in range(n_k) if j not in cleared.by_pivot]
            tagged, reps = delta.tagged_reduction(kept)
            # drop the tags in place, so that the tagged and the untagged
            # vectors are not all alive at once; a residue whose one tag bit
            # is its own is its column, unreduced, and shares that column
            image, columns = tagged.by_pivot, delta.columns
            low = (1 << delta.rows) - 1
            for p, v in image.items():
                tag = v >> delta.rows
                image[p] = (columns[kept[tag.bit_length() - 1]] if tag & (tag - 1) == 0
                            else v & low)
            image = EchelonBasis(delta.rows, image)
            transcript = EchelonBasis(n_k, dict(cleared.by_pivot))
            chain_bits = (1 << n_k) - 1
            for j, z in enumerate(reps):
                # a residue of tag bits only: z depends on the image and the
                # representatives before it
                if not transcript.insert(z | 1 << (n_k + j)) & chain_bits:
                    raise AssertionError("fewer cohomology representatives than the betti number")
            degrees.append((reps, transcript, image))
        return degrees[d]

    def boundary_image_basis(self, d: int) -> EchelonBasis:
        """Echelon basis of im(boundary_{d+1}) inside C_d, reduced afresh from
        boundary_matrix(d + 1) on each call: a reference, off the pass."""
        if d + 1 < 1 or d + 1 > self.complex.dim:
            return EchelonBasis(self.complex.n_simplices(d))
        return self.complex.boundary_matrix(d + 1).column_space()

    def coboundary_image_basis(self, d: int) -> EchelonBasis:
        """Echelon basis of im(delta_{d-1}) inside C^d, from the pass's
        nonzero residues in degree d-1."""
        if d < 1 or d > self.complex.dim:
            return EchelonBasis(self.complex.n_simplices(d))
        return self._degree(d - 1)[2]

    # ----------------------------------------------------------------- betti

    def betti(self, d: int) -> int:
        """Dimension of H^d: the number of representatives the pass found."""
        return len(self.cohomology_basis(d))

    @property
    def betti_vector(self) -> tuple[int, ...]:
        return tuple(self.betti(d) for d in range(self.complex.dim + 1))

    # ---------------------------------------------------------- chain queries

    def check_cycle(self, chain: Chain, which: str = "chain"):
        if chain.complex is not self.complex:
            raise DimensionMismatch("chain lives on a different complex")
        b = chain.boundary()
        if not b.is_zero():
            face = b.complex.skeleton(b.dimension)[(b.bits & -b.bits).bit_length() - 1]
            raise NotACycle(
                f"{which} has nonzero boundary (first odd face {face})",
                which=which,
                failed_simplex=face,
            )

    def is_cycle(self, chain: Chain) -> bool:
        return chain.boundary().is_zero()

    def homology_coordinates(self, chain: Chain, which: str = "chain") -> int:
        """Bitmask of the cycle's class in the basis dual to cohomology_basis:
        bit j is the pairing <representative j, chain>."""
        self.check_cycle(chain, which=which)
        return sum(((rep & chain.bits).bit_count() & 1) << j
                   for j, rep in enumerate(self.cohomology_basis(chain.dimension)))

    def class_is_zero(self, chain: Chain) -> bool:
        return self.homology_coordinates(chain) == 0

    def same_class(self, z1: Chain, z2: Chain) -> bool:
        if z1.dimension != z2.dimension:
            raise DimensionMismatch("cycles of different dimensions")
        return (self.homology_coordinates(z1, which="first cycle")
                == self.homology_coordinates(z2, which="second cycle"))

    def cycle_basis(self, d: int) -> list[int]:
        """Kernel basis of boundary_d (whole chain group when d = 0), reduced
        afresh from boundary_matrix(d) on each call: a reference, off the pass."""
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
            cofacet = cb.complex.skeleton(cb.dimension)[(cb.bits & -cb.bits).bit_length() - 1]
            raise NotACocycle(
                f"{which} has nonzero coboundary (first odd cofacet {cofacet})",
                which=which,
                failed_simplex=cofacet,
            )

    def is_cocycle(self, cochain: Chain) -> bool:
        return cochain.coboundary().is_zero()

    def cocycle_class_is_zero(self, cochain: Chain) -> bool:
        return self.cohomology_coordinates(cochain) == 0

    def same_cocycle_class(self, a1: Chain, a2: Chain) -> bool:
        if a1.dimension != a2.dimension:
            raise DimensionMismatch("cochains of different degrees")
        self.check_cocycle(a1, which="first cocycle")
        # a1 is a cocycle, so delta(a1 + a2) = delta(a2): checking the sum checks a2
        return self.cohomology_coordinates(a1 ^ a2, which="second cocycle") == 0

    def cocycle_basis(self, d: int) -> list[int]:
        """Kernel basis of the coboundary out of degree d."""
        if d < 0 or d > self.complex.dim:
            return []
        return self.complex.coboundary_matrix(d).null_space()

    def _transcript(self, d: int) -> tuple[list[int], EchelonBasis]:
        """Representatives of a basis of H^d, and the coboundary image extended
        by them with representative j tagged at bit n_simplices(d) + j."""
        if d < 0 or d > self.complex.dim:
            return [], EchelonBasis(0)
        return self._degree(d)[:2]

    def cohomology_basis(self, d: int) -> list[int]:
        """Cocycle representatives of a basis of H^d (mod-2)."""
        return self._transcript(d)[0]

    def cohomology_coordinates(self, cochain: Chain, which: str = "cochain") -> int:
        """Bitmask of the cocycle's class over cohomology_basis: bit j is
        representative j."""
        self.check_cocycle(cochain, which=which)
        coords = self._transcript(cochain.dimension)[1].tags(cochain.bits)
        if coords is None:
            raise AssertionError("cocycle escapes the cohomology basis")
        return coords


def mod2_homology(complex: SimplicialComplex) -> HomologySummary:
    """A summary over the complex's cohomology pass; it stores nothing."""
    return HomologySummary(complex)
