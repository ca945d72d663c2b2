"""Dual block complex of a closed pseudomanifold, realized by incidence.

The block dual to a p-simplex sigma has block dimension i = n - p, and the
mod-2 block boundary pairs D(sigma^p) with D(tau^{p+1}) exactly when sigma is
a codimension-one face of tau.  Everything is therefore a regrading of the
simplicial boundary matrices of the ambient complex: generator lists reuse the
skeleton order, so block cochain bit vectors transport to simplicial chains
unchanged (Poincare duality as the identity on indices).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeOutOfRange, DimensionMismatch, NotPseudomanifold
from .gf2 import BitMatrix
from .simplicial import Chain, Simplex, SimplicialComplex

__all__ = ["DualBlock", "BlockCochain", "BlockComplex", "build_block_complex"]


@dataclass(frozen=True)
class DualBlock:
    """Block dual to ``base``; block_dim = ambient dim - len(base) + 1."""

    base: Simplex
    block_dim: int


@dataclass(frozen=True)
class BlockCochain:
    """Mod-2 cochain on blocks of one degree (bit i = generators(degree)[i])."""

    blocks: "BlockComplex"
    degree: int
    bits: int

    def __post_init__(self):
        n = len(self.blocks.generators(self.degree))
        if self.bits < 0 or self.bits >> n:
            raise DimensionMismatch(f"bit vector exceeds {n} degree-{self.degree} blocks")

    def __xor__(self, other: BlockCochain) -> BlockCochain:
        if self.blocks is not other.blocks or self.degree != other.degree:
            raise DimensionMismatch("cochains on different block groups")
        return BlockCochain(self.blocks, self.degree, self.bits ^ other.bits)

    __add__ = __xor__

    def is_zero(self) -> bool:
        return self.bits == 0

    def popcount(self) -> int:
        return self.bits.bit_count()


class BlockComplex:
    """Dual blocks of an ambient closed pseudomanifold, one per simplex."""

    __slots__ = ("ambient", "n", "_generators")

    def __init__(self, ambient: SimplicialComplex):
        report = ambient.is_closed_pseudomanifold()
        if not report.passed:
            raise NotPseudomanifold("ambient complex is not a closed pseudomanifold", report)
        self.ambient = ambient
        self.n = ambient.dim
        self._generators: dict[int, tuple[DualBlock, ...]] = {}

    def generators(self, i: int) -> tuple[DualBlock, ...]:
        """Degree-i blocks, indexed like ambient.skeleton(n - i)."""
        if not 0 <= i <= self.n:
            raise DegreeOutOfRange(f"block degree {i} outside 0..{self.n}")
        if i not in self._generators:
            self._generators[i] = tuple(
                DualBlock(s, i) for s in self.ambient.skeleton(self.n - i)
            )
        return self._generators[i]

    def block_boundary(self, i: int) -> BitMatrix:
        """Boundary from degree-i blocks to degree-(i-1) blocks.

        D(sigma^p) bounds onto D(tau^{p+1}) exactly when sigma is a facet of
        tau, so this is the transpose of the ambient boundary_matrix(n - i + 1).
        """
        if not 1 <= i <= self.n:
            raise DegreeOutOfRange(f"block boundary degree {i} outside 1..{self.n}")
        return self.ambient.boundary_matrix(self.n - i + 1).transpose()

    def all_ones(self, i: int) -> BlockCochain:
        m = len(self.generators(i))
        return BlockCochain(self, i, (1 << m) - 1 if m else 0)

    def zero(self, i: int) -> BlockCochain:
        self.generators(i)
        return BlockCochain(self, i, 0)

    def coboundary(self, cochain: BlockCochain) -> BlockCochain:
        """Degree-raising coboundary: sums a cochain over block boundaries.

        In ambient terms this is the simplicial boundary operator acting on
        the underlying (n-i)-chain, regraded.
        """
        i = cochain.degree
        if i >= self.n:
            raise DegreeOutOfRange(f"no blocks above degree {self.n}")
        d = self.n - i  # ambient dim of the degree-i generators
        bits = self.ambient.boundary_matrix(d).matvec(cochain.bits)
        return BlockCochain(self, i + 1, bits)

    def is_cocycle(self, cochain: BlockCochain) -> bool:
        """Top-degree cochains are cocycles vacuously (no higher blocks)."""
        if cochain.degree == self.n:
            return True
        return self.coboundary(cochain).is_zero()

    def dual_chain(self, cochain: BlockCochain) -> Chain:
        """Poincare-dual (n-i)-chain: same bits, simplicial grading."""
        return Chain(self.ambient, self.n - cochain.degree, cochain.bits)

    def from_chain(self, chain: Chain) -> BlockCochain:
        if chain.complex is not self.ambient:
            raise DimensionMismatch("chain lives on a different complex")
        return BlockCochain(self, self.n - chain.dimension, chain.bits)

    def total_generators(self) -> int:
        return sum(len(self.generators(i)) for i in range(self.n + 1))

    def __repr__(self):
        sizes = tuple(len(self.generators(i)) for i in range(self.n + 1))
        return f"BlockComplex(n={self.n}, generators={sizes})"


def build_block_complex(ambient: SimplicialComplex) -> BlockComplex:
    return BlockComplex(ambient)
