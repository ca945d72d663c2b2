"""Linear algebra over GF(2) on python-int bit sets.

A vector is a non-negative python int: bit ``i`` is coordinate ``i``.  A
matrix is the list of its columns as such ints, so bit ``i`` of column ``j``
is entry ``(i, j)``.  That keeps chain/cochain arithmetic (XOR, popcount,
pairing) one-liners and matches how the rest of the package stores mod-2
data.

All elimination is one loop, `EchelonBasis._clear_pivots`: the lowest set
bit of a vector is cleared with the stored vector pivoted there, until that
bit is not a pivot.  Inserting the columns of a matrix this way is the
lowest-pivot column reduction of persistent homology (PHAT; Bauer, Kerber,
Reininghaus & Wagner, J. Symb. Comput. 2017).  Kernels and solutions use the
same loop on columns tagged with their own index above the row bits, which
records the reduction R = D V: a column whose row part reduces to zero
carries a kernel vector in its tag bits.

Columns are reduced in index order, so every basis, rank, solution and kernel
basis is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatch

__all__ = ["BitMatrix", "EchelonBasis"]


def _check_vector(x: int, nbits: int) -> None:
    if x < 0:
        raise ValueError("bit vectors are non-negative ints")
    if x >> nbits:
        raise DimensionMismatch(f"vector has bits beyond length {nbits}")


@dataclass
class EchelonBasis:
    """Basis of a subspace of GF(2)^ncols, keyed by pivot.

    ``by_pivot[p]`` has lowest set bit ``p``.  Pivots are distinct, so the
    lowest bit of every nonzero vector in the span is a pivot, and the
    residue left by clearing pivot bits is canonical.  Bits at ``ncols`` and
    above are tags: they ride along with the reduction and never pivot.
    This is the reduction transcript reused for repeated membership queries.
    """

    ncols: int
    by_pivot: dict[int, int] = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.by_pivot)

    def _clear_pivots(self, v: int) -> tuple[int, int]:
        """Clear v's pivot bits from the bottom up.

        Returns (v, p) at the first bit p below ncols that is not a pivot, or
        (v, -1) once no bit below ncols is left."""
        by_pivot, ncols = self.by_pivot, self.ncols
        while v:
            p = (v & -v).bit_length() - 1
            if p >= ncols:
                break
            row = by_pivot.get(p)
            if row is None:
                return v, p
            v ^= row
        return v, -1

    def insert(self, v: int) -> int:
        """Reduce v and keep the residue if it has a bit below ncols.

        Returns the residue: 0, or tag bits only, means v was dependent."""
        v, p = self._clear_pivots(v)
        if p >= 0:
            self.by_pivot[p] = v
        return v

    def reduce(self, v: int) -> int:
        """The canonical residue: v plus the span vector that clears every
        pivot bit of v."""
        kept = 0
        v, p = self._clear_pivots(v)
        while p >= 0:
            kept |= 1 << p
            v, p = self._clear_pivots(v ^ (1 << p))
        return kept | v

    def contains(self, v: int) -> bool:
        return self._clear_pivots(v)[0] == 0


class BitMatrix:
    """Immutable-by-convention GF(2) matrix. Build once, then query."""

    __slots__ = ("rows", "cols", "columns", "_transpose", "_column_space")

    def __init__(self, rows: int, cols: int, columns: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        if columns is None:
            columns = [0] * cols
        elif len(columns) != cols or any(c < 0 or c >> rows for c in columns):
            raise DimensionMismatch(f"columns do not fit a {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols
        self.columns = columns
        self._transpose: BitMatrix | None = None
        self._column_space: EchelonBasis | None = None

    # ---------------------------------------------------------------- build

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> BitMatrix:
        """Build from an iterable of (i, j) positions of the 1 entries."""
        columns = [0] * cols
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
            columns[j] |= 1 << i
        return cls(rows, cols, columns)

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols)

    # ---------------------------------------------------------------- access

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionMismatch(f"index ({i},{j}) outside {self.rows}x{self.cols}")
        return (self.columns[j] >> i) & 1

    @property
    def nnz(self) -> int:
        return sum(c.bit_count() for c in self.columns)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def __hash__(self):  # identity-based: matrices are build-once objects
        return id(self)

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # ------------------------------------------------------------- operators

    def transpose(self) -> BitMatrix:
        if self._transpose is None:
            rows = [0] * self.rows
            for j, c in enumerate(self.columns):
                bit = 1 << j
                while c:
                    low = c & -c
                    rows[low.bit_length() - 1] |= bit
                    c ^= low
            t = BitMatrix(self.cols, self.rows, rows)
            t._transpose = self
            self._transpose = t
        return self._transpose

    def matvec(self, x: int) -> int:
        """Matrix-vector product over GF(2); x is a length-cols bit int."""
        _check_vector(x, self.cols)
        acc = 0
        # chains are often dense (all-ones), where scanning x's digits
        # beats peeling its set bits one by one
        for c, bit in zip(self.columns, reversed(f"{x:b}")):
            if bit == "1":
                acc ^= c
        return acc

    def matvec_t(self, y: int) -> int:
        """Transpose product: y is a length-rows bit int."""
        _check_vector(y, self.rows)
        flags = "".join("1" if (c & y).bit_count() & 1 else "0"
                        for c in reversed(self.columns))
        return int(flags, 2) if flags else 0

    def matmul(self, other: BitMatrix) -> BitMatrix:
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return BitMatrix(self.rows, other.cols, [self.matvec(c) for c in other.columns])

    # ------------------------------------------------------------ elimination

    def column_space(self) -> EchelonBasis:
        """Basis of the column space (lowest-pivot column reduction, cached)."""
        if self._column_space is None:
            basis = EchelonBasis(self.rows)
            for c in self.columns:
                basis.insert(c)
            self._column_space = basis
        return self._column_space

    def row_space(self) -> EchelonBasis:
        return self.transpose().column_space()

    def rank(self) -> int:
        return self.column_space().rank

    def _tagged_reduction(self) -> tuple[EchelonBasis, list[int]]:
        """Reduce the columns with column j tagged by bit rows + j.

        Returns the tagged basis and, for each column whose row part reduces
        to zero, the kernel vector read from its tag bits."""
        basis = EchelonBasis(self.rows)
        kernel = []
        low = (1 << self.rows) - 1
        for j, c in enumerate(self.columns):
            r = basis.insert(c | 1 << (self.rows + j))
            if not r & low:
                kernel.append(r >> self.rows)
        return basis, kernel

    def solve(self, b: int) -> int | None:
        """One solution x of Mx = b, or None if inconsistent."""
        _check_vector(b, self.rows)
        r, p = self._tagged_reduction()[0]._clear_pivots(b)
        return None if p >= 0 else r >> self.rows

    def null_space(self) -> list[int]:
        """Kernel basis, one vector per column that depends on earlier ones.

        The vector for column j has j as its highest bit, so the cols - rank
        vectors are independent."""
        return self._tagged_reduction()[1]

