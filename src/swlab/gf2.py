"""Linear algebra over GF(2) on python-int bit sets.

A vector is a non-negative python int: bit ``i`` is coordinate ``i``.  A
matrix is the list of its columns as such ints, so bit ``i`` of column ``j``
is entry ``(i, j)``.  That keeps chain/cochain arithmetic (XOR, popcount,
pairing) one-liners and matches how the rest of the package stores mod-2
data.  Bits move through index tables by `gather` (bit j of the result is
bit table[j] of a vector) and `scatter` (bit i is the parity of the number
of times i occurs in an index sequence), each one pass over the table.

All elimination is one loop, `EchelonBasis._clear_pivots`: the lowest set
bit of a vector is cleared with the stored vector pivoted there, until that
bit is not a pivot.  Inserting the columns of a matrix this way is the
lowest-pivot column reduction of persistent homology (PHAT; Bauer, Kerber,
Reininghaus & Wagner, J. Symb. Comput. 2017).  Kernels and solutions use the
same loop on columns tagged with their own index above the row bits, which
records the reduction R = D V: a column whose row part reduces to zero
carries a kernel vector in its tag bits, and `EchelonBasis.tags` reads a
solution off them.  `BitMatrix.tagged_reduction` may leave out columns known
to add nothing; `swlab.homology` leaves out the cleared ones, so that one
tagged pass per coboundary gives its rank, image and kernel.  A `BitMatrix`
is a plain value that caches nothing: `transpose`, `column_space`,
`row_space`, `rank` and `null_space` compute their result on every call.

Columns are reduced in index order, so every basis, rank, solution and kernel
basis is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import itemgetter, xor

from .errors import DimensionMismatch

__all__ = ["BitMatrix", "EchelonBasis", "gather", "scatter", "set_bits", "to_flags"]


def set_bits(x: int):
    """Yield the indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# digit characters -> 0/1 bytes
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _digits(x: int, width: int) -> str:
    """The `width` low binary digits of x, lowest first."""
    return f"{x:0{width}b}"[::-1]


def to_flags(x: int, width: int) -> bytes:
    """The `width` low bits of x as 0/1 bytes, lowest first: a mask for
    `itertools.compress` over the items the bits stand for."""
    return _digits(x, width).encode().translate(_TO_FLAGS)


def gather(bits: int, table, width: int) -> int:
    """The int whose bit idx is bit table[idx] of `bits`, a width-bit int.

    One C-level pass: pick the digits of `bits` in the reverse of table
    order, so that int(..., 2) reads bit table[0] last, as bit 0."""
    if not table:
        return 0
    # with one index itemgetter returns a bare digit, which join also takes
    return int("".join(itemgetter(*reversed(table))(_digits(bits, width))), 2)


def scatter(indices, width: int) -> int:
    """The width-bit int whose bit i is the parity of i's count in indices."""
    digits = bytearray(b"0" * width)  # lowest bit first; "0" ^ 1 is "1"
    for i in indices:
        digits[i] ^= 1
    return int(digits[::-1], 2) if width else 0


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

    def tags(self, v: int) -> int | None:
        """The tag bits, shifted down to bit 0, of v plus the span vector
        that clears v below ncols; None if v's row part is outside the span."""
        v, p = self._clear_pivots(v)
        return None if p >= 0 else v >> self.ncols

    def contains(self, v: int) -> bool:
        return self._clear_pivots(v)[0] == 0


class BitMatrix:
    """A GF(2) matrix as a plain value: its shape and its columns, compared
    by value.  Every query computes its result afresh."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        if columns is None:
            columns = [0] * cols
        elif len(columns) != cols or columns and (min(columns) < 0 or max(columns) >> rows):
            raise DimensionMismatch(f"columns do not fit a {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols
        self.columns = columns

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

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # ------------------------------------------------------------- operators

    def transpose(self) -> BitMatrix:
        rows = [0] * self.rows
        for j, c in enumerate(self.columns):
            bit = 1 << j
            for i in set_bits(c):
                rows[i] |= bit
        return BitMatrix(self.cols, self.rows, rows)

    def matvec(self, x: int) -> int:
        """Matrix-vector product over GF(2); x is a length-cols bit int.

        One C-level pass: the XOR of the columns that x's digits pick."""
        _check_vector(x, self.cols)
        return reduce(xor, compress(self.columns, to_flags(x, self.cols)), 0)

    def matmul(self, other: BitMatrix) -> BitMatrix:
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return BitMatrix(self.rows, other.cols, [self.matvec(c) for c in other.columns])

    # ------------------------------------------------------------ elimination

    def column_space(self) -> EchelonBasis:
        """Basis of the column space (lowest-pivot column reduction)."""
        basis = EchelonBasis(self.rows)
        for c in self.columns:
            basis.insert(c)
        return basis

    def row_space(self) -> EchelonBasis:
        return self.transpose().column_space()

    def rank(self) -> int:
        return self.column_space().rank

    def tagged_reduction(self, kept=None) -> tuple[EchelonBasis, list[int]]:
        """Reduce the columns listed in kept (all, by default), in that order,
        the t-th of them tagged by bit rows + t.

        Returns the tagged basis and, for each kept column whose row part
        reduces to zero, a kernel vector of the kept columns read from its
        tag bits, with bit j standing for column j.  With every column kept,
        tag bit j is column j, so `EchelonBasis.tags` reads solutions off the
        basis."""
        basis = EchelonBasis(self.rows)
        kernel = []
        low = (1 << self.rows) - 1
        if kept is None:
            kept = range(self.cols)
        columns = self.columns
        for t, j in enumerate(kept):
            r = basis.insert(columns[j] | 1 << (self.rows + t))
            if not r & low:
                kernel.append(r >> self.rows)
        if len(kept) < self.cols:
            kernel = [sum(1 << kept[t] for t in set_bits(k)) for k in kernel]
        return basis, kernel

    def solve(self, b: int) -> int | None:
        """One solution x of Mx = b, or None if inconsistent."""
        _check_vector(b, self.rows)
        return self.tagged_reduction()[0].tags(b)

    def null_space(self) -> list[int]:
        """Kernel basis, one vector per column that depends on earlier ones.

        The vector for column j has j as its highest bit, so the cols - rank
        vectors are independent."""
        return self.tagged_reduction()[1]

