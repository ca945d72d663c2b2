from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import swlab
from swlab.errors import DimensionMismatch
from swlab.gf2 import BitMatrix, EchelonBasis


def random_matrix(rng, rows, cols, density=0.4):
    mask = rng.random((rows, cols)) < density
    entries = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
    return BitMatrix.from_entries(rows, cols, entries)


def test_from_entries_and_get():
    # entries are positions of ones; repeats are idempotent
    m = BitMatrix.from_entries(3, 4, [(0, 1), (2, 3), (0, 1)])
    assert m.get(0, 1) == 1
    assert m.get(2, 3) == 1
    assert m.get(1, 0) == 0
    assert m.nnz == 2


def test_identity_and_matmul():
    rng = np.random.default_rng(1)
    a = random_matrix(rng, 17, 23)
    eye = BitMatrix.identity(17)
    assert eye.matmul(a) == a
    assert a.matmul(BitMatrix.identity(23)) == a


def random_bits(rng, nbits):
    return int.from_bytes(rng.bytes((nbits + 7) // 8), "little") % (1 << nbits)


def random_shapes(rng, count, largest=30):
    """Small shapes, including empty ones, for property checks."""
    return [(0, 5), (5, 0), (1, 1)] + [
        (int(rng.integers(1, largest)), int(rng.integers(1, largest)))
        for _ in range(count)]


def dense(a):
    """The matrix as a 0/1 numpy array, read entry by entry."""
    return np.array([[a.get(i, j) for j in range(a.cols)]
                     for i in range(a.rows)], dtype=np.int64).reshape(a.rows, a.cols)


def fresh_copy(a):
    """The same matrix with no cached reduction, to check reproducibility."""
    return BitMatrix(a.rows, a.cols, list(a.columns))


def dense_rank(m):
    """Reference GF(2) rank: Gaussian elimination on a dense 0/1 array."""
    m = m.copy() % 2
    r = 0
    for c in range(m.shape[1]):
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        m[[r, p]] = m[[p, r]]
        below = r + 1 + np.nonzero(m[r + 1:, c])[0]
        m[below] ^= m[r]
        r += 1
        if r == m.shape[0]:
            break
    return r


def test_transpose_involution_and_matvec_t():
    rng = np.random.default_rng(2)
    a = random_matrix(rng, 13, 31)
    assert a.transpose().transpose() == a
    for _ in range(20):
        y = random_bits(rng, 13)
        assert a.transpose().matvec(y) == a.matvec_t(y)


def test_matvec_matches_dense_arithmetic():
    rng = np.random.default_rng(3)
    rows, cols = 9, 14
    a = random_matrix(rng, rows, cols)
    for _ in range(25):
        x = random_bits(rng, cols)
        xv = np.array([(x >> j) & 1 for j in range(cols)], dtype=np.int64)
        want = (dense(a) @ xv) % 2
        got = a.matvec(x)
        assert [(got >> i) & 1 for i in range(rows)] == list(want)


def test_matmul_associative_random():
    rng = np.random.default_rng(4)
    a = random_matrix(rng, 8, 12)
    b = random_matrix(rng, 12, 9)
    c = random_matrix(rng, 9, 15)
    assert a.matmul(b).matmul(c) == a.matmul(b.matmul(c))


def test_rank_of_identity_and_zero():
    assert BitMatrix.identity(40).rank() == 40
    assert BitMatrix.zeros(7, 11).rank() == 0


def test_rank_invariant_under_transpose():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_matrix(rng, int(rng.integers(1, 40)),
                          int(rng.integers(1, 40)))
        assert a.rank() == a.transpose().rank()
        assert a.rank() == dense_rank(dense(a))


def test_solve_reconstructs_known_solution():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = random_matrix(rng, 20, 16)
        x = random_bits(rng, 16)
        b = a.matvec(x)
        got = a.solve(b)
        assert got is not None
        assert a.matvec(got) == b
        assert fresh_copy(a).solve(b) == got


def test_solve_detects_inconsistency():
    # x + y = 0 and x + y = 1 cannot both hold
    a = BitMatrix.from_entries(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert a.solve(0b10) is None


def test_null_space_annihilates():
    rng = np.random.default_rng(7)
    for rows, cols in [(14, 22)] + random_shapes(rng, 20):
        a = random_matrix(rng, rows, cols)
        basis = a.null_space()
        assert len(basis) == cols - dense_rank(dense(a))
        for v in basis:
            assert a.matvec(v) == 0
        assert fresh_copy(a).null_space() == basis


def test_null_space_basis_independent():
    rng = np.random.default_rng(8)
    for rows, cols in [(14, 22)] + random_shapes(rng, 20):
        basis = random_matrix(rng, rows, cols).null_space()
        assert BitMatrix(cols, len(basis), basis).rank() == len(basis)


def test_reduce_is_independent_of_insertion_order():
    rng = np.random.default_rng(14)
    for rows, cols in random_shapes(rng, 10):
        vectors = random_matrix(rng, rows, cols).columns
        bases = []
        for _ in range(4):
            basis = EchelonBasis(rows)
            for k in rng.permutation(cols):
                basis.insert(vectors[k])
            bases.append(basis)
        assert len({b.rank for b in bases}) == 1
        for _ in range(10):
            v = random_bits(rng, rows)
            assert len({b.reduce(v) for b in bases}) == 1


def test_solve_is_none_exactly_outside_column_space():
    rng = np.random.default_rng(15)
    for rows, cols in random_shapes(rng, 20, largest=12):
        a = random_matrix(rng, rows, cols, density=0.3)
        m = dense(a)
        for _ in range(10):
            b = random_bits(rng, rows)
            bv = np.array([(b >> i) & 1 for i in range(rows)], dtype=np.int64)
            inside = dense_rank(np.hstack([m, bv.reshape(rows, 1)])) == dense_rank(m)
            x = a.solve(b)
            assert (x is not None) == inside
            if x is not None:
                assert a.matvec(x) == b


def test_matvec_rejects_long_vectors():
    a = random_matrix(np.random.default_rng(16), 5, 7)
    with pytest.raises(DimensionMismatch):
        a.matvec(1 << 7)
    with pytest.raises(DimensionMismatch):
        a.matvec_t(1 << 5)
    with pytest.raises(DimensionMismatch):
        a.solve(1 << 5)
    with pytest.raises(ValueError):
        a.matvec(-1)
    a.matvec((1 << 7) - 1)
    a.matvec_t((1 << 5) - 1)


def test_row_space_membership():
    rng = np.random.default_rng(9)
    a = random_matrix(rng, 12, 18)
    space = a.row_space()
    rows = a.transpose().columns
    for i in range(12):
        assert space.contains(rows[i])
    combo = rows[0] ^ rows[5] ^ rows[11]
    assert space.contains(combo)


def test_column_space_is_transpose_row_space():
    rng = np.random.default_rng(10)
    a = random_matrix(rng, 15, 10)
    col = a.column_space()
    for _ in range(20):
        x = random_bits(rng, 10)
        assert col.contains(a.matvec(x))


def test_echelon_basis_reduce_idempotent():
    rng = np.random.default_rng(11)
    a = random_matrix(rng, 9, 30)
    space = a.row_space()
    for _ in range(40):
        v = random_bits(rng, 30)
        r = space.reduce(v)
        assert space.reduce(r) == r
        assert space.contains(v ^ r)


def test_rank_at_scale_is_fast():
    rng = np.random.default_rng(12)
    big = random_matrix(rng, 1024, 2048, density=0.02)
    assert 0 < big.rank() <= 1024


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 64), (64, 1), (65, 129)])
def test_word_boundary_shapes(rows, cols):
    rng = np.random.default_rng(13)
    a = random_matrix(rng, rows, cols, density=0.5)
    x = random_bits(rng, cols)
    assert a.transpose().transpose() == a
    assert a.transpose().matvec_t(x) == a.matvec(x)


def test_package_import_does_not_load_numpy():
    # GF(2) work runs on python ints; numpy is for the metric probes only
    src = os.path.dirname(os.path.dirname(swlab.__file__))
    code = "import sys, swlab, swlab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
