from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import swlab
from swlab.errors import DimensionMismatch
from swlab.gf2 import BitMatrix, EchelonBasis, gather, scatter


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
    """An equal matrix on a copy of the columns, to check reproducibility."""
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


def bits_of(v, n):
    return np.array([(v >> i) & 1 for i in range(n)], dtype=np.int64)


def test_transpose_involution_and_matvec():
    rng = np.random.default_rng(2)
    a = random_matrix(rng, 13, 31)
    assert a.transpose().transpose() == a
    for _ in range(20):
        y = random_bits(rng, 13)
        want = (dense(a).T @ bits_of(y, 13)) % 2
        assert list(bits_of(a.transpose().matvec(y), 31)) == list(want)


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
    assert BitMatrix(7, 11).rank() == 0


def test_rank_invariant_under_transpose():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_matrix(rng, int(rng.integers(1, 40)),
                          int(rng.integers(1, 40)))
        assert a.rank() == a.transpose().rank()
        assert a.rank() == dense_rank(dense(a))
        # reducing the row space first does not change the rank
        b = fresh_copy(a)
        b.row_space()
        assert b.rank() == a.rank()


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


def test_echelon_basis_is_independent_of_insertion_order():
    rng = np.random.default_rng(14)
    for rows, cols in random_shapes(rng, 10):
        a = random_matrix(rng, rows, cols)
        bases = []
        for _ in range(4):
            basis = EchelonBasis(rows)
            for k in rng.permutation(cols):
                basis.insert(a.columns[k])
            bases.append(basis)
        assert {b.rank for b in bases} == {dense_rank(dense(a))}
        for _ in range(10):
            v = random_bits(rng, rows)
            if rng.random() < 0.5:
                v = a.matvec(random_bits(rng, cols))
            assert len({b.contains(v) for b in bases}) == 1


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
        a.transpose().matvec(1 << 5)
    with pytest.raises(DimensionMismatch):
        a.solve(1 << 5)
    with pytest.raises(ValueError):
        a.matvec(-1)
    a.matvec((1 << 7) - 1)
    a.transpose().matvec((1 << 5) - 1)


def _matvec_by_digits(a, x):
    """The XOR of the columns at x's set bits, one binary digit at a time."""
    acc = 0
    for c, bit in zip(a.columns, reversed(f"{x:b}")):
        if bit == "1":
            acc ^= c
    return acc


def test_matvec_matches_the_digit_scan():
    rng = random.Random(31)
    for rows in (0, 1, 7, 64, 65, 200):
        for cols in (0, 1, 2, 63, 64, 130):
            a = BitMatrix(rows, cols, [rng.getrandbits(rows) for _ in range(cols)])
            for x in (0, (1 << cols) - 1, rng.getrandbits(cols), 1 << cols >> 1):
                assert a.matvec(x) == _matvec_by_digits(a, x), (rows, cols, x)


def test_columns_must_fit_the_shape():
    assert BitMatrix(0, 0, []).columns == []
    assert BitMatrix(3, 2, [0, 7]).columns == [0, 7]
    for columns in ([0, 8], [-1, 0], [0]):
        with pytest.raises(DimensionMismatch):
            BitMatrix(3, 2, columns)


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


def test_echelon_basis_contains_exactly_the_span():
    rng = np.random.default_rng(11)
    a = random_matrix(rng, 9, 30)
    space = a.row_space()
    m = dense(a)
    for _ in range(40):
        v = random_bits(rng, 30)
        inside = dense_rank(np.vstack([m, bits_of(v, 30)])) == dense_rank(m)
        assert space.contains(v) == inside
        assert space.contains(a.transpose().matvec(random_bits(rng, 9)))


def test_rank_at_scale_is_fast():
    rng = np.random.default_rng(12)
    big = random_matrix(rng, 1024, 2048, density=0.02)
    assert 0 < big.rank() <= 1024


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 64), (64, 1), (65, 129)])
def test_word_boundary_shapes(rows, cols):
    rng = np.random.default_rng(13)
    a = random_matrix(rng, rows, cols, density=0.5)
    y = random_bits(rng, rows)
    assert a.transpose().transpose() == a
    want = (dense(a).T @ bits_of(y, rows)) % 2
    assert list(bits_of(a.transpose().matvec(y), cols)) == list(want)


def _last_line_of(code: str) -> str:
    src = os.path.dirname(os.path.dirname(swlab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_package_import_does_not_load_numpy():
    # GF(2) work runs on python ints; numpy is for the metric probes only
    code = "import sys, swlab, swlab.cli; print('numpy' in sys.modules)"
    assert _last_line_of(code) == "False"


def test_classes_and_corpus_commands_do_not_load_numpy(tmp_path):
    # the report path keeps its tables in python ints, so that no
    # `swlab classes` run pays numpy's import time
    report = str(tmp_path / "rp3.json")
    code = ("import sys\nfrom swlab import cli\n"
            f"codes = (cli.main(['classes', '--corpus', 'rp3', '--report', "
            f"{report!r}]), cli.main(['corpus', 'list']))\n"
            "print(codes, 'numpy' in sys.modules)")
    assert _last_line_of(code) == "(0, 0) False"


def _tables(rng):
    """(table, width) pairs: random tables with repeated indices, an empty
    table, one-index tables, a range table and width 0."""
    out = [([], 0), ([], 5), ([0], 1), ([3], 7), (range(9), 9)]
    for width in (1, 2, 13, 64, 65, 300):
        for size in (1, 5, 40, 400):
            out.append(([rng.randrange(width) for _ in range(size)], width))
    return out


def test_gather_matches_a_per_bit_loop():
    rng = random.Random(29)
    for table, width in _tables(rng):
        for bits in (0, (1 << width) - 1, rng.getrandbits(width) if width else 0):
            expected = sum(((bits >> i) & 1) << j for j, i in enumerate(table))
            assert gather(bits, table, width) == expected, (table, width, bits)


def test_scatter_is_the_parity_of_the_index_counts():
    rng = random.Random(30)
    for table, width in _tables(rng):
        parity = 0
        for i in table:
            parity ^= 1 << i
        counts = Counter(table)
        assert scatter(table, width) == parity, (table, width)
        assert scatter(iter(table), width) == sum(1 << i for i, c in counts.items() if c & 1)
