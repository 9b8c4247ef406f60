import math

import pytest

from smbmm.errors import ParamError, ShapeError
from smbmm.field import FieldConfig
from smbmm.matrix import (
    BlockMatrix,
    PartitionSpec,
    assemble,
    load_matrix,
    matmul_oracle,
    partition,
    random_matrix,
    save_matrix,
)
from smbmm.rng import Stream


def f(q=7):
    return FieldConfig(q)


def test_partition_worked_values():
    m = BlockMatrix.from_rows([[1, 2], [3, 4]], f())
    grid = partition(m, 2, 2)
    assert [[blk.data for blk in row] for row in grid] == [[[1], [2]], [[3], [4]]]
    whole = partition(m, 1, 1)
    assert whole[0][0] == m


def test_partition_rejects_non_divisible():
    m = BlockMatrix.from_rows([[1, 2, 3], [4, 5, 6]], f())
    with pytest.raises(ShapeError):
        partition(m, 2, 2)


def test_partition_assemble_round_trip():
    fld = f(101)
    m = random_matrix(4, 6, fld, Stream(5))
    assert assemble(partition(m, 2, 3)) == m
    assert assemble(partition(m, 4, 2)) == m


def test_assemble_rejects_ragged_grid():
    fld = f()
    a = BlockMatrix.from_rows([[1]], fld)
    b = BlockMatrix.from_rows([[1, 2]], fld)
    with pytest.raises(ShapeError):
        assemble([[a, a], [a, b]])
    with pytest.raises(ShapeError):
        assemble([[a, a], [a]])


def test_matmul_oracle_worked_values():
    fld = f()
    ident = BlockMatrix.identity(3, fld)
    b = random_matrix(3, 2, fld, Stream(9))
    assert matmul_oracle(ident, b) == b
    zero = BlockMatrix.zeros(2, 3, fld)
    assert matmul_oracle(zero, b).is_zero()
    row = BlockMatrix.from_rows([[1, 2, 3]], fld)
    col = BlockMatrix.from_rows([[1], [1], [1]], fld)
    assert matmul_oracle(row, col).data == [6]
    with pytest.raises(ShapeError):
        matmul_oracle(row, row)


def test_matmul_kernel_matches_oracle():
    fld = f(257)
    st = Stream(13)
    for _ in range(10):
        a = random_matrix(1 + st.next_below(5), 1 + st.next_below(5), fld, st)
        b = random_matrix(a.cols, 1 + st.next_below(5), fld, st)
        assert a.matmul(b) == matmul_oracle(a, b)


def test_matmul_associative_and_distributive_spot_checks():
    fld = f(101)
    st = Stream(21)
    for _ in range(5):
        a = random_matrix(3, 3, fld, st)
        b = random_matrix(3, 3, fld, st)
        c = random_matrix(3, 3, fld, st)
        assert matmul_oracle(matmul_oracle(a, b), c) == matmul_oracle(a, matmul_oracle(b, c))
        assert matmul_oracle(a, b.add(c)) == matmul_oracle(a, b).add(matmul_oracle(a, c))


def test_block_product_identity():
    # assembling sum_l A[k,l] B[l,j] over blocks reproduces the full product
    fld = f(257)
    st = Stream(33)
    a = random_matrix(6, 6, fld, st)
    b = random_matrix(6, 4, fld, st)
    m, p, n = 3, 2, 2
    ga = partition(a, m, p)
    gb = partition(b, p, n)
    grid = []
    for k in range(m):
        row = []
        for j in range(n):
            acc = matmul_oracle(ga[k][0], gb[0][j])
            for l in range(1, p):
                acc = acc.add(matmul_oracle(ga[k][l], gb[l][j]))
            row.append(acc)
        grid.append(row)
    assert assemble(grid) == matmul_oracle(a, b)


def test_random_matrix_deterministic():
    fld = f(101)
    assert random_matrix(5, 5, fld, Stream(7)) == random_matrix(5, 5, fld, Stream(7))
    assert random_matrix(5, 5, fld, Stream(7)) != random_matrix(5, 5, fld, Stream(8))


def test_random_matrix_uniformity_chi_square():
    # each residue frequency within 5 sigma of the uniform expectation
    fld = f(5)
    m = random_matrix(100, 100, fld, Stream(99))
    expected = 10_000 / 5
    sigma = math.sqrt(10_000 * (1 / 5) * (4 / 5))
    counts = [0] * 5
    for v in m.data:
        counts[v] += 1
    for c in counts:
        assert abs(c - expected) < 5 * sigma


def test_random_matrix_degenerate_shape():
    m = random_matrix(0, 0, f(), Stream(1))
    assert m.rows == 0 and m.cols == 0 and m.data == []


def test_matrix_immutability():
    m = BlockMatrix.from_rows([[1]], f())
    with pytest.raises(AttributeError):
        m.rows = 2


def test_matrix_file_round_trip(tmp_path):
    fld = f(257)
    m = random_matrix(3, 4, fld, Stream(3))
    path = tmp_path / "m.txt"
    save_matrix(m, path)
    assert load_matrix(path) == m
    assert load_matrix(path, fld) == m
    text = path.read_text()
    assert text.splitlines()[0] == "257 3 4"
    with pytest.raises(ShapeError):
        load_matrix(path, f(101))


def test_matrix_file_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("7 1 2\n3 9\n")
    with pytest.raises(ShapeError):
        load_matrix(path)


def test_stream_split_independence():
    s = Stream(42)
    a = s.derive("a")
    b = s.derive("b")
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]
    # derivation does not disturb the parent
    s2 = Stream(42)
    assert s.next_u64() == s2.next_u64()


def test_stream_rejection_bound():
    s = Stream(1)
    for _ in range(1000):
        assert 0 <= s.next_below(7) < 7


def test_partition_spec_rejects_nonpositive_counts():
    with pytest.raises(ParamError):
        PartitionSpec(0, 1, 1)
    with pytest.raises(ParamError):
        PartitionSpec(1, 1, -2)
