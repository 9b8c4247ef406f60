"""Dense matrices over GF(q), block partitioning and the exact product
oracle that every protocol result is checked against.

Matrices are immutable after construction: row-major flat data of
canonical residues in [0, q), strict shape checks, no implicit padding
anywhere. The public constructor reduces its input once; code in this
package that has just built a list of canonical residues (kernel
output, slices of other matrices, fresh draws) wraps it with the
private ``BlockMatrix._canonical`` and skips that pass.

The oracle is pure Python: it packs each row of B into one int, so a
row of the product is one sum of scalar-times-packed-row products
(see ``matmul_oracle``).
"""

from dataclasses import dataclass
from operator import mul

from . import _kernels
from .errors import ParamError, ShapeError
from .field import FieldConfig
from .rng import Stream


@dataclass(frozen=True)
class PartitionSpec:
    """Block counts: A splits into m x p blocks, B into p x n."""

    m: int
    p: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.p < 1 or self.n < 1:
            raise ParamError("partition parameters must be positive")


class BlockMatrix:
    __slots__ = ("rows", "cols", "data", "field")

    def __init__(self, rows: int, cols: int, data, field: FieldConfig):
        self._init(rows, cols, [v % field.q for v in data], field)

    @classmethod
    def _canonical(cls, rows, cols, data, field):
        """Wrap ``data`` as is: a list just built by the caller, not
        shared with anything else, whose entries are all in [0, q)."""
        mat = object.__new__(cls)
        mat._init(rows, cols, data, field)
        return mat

    def _init(self, rows, cols, data, field):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if len(data) != rows * cols:
            raise ShapeError(f"data length {len(data)} != {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("BlockMatrix is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, field):
        return cls(rows, cols, [0] * (rows * cols), field)

    @classmethod
    def from_rows(cls, rows_of_values, field):
        nrows = len(rows_of_values)
        ncols = len(rows_of_values[0]) if nrows else 0
        flat = []
        for row in rows_of_values:
            if len(row) != ncols:
                raise ShapeError("ragged row lengths")
            flat.extend(row)
        return cls(nrows, ncols, flat, field)

    @classmethod
    def identity(cls, n, field):
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(n, n, data, field)

    # -- basics --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, BlockMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field.q == other.field.q
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.field.q, tuple(self.data)))

    def __repr__(self):
        return f"BlockMatrix({self.rows}x{self.cols} over GF({self.field.q}))"

    def entry(self, i, j):
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def add(self, other):
        self._check_same_shape(other)
        q = self.field.q
        return BlockMatrix(
            self.rows,
            self.cols,
            [(a + b) % q for a, b in zip(self.data, other.data)],
            self.field,
        )

    def sub(self, other):
        self._check_same_shape(other)
        q = self.field.q
        return BlockMatrix(
            self.rows,
            self.cols,
            [(a - b) % q for a, b in zip(self.data, other.data)],
            self.field,
        )

    def scaled(self, c):
        q = self.field.q
        c %= q
        return BlockMatrix(
            self.rows, self.cols, [v * c % q for v in self.data], self.field
        )

    def is_zero(self):
        return all(v == 0 for v in self.data)

    def matmul(self, other):
        """Kernel-backed product (compiled backend when available)."""
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.field.q != other.field.q:
            raise ShapeError("operands live in different fields")
        data = _kernels.matmul_mod(
            self.data, other.data, self.rows, self.cols, other.cols, self.field.q
        )
        return BlockMatrix._canonical(self.rows, other.cols, data, self.field)

    def __matmul__(self, other):
        return self.matmul(other)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch")
        if self.field.q != other.field.q:
            raise ShapeError("operands live in different fields")


def matmul_oracle(a: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """Exact product on packed rows, deliberately independent of the kernels.

    This is the ground truth the protocol outputs are compared against,
    so it is pure Python and never dispatches to ``_kernels``. Each row
    of B is packed into one int of ``wb``-byte slots, where ``8 * wb``
    bits hold k * (q - 1)**2, the largest exact dot product. Row i of
    C is then sum_t a[i, t] * packed[t]: no slot can carry into the
    next, so each slot of the sum is one exact integer dot product,
    reduced once mod q.
    """
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if a.field.q != b.field.q:
        raise ShapeError("operands live in different fields")
    q = a.field.q
    k, m = a.cols, b.cols
    wb = max(1, ((k * (q - 1) ** 2).bit_length() + 7) // 8)
    width = m * wb
    from_bytes = int.from_bytes
    packed = [
        from_bytes(b"".join([v.to_bytes(wb, "little") for v in b.row(t)]), "little")
        for t in range(k)
    ]
    out = []
    for i in range(a.rows):
        sums = sum(map(mul, a.row(i), packed)).to_bytes(width, "little")
        out.extend([from_bytes(sums[s : s + wb], "little") % q for s in range(0, width, wb)])
    return BlockMatrix._canonical(a.rows, m, out, a.field)


def random_matrix(rows: int, cols: int, field: FieldConfig, stream: Stream) -> BlockMatrix:
    """Uniform entries drawn in row-major order from the stream."""
    data = [stream.next_below(field.q) for _ in range(rows * cols)]
    return BlockMatrix._canonical(rows, cols, data, field)


def partition(mat: BlockMatrix, row_blocks: int, col_blocks: int):
    """Split into a row_blocks x col_blocks grid of equal sub-matrices."""
    if row_blocks < 1 or col_blocks < 1:
        raise ShapeError("block counts must be positive")
    if mat.rows % row_blocks or mat.cols % col_blocks:
        raise ShapeError(
            f"{mat.rows}x{mat.cols} not divisible into {row_blocks}x{col_blocks} blocks"
        )
    br = mat.rows // row_blocks
    bc = mat.cols // col_blocks
    grid = []
    for bi in range(row_blocks):
        row = []
        for bj in range(col_blocks):
            data = []
            for r in range(br):
                start = (bi * br + r) * mat.cols + bj * bc
                data.extend(mat.data[start : start + bc])
            row.append(BlockMatrix._canonical(br, bc, data, mat.field))
        grid.append(row)
    return grid


def assemble(grid) -> BlockMatrix:
    """Concatenate a rectangular grid of uniformly sized blocks."""
    if not grid or not grid[0]:
        raise ShapeError("empty grid")
    ncols_blocks = len(grid[0])
    first = grid[0][0]
    br, bc, fieldcfg = first.rows, first.cols, first.field
    for row in grid:
        if len(row) != ncols_blocks:
            raise ShapeError("ragged grid")
        for blk in row:
            if blk.rows != br or blk.cols != bc:
                raise ShapeError("blocks are not uniformly sized")
            if blk.field.q != fieldcfg.q:
                raise ShapeError("blocks live in different fields")
    data = []
    for blockrow in grid:
        for r in range(br):
            for blk in blockrow:
                data.extend(blk.data[r * bc : (r + 1) * bc])
    return BlockMatrix._canonical(len(grid) * br, ncols_blocks * bc, data, fieldcfg)


# ---------------------------------------------------------------------------
# Fixture file format: "q rows cols" header, then rows of decimal residues.
# ---------------------------------------------------------------------------


def save_matrix(mat: BlockMatrix, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mat.field.q} {mat.rows} {mat.cols}\n")
        for i in range(mat.rows):
            fh.write(" ".join(str(v) for v in mat.row(i)))
            fh.write("\n")


def load_matrix(path, field: FieldConfig = None) -> BlockMatrix:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ShapeError(f"bad matrix header in {path}")
        q, rows, cols = (int(v) for v in header)
        if field is None:
            field = FieldConfig(q)
        elif field.q != q:
            raise ShapeError(f"file modulus {q} != expected {field.q}")
        data = []
        for _ in range(rows):
            line = fh.readline().split()
            if len(line) != cols:
                raise ShapeError(f"bad row width in {path}")
            for tok in line:
                v = int(tok)
                if not 0 <= v < q:
                    raise ShapeError(f"entry {v} out of range in {path}")
                data.append(v)
    return BlockMatrix(rows, cols, data, field)
