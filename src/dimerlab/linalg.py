"""Dense matrices over the two scalar fields, rationals and floats.

Everything the statistics formulas need lives here: one pivoted LU
elimination on sparse dict rows (determinants, inverses and single column
solves all go through it), minors and characteristic-polynomial
coefficients via Newton's identities.  No floating-point shortcuts are
ever taken on exact input.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import mul


class LinalgError(Exception):
    pass


class ShapeError(LinalgError):
    pass


class SingularMatrixError(LinalgError):
    pass


class Matrix:
    """Rectangular dense matrix, row-major, treated as immutable."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        for row in data:
            if len(row) != cols:
                raise ShapeError("ragged rows")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def diag(entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        out = [[Fraction(0)] * n for _ in range(n)]
        for i, x in enumerate(entries):
            out[i][i] = x
        return Matrix(out)

    # -- basics ----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            self.data[i][j] == other.data[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def has_float(self) -> bool:
        return any(isinstance(x, float) for row in self.data for x in row)

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(x) for x in row] for row in self.data])

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if self.shape != other.shape:
            raise ShapeError(f"add {self.shape} vs {other.shape}")
        return Matrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ShapeError(f"sub {self.shape} vs {other.shape}")
        return Matrix(
            [
                [self.data[i][j] - other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.data])

    def __mul__(self, scalar):
        return Matrix([[x * scalar for x in row] for row in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"matmul {self.shape} vs {other.shape}")
        ocols = other.cols
        out = []
        for i in range(self.rows):
            arow = self.data[i]
            orow = []
            for j in range(ocols):
                acc = arow[0] * other.data[0][j] if self.cols else Fraction(0)
                for k in range(1, self.cols):
                    acc = acc + arow[k] * other.data[k][j]
                orow.append(acc)
            out.append(orow)
        return Matrix(out)

    def trace(self):
        if not self.is_square():
            raise ShapeError("trace of non-square matrix")
        if self.rows == 0:
            return Fraction(0)
        acc = self.data[0][0]
        for i in range(1, self.rows):
            acc = acc + self.data[i][i]
        return acc

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix([[self.data[i][j] for j in col_idx] for i in row_idx])


class LU:
    """P m = L U of a square field matrix, from :func:`lu`.

    Row k of U is ``pivots[k]`` on the diagonal and ``upper[k]``, a dict
    {column: entry}, right of it.  ``perm[k]`` is that row's original index
    and ``ops[k]`` the (original row, multiplier) pairs step k subtracted;
    a solve replays them on its right-hand side.  Elimination stops at the
    first column without a pivot and sets ``singular``.
    """

    __slots__ = ("perm", "pivots", "upper", "ops", "sign", "singular", "zero")

    def det(self):
        """Signed product of the pivots; zero when singular."""
        if self.singular:
            return self.zero
        acc = reduce(mul, self.pivots) if self.pivots else Fraction(1)
        return acc if self.sign == 1 else -acc

    def solve_unit(self, j: int) -> list:
        """The column x with m x = e_j; raises SingularMatrixError."""
        n, zero, perm = len(self.perm), self.zero, self.perm
        if self.singular:
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        z = {j: Fraction(1)}
        for pivot_row, step in zip(perm, self.ops):
            v = z.get(pivot_row)
            if v:
                for r, q in step:
                    z[r] = z.get(r, zero) - q * v
        x = [zero] * n
        for k in reversed(range(n)):
            s = z.get(perm[k], zero)
            for c, v in self.upper[k].items():
                if x[c]:
                    s = s - v * x[c]
            x[k] = s / self.pivots[k] if s else zero
        return x


def lu(m: Matrix) -> LU:
    """Pivoted Gaussian elimination of a square field matrix on dict rows.

    Zeros are never stored, so sparse rows stay cheap.  The pivot is the
    first nonzero of the column on exact input, the largest |x| on float.
    """
    if not m.is_square():
        raise ShapeError("LU of non-square matrix")
    n = m.rows
    rows = [{c: x for c, x in enumerate(row) if x} for row in m.data]
    use_abs = any(isinstance(x, float) for row in rows for x in row.values())
    f = LU()
    f.perm, f.pivots, f.upper, f.ops = list(range(n)), [], [], []
    f.sign, f.singular, f.zero = 1, False, 0.0 if use_abs else Fraction(0)
    for col in range(n):
        if use_abs:
            best, pivot = 0.0, None
            for r in range(col, n):
                v = abs(rows[r].get(col, 0))
                if v > best:
                    best, pivot = v, r
        else:
            pivot = None
            for r in range(col, n):
                if col in rows[r]:
                    pivot = r
                    break
        if pivot is None:
            f.singular = True
            break
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            f.perm[col], f.perm[pivot] = f.perm[pivot], f.perm[col]
            f.sign = -f.sign
        prow = rows[col]
        p = prow.pop(col)
        step = []
        for r in range(col + 1, n):
            row = rows[r]
            x = row.pop(col, None)
            if x is None:
                continue
            q = x / p
            step.append((f.perm[r], q))
            for c, v in prow.items():
                y = row.get(c, 0) - q * v
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
        f.pivots.append(p)
        f.upper.append(prow)
        f.ops.append(step)
    return f


def det(m: Matrix):
    """Determinant, the signed pivot product of :func:`lu` (exact on exact input)."""
    if not m.is_square():
        raise ShapeError("determinant of non-square matrix")
    if m.rows == 1:  # most oracle minors; skips the factorisation's set-up
        return m.data[0][0]
    return lu(m).det()


def inverse(m: Matrix) -> Matrix:
    """Exact inverse, one :func:`lu` solve per unit column; raises SingularMatrixError."""
    if not m.is_square():
        raise ShapeError("inverse of non-square matrix")
    f = lu(m)
    return Matrix(zip(*(f.solve_unit(j) for j in range(m.rows))))


def minor(m: Matrix, row_idx, col_idx):
    """Determinant of the submatrix on ``row_idx`` x ``col_idx``.

    The empty minor is 1 by convention.  Index sets are sorted before
    slicing, matching the "natural increasing order" convention for
    half-edge colors.
    """
    row_idx = sorted(row_idx)
    col_idx = sorted(col_idx)
    if len(row_idx) != len(col_idx):
        raise ShapeError("minor needs |I| = |J|")
    if not row_idx:
        return Fraction(1)
    if row_idx[-1] >= m.rows or col_idx[-1] >= m.cols or row_idx[0] < 0 or col_idx[0] < 0:
        raise ShapeError("minor index out of range")
    return det(m.submatrix(row_idx, col_idx))


def char_coeffs(m: Matrix):
    """Elementary symmetric functions e_0..e_n of the eigenvalues.

    Computed from traces of powers via Newton's identities, entirely in
    the base field; no eigendecomposition.  det(I + t m) = sum e_k t^k.
    """
    if not m.is_square():
        raise ShapeError("char_coeffs of non-square matrix")
    n = m.rows
    power = m
    ptr = []
    for _ in range(n):
        ptr.append(power.trace())
        power = power @ m
    es = [Fraction(1)]
    for k in range(1, n + 1):
        acc = None
        for i in range(1, k + 1):
            term = es[k - i] * ptr[i - 1]
            if i % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        es.append(acc / k)
    return es


class BlockMatrix:
    """A flat matrix plus row/column block partitions."""

    __slots__ = ("row_sizes", "col_sizes", "mat", "_row_off", "_col_off")

    def __init__(self, row_sizes, col_sizes, mat: Matrix):
        self.row_sizes = list(row_sizes)
        self.col_sizes = list(col_sizes)
        if sum(self.row_sizes) != mat.rows or sum(self.col_sizes) != mat.cols:
            raise ShapeError("block sizes do not tile the matrix")
        self.mat = mat
        self._row_off = [0, *accumulate(self.row_sizes)]
        self._col_off = [0, *accumulate(self.col_sizes)]

    @staticmethod
    def from_blocks(grid) -> "BlockMatrix":
        """Assemble from a 2D list of Matrix blocks."""
        row_sizes = [grid[i][0].rows for i in range(len(grid))]
        col_sizes = [grid[0][j].cols for j in range(len(grid[0]))]
        data = []
        for i, brow in enumerate(grid):
            if [b.rows for b in brow] != [row_sizes[i]] * len(brow):
                raise ShapeError("inconsistent block heights")
            for r in range(row_sizes[i]):
                data.append([x for b in brow for x in b.data[r]])
        return BlockMatrix(row_sizes, col_sizes, Matrix(data))

    def block(self, i: int, j: int) -> Matrix:
        r0 = self._row_off[i]
        c0 = self._col_off[j]
        return self.mat.submatrix(
            range(r0, r0 + self.row_sizes[i]), range(c0, c0 + self.col_sizes[j])
        )

    def row_offset(self, i: int) -> int:
        return self._row_off[i]

    def col_offset(self, j: int) -> int:
        return self._col_off[j]
