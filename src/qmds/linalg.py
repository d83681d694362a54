"""Dense exact linear algebra over prime fields GF(q).

Matrices are stored as immutable row-major numpy integer arrays together
with their field.  Everything here is exact: Gauss-Jordan elimination,
rank, inverse, the ranks of a whole stack of matrices in one lockstep
elimination (``batched_rank``), and the column-span intersection
dimension computed with the rank identity

    dim(<U> n <V>) = rank(U) + rank(V) - rank([U | V]).

Desk-scale dimensions only (tens of rows/columns); no sparsity, no
floating point.  Entries are int64 residues of q < 2^31 (see gf.MAX_Q), so
each product of two residues is below 2^62; matrix products reduce after
every inner index to stay there.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .gf import Field, FieldElement, FieldMismatchError


class SingularMatrixError(ValueError):
    """Raised when inverting a rank-deficient square matrix.

    Carries ``size`` and ``rank`` so callers can report the rank deficit.
    """

    def __init__(self, size: int, rank: int):
        self.size = size
        self.rank = rank
        super().__init__(
            f"matrix is singular: rank {rank} < size {size} (deficit {size - rank})"
        )


def _as_int_rows(entries, field: Field) -> NDArray[np.int64]:
    """Normalize nested lists / arrays of ints or FieldElements to int64."""
    if isinstance(entries, np.ndarray) and entries.dtype != object:
        arr = entries.astype(np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got ndim={arr.ndim}")
        return arr
    rows = []
    width = None
    for row in entries:
        converted = []
        for e in row:
            if isinstance(e, FieldElement):
                if e.field != field:
                    raise FieldMismatchError(
                        f"entry from GF({e.field.q}) in a GF({field.q}) matrix"
                    )
                converted.append(e.value)
            else:
                converted.append(int(e))
        if width is None:
            width = len(converted)
        elif len(converted) != width:
            raise ValueError("ragged rows in matrix entries")
        rows.append(converted)
    if not rows:
        return np.zeros((0, 0), dtype=np.int64)
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


class MatrixGF:
    """A dense matrix over GF(q).

    The backing array is reduced mod q at construction and made read-only;
    matrices are immutable and safe to share.
    """

    __slots__ = ("array", "field")

    def __init__(self, entries, field: Field):
        arr = _as_int_rows(entries, field) % field.q
        arr.flags.writeable = False
        self.array = arr
        self.field = field

    @classmethod
    def zeros(cls, rows: int, cols: int, field: Field) -> "MatrixGF":
        return cls(np.zeros((rows, cols), dtype=np.int64), field)

    @classmethod
    def identity(cls, size: int, field: Field) -> "MatrixGF":
        return cls(np.eye(size, dtype=np.int64), field)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __getitem__(self, key) -> FieldElement:
        i, j = key
        return FieldElement(int(self.array[i, j]), self.field)

    def column_submatrix(self, cols) -> "MatrixGF":
        """Submatrix built from the given 0-based column indices, in order."""
        return MatrixGF(self.array[:, list(cols)], self.field)

    def row_submatrix(self, rows) -> "MatrixGF":
        return MatrixGF(self.array[list(rows), :], self.field)

    def transpose(self) -> "MatrixGF":
        return MatrixGF(self.array.T, self.field)

    def hstack(self, other: "MatrixGF") -> "MatrixGF":
        self._check_field(other)
        if other.rows != self.rows:
            raise ValueError(f"row counts differ: {self.rows} vs {other.rows}")
        return MatrixGF(np.hstack((self.array, other.array)), self.field)

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})"
            )
        return MatrixGF(_matmul_mod(self.array, other.array, self.field.q), self.field)

    def _check_field(self, other: "MatrixGF") -> None:
        if self.field != other.field:
            raise FieldMismatchError(
                f"cannot combine GF({self.field.q}) and GF({other.field.q}) matrices"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self):
        return hash((self.field.q, self.array.shape, self.array.tobytes()))

    def tolist(self) -> list[list[int]]:
        return self.array.tolist()

    def __repr__(self) -> str:
        return f"MatrixGF({self.tolist()}, GF({self.field.q}))"


def _matmul_mod(a: NDArray[np.int64], b: NDArray[np.int64], q: int) -> NDArray[np.int64]:
    """``a @ b mod q`` for residue arrays, reduced after each inner index.

    A plain int64 ``a @ b`` sums several products near q^2 and wraps
    around for large q; here every partial sum stays below 2q.
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for j in range(a.shape[1]):
        out = (out + np.outer(a[:, j], b[j]) % q) % q
    return out


def rref(m: MatrixGF) -> tuple[MatrixGF, list[int]]:
    """Reduced row echelon form of ``m`` over GF(q).

    Gauss-Jordan elimination with the first nonzero entry in column order
    as pivot (the field is exact, so there is no pivot-magnitude concern).
    The result is the unique RREF; pivot columns are strictly increasing.

    Returns:
        (rref matrix, list of pivot column indices)
    """
    q = m.field.q
    a = m.array.copy()
    nrows, ncols = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = int(nz[0]) + row
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        a[row] = a[row] * pow(int(a[row, col]), -1, q) % q
        for r in range(nrows):
            if r != row and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[row]) % q
        pivots.append(col)
        row += 1
    return MatrixGF(a, m.field), pivots


def rank(m: MatrixGF) -> int:
    """Rank of ``m`` over GF(q) (number of RREF pivots)."""
    return len(rref(m)[1])


def invert(m: MatrixGF) -> MatrixGF:
    """Inverse of a square matrix over GF(q).

    Raises:
        ValueError: if ``m`` is not square.
        SingularMatrixError: if ``m`` is rank-deficient (reports the deficit).
    """
    if m.rows != m.cols:
        raise ValueError(f"matrix must be square to invert, got {m.rows}x{m.cols}")
    n = m.rows
    augmented = MatrixGF(
        np.hstack((m.array, np.eye(n, dtype=np.int64))), m.field
    )
    reduced, pivots = rref(augmented)
    left = reduced.array[:, :n]
    if not np.array_equal(left, np.eye(n, dtype=np.int64)):
        raise SingularMatrixError(n, sum(1 for p in pivots if p < n))
    return MatrixGF(reduced.array[:, n:], m.field)


def batched_rank(stack, q: int) -> NDArray[np.int64]:
    """Ranks over GF(q) of a ``(B, m, w)`` stack of matrices.

    One Gaussian elimination runs on all B matrices in lockstep, column by
    column: each matrix swaps its first nonzero candidate row into its next
    pivot slot and clears the rows below it.  The elimination is
    fraction-free (row_i <- p * row_i - a_ic * pivot_row with the pivot p
    nonzero), so no inverses are needed and the rank is unchanged.  It
    runs along the shorter matrix side, since rank(A) = rank(A^T).

    Returns:
        int64 array of the B ranks.
    """
    a = np.asarray(stack, dtype=np.int64)
    if a.ndim != 3:
        raise ValueError(f"expected a (B, m, w) stack, got ndim={a.ndim}")
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1)
    a = a % q
    count, rows, cols = a.shape
    ranks = np.zeros(count, dtype=np.int64)
    row_idx = np.arange(rows)
    batch = np.arange(count)
    for col in range(cols):
        if (ranks == rows).all():
            break
        open_rows = row_idx[None, :] >= ranks[:, None]
        candidates = (a[:, :, col] != 0) & open_rows
        found = candidates.any(axis=1)
        if not found.any():
            continue
        b, slot = batch[found], ranks[found]
        piv = candidates[found].argmax(axis=1)
        a[b, slot], a[b, piv] = a[b, piv], a[b, slot]
        # matrices without a pivot here get p = 1 and zero factors: unchanged
        pivot_rows = a[batch, np.minimum(ranks, rows - 1)]
        pivots = np.where(found, pivot_rows[:, col], 1)
        factors = np.where(
            (row_idx[None, :] > ranks[:, None]) & found[:, None], a[:, :, col], 0
        )
        a = (a * pivots[:, None, None] - factors[:, :, None] * pivot_rows[:, None, :]) % q
        ranks += found
    return ranks


def intersection_dim(u: MatrixGF, v: MatrixGF) -> int:
    """Dimension of the intersection of the column spans of ``u`` and ``v``.

    Both matrices must have the same number of rows m (their columns span
    subspaces of GF(q)^m).  Computed exactly with the rank identity
    rank(U) + rank(V) - rank([U | V]); no basis completion is needed.

    Raises:
        ValueError: on row-count mismatch.
    """
    u._check_field(v)
    if u.rows != v.rows:
        raise ValueError(
            f"column spans live in different spaces: {u.rows} vs {v.rows} rows"
        )
    joint = MatrixGF(np.hstack((u.array, v.array)), u.field)
    return rank(u) + rank(v) - rank(joint)


def mat_vec(x, m: MatrixGF) -> NDArray[np.int64]:
    """Row-vector-times-matrix product x . M over GF(q).

    Args:
        x: sequence of ints or FieldElements of length ``m.rows``.
        m: the matrix.

    Returns:
        1-D int64 array of length ``m.cols`` with entries in [0, q-1].
    """
    vec = np.array([int(e) for e in x], dtype=np.int64) % m.field.q
    if vec.shape[0] != m.rows:
        raise ValueError(f"vector length {vec.shape[0]} != matrix rows {m.rows}")
    return _matmul_mod(vec[None, :], m.array, m.field.q)[0]
