"""Dense exact linear algebra over prime fields GF(q).

A matrix over GF(q) is a 2-D int64 array of residues, with ``q`` passed
alongside; every routine reduces its input mod q on entry.  Everything
here is exact: Gauss-Jordan elimination, rank, inverse, and the ranks of
a whole stack of matrices in one lockstep elimination (``batched_rank``),
which is what the entropy oracle runs on.  ``rank`` checks single matrices
(code construction and validation) and is the reference that
``batched_rank`` is tested against.

Desk-scale dimensions only (tens of rows/columns); no sparsity, no
floating point.  Residues of q < 2^31 (see gf.MAX_Q) keep each product of
two residues below 2^62.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray


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


def rref(a, q: int) -> tuple[NDArray[np.int64], list[int]]:
    """Reduced row echelon form of ``a`` over GF(q).

    Gauss-Jordan elimination with the first nonzero entry in column order
    as pivot (the field is exact, so there is no pivot-magnitude concern).
    The result is the unique RREF; pivot columns are strictly increasing.

    Returns:
        (rref array, list of pivot column indices)
    """
    a = np.asarray(a, dtype=np.int64) % q
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={a.ndim}")
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
    return a, pivots


def rank(a, q: int) -> int:
    """Rank of ``a`` over GF(q) (number of RREF pivots)."""
    return len(rref(a, q)[1])


def invert(a, q: int) -> NDArray[np.int64]:
    """Inverse of a square matrix over GF(q).

    Raises:
        ValueError: if ``a`` is not square.
        SingularMatrixError: if ``a`` is rank-deficient (reports the deficit).
    """
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square to invert, got shape {a.shape}")
    n = a.shape[0]
    reduced, pivots = rref(np.hstack((a, np.eye(n, dtype=np.int64))), q)
    if not np.array_equal(reduced[:, :n], np.eye(n, dtype=np.int64)):
        raise SingularMatrixError(n, sum(1 for p in pivots if p < n))
    return reduced[:, n:]


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
