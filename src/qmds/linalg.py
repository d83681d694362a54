"""Dense exact linear algebra over prime fields GF(q).

A matrix over GF(q) is a 2-D int64 array of residues, with ``q`` passed
alongside; every routine reduces its input mod q on entry.  Everything
here is exact: Gauss-Jordan elimination, rank, and the ranks of every
union of given column groups of one matrix (``subset_ranks``), which the
entropy oracle and code validation's minors run on; the entropy oracle's
groups are the parts of ``code.subset_layout``.  ``rank`` checks single
matrices (the ranks of AB and G in validation) and is the reference that
``subset_ranks`` is tested against.

``subset_ranks`` is a rank lattice of left kernels.  Each union S keeps
one m x m matrix Y_S whose nonzero rows (mod q) span {y : y G_S = 0}, so
rank(G_S) = m - their number.  The kernel of a union is the kernel of the
union without its highest group, cut down by that group's columns: one
matrix-vector product and one rank-one update per added column, for all
kernels of one lattice level in lockstep, and the child without a group
keeps its parent's kernel in place.  Part 0 is the root, so its columns
extend one kernel and the last part's extend half the table: a caller
lists its widest part first.  A kernel at rank m is Y = 0 and stays at
rank m in every superset, so it is never updated: a level of at least
COMPACT_KERNELS kernels returns at once when all of them are at rank m,
and updates only the others, gathered, when any of them is.
Memory is bounded: a lattice holds at most BASIS_BUDGET kernels of m x m
int64, and a wider one is finished chunk by chunk from a level of
BASIS_BUDGET kernels, so one table needs two such buffers beside its 2^P
int8 ranks, one byte per union (P <= 2 * log2(BASIS_BUDGET)); MAX_MASKS
bounds 2^P, and an m past int8 is refused.

Desk-scale dimensions only (tens of rows/columns); no sparsity, no
floating point.  ``rank`` and erasure decoding run ``_rref_rows`` on
lists of Python ints, which cannot overflow.  The lattice runs on int64 arrays.
Y changes at most m times and each change at most multiplies its largest
entry by 2(q - 1), so while m (q - 1) (2(q - 1))^m < 2^63 no entry or
partial sum can overflow and only Y x is reduced mod q.  Past that bound
(e.g. q = 23 with m = 11, or q near gf.MAX_Q with m >= 2) Y is reduced
mod q after every update and Y x is summed in runs that stay below 2^63.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

# most left kernels one buffer of ``subset_ranks`` may hold; a table uses
# two such buffers, 2.7 MB in all at m = 9
BASIS_BUDGET = 1 << 11
# most masks one rank table may have: the R-atomic profile admits n <= 17,
# the split-R profile k + n <= 18 and ``code.validate`` n <= 18
MAX_MASKS = 1 << 18
# narrowest lattice level that skips its kernels at rank m; a narrower level
# (every level of a table of at most 256 masks) makes no numpy call for the
# skip
COMPACT_KERNELS = 256


class SingularMatrixError(ValueError):
    """Raised for a rank-deficient square matrix that must be inverted.

    Carries ``size`` and ``rank`` so callers can report the rank deficit;
    ``what`` names the matrix in the message.
    """

    def __init__(self, size: int, rank: int, what: str = "matrix"):
        self.size = size
        self.rank = rank
        super().__init__(
            f"{what} is singular: rank {rank} < size {size} (deficit {size - rank})"
        )


def _rref_rows(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form, in place, of lists of residues in [0, q), which beat
    numpy on a few dozen: (rows, pivot columns).

    Gauss-Jordan elimination with the first nonzero entry in column order
    as pivot (the field is exact): the unique RREF, pivots increasing.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        for piv in range(row, nrows):
            if rows[piv][col]:
                break
        else:
            continue
        pivot, rows[piv] = rows[piv], rows[row]
        scale = pow(pivot[col], -1, q)
        head = rows[row] = [x * scale % q for x in pivot]
        for r, other in enumerate(rows):
            factor = other[col]
            if factor and r != row:
                rows[r] = [(x - factor * y) % q for x, y in zip(other, head)]
        pivots.append(col)
    return rows, pivots


def rank(a, q: int) -> int:
    """Rank of the 2-D array ``a`` over GF(q) (number of RREF pivots)."""
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={a.ndim}")
    return len(_rref_rows((a % q).tolist(), q)[1])


def subset_ranks(G, q: int, parts) -> NDArray[np.int8]:
    """rank(G_S) over GF(q) for every union S of ``parts``, indexed by bitmask.

    ``parts`` lists column groups of G; part j is bit j, so the result has
    2^len(parts) entries, one int8 each.  The ranks come from a lattice
    over the parts: level j holds a left kernel for each of the 2^j unions
    of parts 0..j-1.  Level j + 1 keeps those kernels in place as the
    children without part j, and extends a copy of each by part j's
    columns for the child with it, at index t + 2^j, so part j's columns
    cost 2^j updates each: list the widest part first.  A lattice holds at
    most BASIS_BUDGET kernels: past that, it is built at full width down to
    a level of BASIS_BUDGET kernels, and chunks of that level then run the
    remaining levels one after another, each writing its ranks at the
    level's stride.

    Raises:
        ValueError: if there are more than MAX_MASKS masks, if ``G`` is not
            2-dimensional, or if it has more rows than int8 holds, each
            before any table is allocated.
    """
    if 1 << len(parts) > MAX_MASKS:
        raise ValueError(
            f"a rank table over 2^{len(parts)} column subsets is beyond the "
            f"{MAX_MASKS}-mask guard"
        )
    g = np.asarray(G, dtype=np.int64)
    if g.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={g.ndim}")
    m = g.shape[0]
    if m > np.iinfo(np.int8).max:
        raise ValueError(f"ranks of a matrix of {m} rows do not fit the int8 rank table")
    g = g % q
    levels, spare = len(parts), BASIS_BUDGET.bit_length() - 1
    if not m:
        return np.zeros(1 << levels, dtype=np.int8)
    columns = [g[:, list(part)].T for part in parts]
    # past the unreduced bound (module docstring), the kernels stay reduced
    # and Y x is summed in runs of products of two residues
    run = None
    if m * (q - 1) * (2 * (q - 1)) ** m >= 1 << 63:
        run = max(1, ((1 << 63) - 1) // (q - 1) ** 2)
    if levels <= spare:
        top, width = 0, 1
    else:
        top = max(spare, levels - spare)
        width = max(1, BASIS_BUDGET >> (levels - top))
    level = _grow(_kernels(m, 1 << top), columns[:top], q, run)
    ranks = np.empty(1 << levels, dtype=np.int8)
    by_chunk = ranks.reshape(-1, 1 << top)
    # every chunk overwrites all of the buffer past its first width kernels
    chunk = _kernels(m, width << (levels - top))
    for start in range(0, 1 << top, width):
        for part, source in zip(chunk, level):
            part[:width] = source[start : start + width]
        _grow(chunk, columns[top:], q, run, width)
        by_chunk[:, start : start + width] = chunk[1].reshape(-1, width)
    return ranks


def _kernels(m: int, capacity: int):
    """Room for ``capacity`` left kernels in GF(q)^m; the first is all of it.

    A set of kernels is (Y, ranks): the nonzero rows of the m x m matrix
    Y[t] (mod q) are a basis of {y : y G_S = 0} for the union S at slot t,
    and ranks[t] = rank(G_S) = m - their number, in int8.  Slots past the
    first are left for ``_grow`` to write.
    """
    y = np.empty((capacity, m, m), dtype=np.int64)
    y[0] = np.eye(m, dtype=np.int64)
    return y, np.zeros(capacity, dtype=np.int8)


def _grow(kernels, column_sets, q: int, run: int | None, count: int = 1):
    """Extend the first ``count`` kernels by every subset of ``column_sets``.

    Works in place: kernel t extended by subset u lands at t + count * u, so
    ``kernels`` needs room for count * 2^len(column_sets) kernels.
    """
    for columns in column_sets:
        for part in kernels:
            part[count : 2 * count] = part[:count]
        _extend(*(part[count : 2 * count] for part in kernels), columns, q, run)
        count *= 2
    return kernels


def _extend(y, ranks, columns, q: int, run: int | None) -> None:
    """Extend every kernel of (``y``, ``ranks``) below rank m by the same ``columns``, in place.

    For a column x, c = Y x mod q.  If c = 0, x lies in the span of G_S
    and Y is kept.  Otherwise, for i with c_i != 0, Y <- c_i Y - c (x) Y_i
    zeroes row i, and keeps every other row in the kernel of x:
    c_i c_j - c_j c_i = 0.  The rows stay independent, because c_i is a
    unit, so the kernel loses one dimension and the rank gains one.  This
    is one matrix-vector product and one rank-one update for all kernels,
    with no inverse.  A zeroed row stays exactly 0, so a kernel at rank m
    is Y = 0, and its update would change nothing: a level of at least
    COMPACT_KERNELS kernels returns at once when every kernel is at rank
    m, and when any is, it updates a gathered copy of the others and
    scatters it back.

    Y changes only when its rank grows, so at most m times, and each change
    at most multiplies max |Y| by 2(q - 1): every entry and partial sum of
    Y x stays below m (q - 1) (2(q - 1))^m.  Where that is below 2^63
    (``run`` None) only c is reduced.  Otherwise Y is reduced mod q after
    every update, so the update multiplies residues, each product below
    (q - 1)^2 < 2^62 (q < gf.MAX_Q), and Y x is summed in runs of ``run``
    such products, each run reduced.
    """
    whole = None
    if ranks.size >= COMPACT_KERNELS:
        live = np.flatnonzero(ranks < y.shape[1])
        if not live.size:
            return
        if live.size < ranks.size:
            whole, y, ranks = (y, ranks), y[live], ranks[live]
    batch = np.arange(ranks.size)
    for column in columns:
        if run is None:
            c = y @ column
        else:
            c = np.zeros(y.shape[:2], dtype=np.int64)
            for start in range(0, column.size, run):
                c += y[:, :, start : start + run] @ column[start : start + run] % q
        c %= q
        # the largest entry of c is nonzero unless all of c is zero
        pivot = c.argmax(axis=1)
        head = c[batch, pivot]
        row = y[batch, pivot]
        y *= np.maximum(head, 1)[:, None, None]
        y -= c[:, :, None] * row[:, None, :]
        if run is not None:
            y %= q
        ranks += head > 0
    if whole is not None:
        whole[0][live], whole[1][live] = y, ranks
