"""Dense exact linear algebra over prime fields GF(q).

A matrix over GF(q) is a 2-D int64 array of residues, with ``q`` passed
alongside; every routine reduces its input mod q on entry.  Everything
here is exact: Gauss-Jordan elimination, rank, and the ranks of every
union of given column groups of one matrix (``subset_ranks``), which the
entropy oracle and code validation's minors run on; the entropy oracle's
groups are the parts of ``code.subset_layout``.  ``rank`` checks single
matrices (the ranks of AB and G in validation) and is the reference that
``subset_ranks`` is tested against.

``subset_ranks`` is a rank lattice of reduced columns.  Each union S
keeps W_S: the columns of G not yet added, reduced against the columns of
S, with entries in [0, q).  The root is G mod q with its columns in part
order.  The child of S without part j drops part j's columns, a slice;
the child with part j eliminates them one at a time, for all unions of a
lattice level in lockstep: for the next column c of W, it pivots on the
largest entry c_i, sets W <- (c_i W - c (x) W_i) mod q on the later
columns, and adds 1 to the rank when c != 0.  That is the row operation
which zeroes row i, with c_i a unit, so W_S is Y G_rest for a matrix Y
whose nonzero rows span {y : y G_S = 0}: a column of W_S is zero exactly
when that column of G lies in the span of G_S.  The last column needs
only the test c != 0, so the widest level, the last part's when it has
one column, does no update.  Part j is level j, so its columns are
eliminated in 2^j unions: a caller lists its widest part first.
Filled depth first, the lattice's memory is bounded at any part count P:
a level holds at most max(1, BASIS_BUDGET / 2) unions, in one int64 array
(columns still to come, m, unions) with the unions contiguous; a work list
holds at most one waiting level per part, beside the 2^P int8 ranks;
MAX_MASKS bounds 2^P, and an m past int8 or a q outside [2, 2^31) is refused.

Desk-scale dimensions only (tens of rows/columns); no sparsity, no
floating point.  ``rank`` and erasure decoding run ``_rref_rows`` on
lists of Python ints, which cannot overflow.  The lattice runs on int64
arrays of residues below q < gf.MAX_Q = 2^31, so each product c_i W or
c W_i is below 2^62 and their difference fits in int64.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .gf import MAX_Q

# one elimination of the ``subset_ranks`` lattice runs on at most half this
# many unions, or on one
BASIS_BUDGET = 1 << 11
# most masks one rank table may have: the R-atomic profile admits n <= 17,
# the split-R profile k + n <= 18 and ``code.validate`` n <= 18
MAX_MASKS = 1 << 18


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
    """Rank of the 2-D array ``a`` over GF(q) (number of RREF pivots); q < 2 is refused."""
    if q < 2:
        raise ValueError(f"modulus q={q} is below 2")
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={a.ndim}")
    return len(_rref_rows((a % q).tolist(), q)[1])


def subset_ranks(G, q: int, parts) -> NDArray[np.int8]:
    """rank(G_S) over GF(q) for every union S of ``parts``, indexed by bitmask.

    ``parts`` lists column groups of G; part j is bit j, so the result has
    2^len(parts) entries, one int8 each.  The ranks come from a lattice
    over the parts: a level before part j holds unions of parts 0..j-1,
    each with the columns of parts j.. reduced against it.  Part j slices
    its columns off for the child without it, and eliminates them for the
    child with it, at table position + 2^j, so part j's columns are
    eliminated in 2^j unions: list the widest part first.  A work list of
    (columns, ranks, table position, next part) fills the lattice depth
    first: a level's two children are concatenated on the union axis while
    that holds at most BASIS_BUDGET / 2 unions, and are otherwise kept
    apart, the child with the part waiting on the list.  Kept apart once,
    the levels below are too, as they keep its size: only the lowest parts
    are ever joined, and a level's unions sit at consecutive table positions.

    Raises:
        ValueError: if there are more than MAX_MASKS masks, if q is outside
            [2, gf.MAX_Q), if ``G`` is not 2-dimensional, if it has more
            rows than int8 holds, or if a column index is not an int in
            [0, columns of G), each before any table is allocated.
    """
    if 1 << len(parts) > MAX_MASKS:
        raise ValueError(
            f"a rank table over 2^{len(parts)} column subsets is beyond the "
            f"{MAX_MASKS}-mask guard"
        )
    if not 2 <= q < MAX_Q:
        raise ValueError(f"modulus q={q} is outside [2, {MAX_Q})")
    g = np.asarray(G, dtype=np.int64)
    if g.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={g.ndim}")
    m = g.shape[0]
    if m > np.iinfo(np.int8).max:
        raise ValueError(f"ranks of a matrix of {m} rows do not fit the int8 rank table")
    columns = [c for part in parts for c in part]
    for c in columns:
        if type(c) is bool or not isinstance(c, (int, np.integer)) or not 0 <= c < g.shape[1]:
            raise ValueError(f"column index {c!r} is not an int in [0, {g.shape[1]})")
    levels, widths = len(parts), [len(part) for part in parts]
    if not m:
        return np.zeros(1 << levels, dtype=np.int8)
    ranks = np.empty(1 << levels, dtype=np.int8)
    # (reduced columns, ranks, table position of the first union, next part)
    work = [((g.T[columns] % q)[:, :, None], np.zeros(1, dtype=np.int8), 0, 0)]
    while work:
        w, level, at, start = work.pop()
        for j in range(start, levels):
            reduced, gained = _eliminate(w, widths[j], q)
            w = w[widths[j]:]
            if 4 * len(level) > BASIS_BUDGET:
                work.append((reduced, level + gained, at + (1 << j), j + 1))
            else:
                w = np.concatenate([w, reduced], axis=2)
                level = np.concatenate([level, level + gained])
        ranks[at : at + len(level)] = level
    return ranks


def _eliminate(w, width: int, q: int):
    """Add each union's first ``width`` columns of ``w`` to it: (the later columns
    reduced against them, each union's rank gain), leaving ``w`` unchanged.

    For the column c, i = argmax c is nonzero unless c = 0, and
    W <- (c_i W - c (x) W_i) mod q zeroes row i of the later columns; when
    c = 0 the factor max(c_i, 1) = 1 and the term c (x) W_i = 0 keep W.
    ``w`` is (columns, m, unions), so c_i and W_i are each one flat take.
    """
    unions = np.arange(w.shape[2])
    gained = np.zeros(len(unions), dtype=np.int8)
    for _ in range(width):
        c, w = w[0], w[1:]
        index = c.argmax(axis=0) * len(unions) + unions
        head = c.take(index)
        gained += head > 0
        if len(w):
            update = w * np.maximum(head, 1)
            update -= c * w.reshape(len(w), -1).take(index, axis=1)[:, None]
            w = np.remainder(update, q, out=update)
    return w, gained
