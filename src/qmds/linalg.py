"""Dense exact linear algebra over prime fields GF(q).

A matrix over GF(q) is a 2-D int64 array of residues, with ``q`` passed
alongside; every routine reduces its input mod q on entry.  Everything
here is exact: Gauss-Jordan elimination, rank, inverse, and the ranks of
every union of given column groups of one matrix (``subset_ranks``),
which the entropy oracle and code validation's minors run on.  ``rank``
checks single matrices (construction, erasure blocks, single subsystems)
and is the reference that ``subset_ranks`` is tested against.

``subset_ranks`` is a rank lattice.  The echelon basis of a union is the
basis of the union without its highest group, extended by that group's
columns, so each union costs at most m reduction steps per added column
instead of a fresh elimination; all bases of one lattice level are
reduced in lockstep, and the child without a group keeps its parent's
basis in place.  Memory is bounded: a lattice holds at most BASIS_BUDGET
bases of (m + 1) x m int64, and a wider one is finished chunk by chunk
from a level of BASIS_BUDGET bases, so one table needs two such buffers
beside its 2^P ranks (P <= 2 * log2(BASIS_BUDGET)); MAX_MASKS bounds 2^P.

Desk-scale dimensions only (tens of rows/columns); no sparsity, no
floating point.  ``rref``, and so ``rank`` and ``invert``, eliminate on
Python ints, which cannot overflow.  The lattice runs on int64 arrays:
residues of q < 2^31 (see gf.MAX_Q) keep each product of two residues
below 2^62, and its fraction-free step h * x - x_p * v reduces mod q after
every step, so it never holds a larger value.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

# most echelon bases one buffer of ``subset_ranks`` may hold; a table uses
# two such buffers, 3.6 MB in all at m = 9
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


def rref(a, q: int) -> tuple[NDArray[np.int64], list[int]]:
    """Reduced row echelon form of ``a`` over GF(q).

    Gauss-Jordan elimination with the first nonzero entry in column order
    as pivot (the field is exact, so there is no pivot-magnitude concern).
    The result is the unique RREF; pivot columns are strictly increasing.
    The rows are eliminated as lists of Python ints, which cannot overflow
    and, on blocks of a few dozen entries, beat numpy's per-row overhead.

    Returns:
        (rref array, list of pivot column indices)
    """
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={a.ndim}")
    nrows, ncols = a.shape
    rows = (a % q).tolist()
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row >= nrows:
            break
        piv = next((r for r in range(row, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        scale = pow(rows[row][col], -1, q)
        head = rows[row] = [x * scale % q for x in rows[row]]
        for r in range(nrows):
            factor = rows[r][col]
            if r != row and factor:
                rows[r] = [(x - factor * y) % q for x, y in zip(rows[r], head)]
        pivots.append(col)
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols), pivots


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


def subset_ranks(G, q: int, parts) -> NDArray[np.int64]:
    """rank(G_S) over GF(q) for every union S of ``parts``, indexed by bitmask.

    ``parts`` lists column groups of G; part j is bit j, so the result has
    2^len(parts) entries.  The ranks come from a lattice over the parts:
    level j holds an echelon basis for each of the 2^j unions of parts
    0..j-1.  Level j + 1 keeps those bases in place as the children
    without part j, and reduces a copy of each against part j's columns
    for the child with it, at index t + 2^j.  A lattice holds at most
    BASIS_BUDGET bases: past that, it is built at full width down to a
    level of BASIS_BUDGET bases, and chunks of that level then run the
    remaining levels one after another, each writing its ranks at the
    level's stride.

    Raises:
        ValueError: if there are more than MAX_MASKS masks, before any
            table is allocated, or if ``G`` is not 2-dimensional.
    """
    if 1 << len(parts) > MAX_MASKS:
        raise ValueError(
            f"a rank table over 2^{len(parts)} column subsets is beyond the "
            f"{MAX_MASKS}-mask guard"
        )
    g = np.asarray(G, dtype=np.int64)
    if g.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={g.ndim}")
    g = g % q
    levels, spare = len(parts), BASIS_BUDGET.bit_length() - 1
    if not g.shape[0]:
        return np.zeros(1 << levels, dtype=np.int64)
    columns = [g[:, list(part)].T for part in parts]
    if levels <= spare:
        top, width = 0, 1
    else:
        top = max(spare, levels - spare)
        width = max(1, BASIS_BUDGET >> (levels - top))
    level = _grow(_bases(g.shape[0], 1 << top), columns[:top], q)
    ranks = np.empty(1 << levels, dtype=np.int64)
    by_chunk = ranks.reshape(-1, 1 << top)
    # every chunk overwrites all of the buffer past its first width bases
    chunk = _bases(g.shape[0], width << (levels - top))
    for start in range(0, 1 << top, width):
        for part, source in zip(chunk, level):
            part[:width] = source[start : start + width]
        _grow(chunk, columns[top:], q, width)
        by_chunk[:, start : start + width] = chunk[3].reshape(-1, width)
    return ranks


def _bases(m: int, capacity: int):
    """Room for ``capacity`` echelon bases in GF(q)^m, all of rank 0.

    A set of bases is (vectors, pivots, heads, ranks): basis b holds
    ranks[b] vectors in vectors[b, :ranks[b]]; vector i is zero at the
    pivot coordinates of vectors 0..i-1 and has the nonzero entry
    heads[b, i] at its own pivot coordinate pivots[b, i].  The other slots
    hold the zero vector with head 1, so reducing by them is a no-op; slot
    m takes the zero remainders of full-rank bases.
    """
    return (
        np.zeros((capacity, m + 1, m), dtype=np.int64),
        np.zeros((capacity, m + 1), dtype=np.intp),
        np.ones((capacity, m + 1), dtype=np.int64),
        np.zeros(capacity, dtype=np.int64),
    )


def _grow(bases, column_sets, q: int, count: int = 1):
    """Extend the first ``count`` bases by every subset of ``column_sets``.

    Works in place: basis t extended by subset u lands at t + count * u, so
    ``bases`` needs room for count * 2^len(column_sets) bases.
    """
    for columns in column_sets:
        for part in bases:
            part[count : 2 * count] = part[:count]
        _reduce(tuple(part[count : 2 * count] for part in bases), columns, q)
        count *= 2
    return bases


def _reduce(bases, columns, q: int) -> None:
    """Extend every basis of ``bases`` by the same ``columns``, in place.

    Each column is reduced against all bases in lockstep, one basis vector
    at a time, by the fraction-free step x <- h_i * x - x[p_i] * v_i, which
    zeroes x at pivot p_i and needs no inverse.  Each step is reduced mod q,
    so every product is of two residues below q < 2^31 and stays below
    2^62.  A nonzero remainder is independent of the basis and is appended.
    """
    vectors, pivots, heads, ranks = bases
    batch = np.arange(ranks.size)
    for column in columns:
        rest = np.broadcast_to(column, (ranks.size, column.size))
        for i in range(int(ranks.max(initial=0))):
            lead = rest[batch, pivots[:, i]]
            rest = rest * heads[:, i, None]
            rest -= lead[:, None] * vectors[:, i]
            rest %= q
        # the largest entry of a nonzero remainder is a nonzero pivot
        largest = rest.max(axis=1)
        vectors[batch, ranks] = rest
        pivots[batch, ranks] = rest.argmax(axis=1)
        heads[batch, ranks] = np.maximum(largest, 1)
        ranks += largest > 0
