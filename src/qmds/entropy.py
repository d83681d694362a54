"""Exact subsystem entropies of the joint reference-plus-coded state.

The joint state of an [[n, k, d]]_q code is the uniform superposition over
the row space of its full-row-rank generator G (m = k + d - 1 rows, one
column per register: the k-qudit reference block R, then Q1..Qn).  Such a
state's entropy vector is a linear rank function: the entropy (in q-ary
units) of the registers in a column set S is

    H(S) = rank(G_S) + rank(G_{S^c}) - m,

the dimension of the intersection of the two column spans of the
bipartition.  Every entropy is therefore a nonnegative integer read off
one table of ranks, one per union of atomic parts, indexed by bitmask.

With R atomic there are n + 1 parts, and the table has 2^(n+1) entries
in the order R * 2^n + Q-bitmask (Q_i is bit i - 1, R is bit n), which is
``SubsystemSpec.mask``, the mask order of ``code.subset_layout``'s parts,
which names them and the state-vector oracle reads too.  The ranks come from the GF(q) rank
lattice ``linalg.subset_ranks``, which keeps each union's columns still
to come reduced against it: the union with its highest part eliminates
that part's columns from the union without it, one row operation per
column instead of a fresh elimination, and the union without a part
drops that part's columns as a slice; filled depth first, its levels
hold at most ``linalg.BASIS_BUDGET`` / 2 unions at any part count, and
``linalg.MAX_MASKS`` bounds the table itself.  The lattice takes those
parts with R, the one part of k columns, moved to the root (part 0), so R's columns are
eliminated in one union where as the last part they would be eliminated
in 2^n; the lattice-order table (index 2 * Q-bitmask + R) is put in
R * 2^n + Q-bitmask order by one reshape-transpose.  The table's last
rank is rank(G) and must equal m.  The profile is that table, one int8
per subsystem; sizes are the layout's counts, and expected values and
JSON rows are derived on demand.  Every entry
lies in [0, m], and m <= n, which MAX_MASKS bounds.  A profile stores
any integer table as int8 when every entry lies in [-42, 42], and as
int64 otherwise, so the suites' sums and differences of two or three
entries cannot wrap.  The check
suites (size pyramid H(S) = min(|S|, (k + n) - |S|), decoding /
no-leakage conditions, product-state identities and the standard quantum
entropy inequalities) all index it,
with their groups of coded qudits as ``code.index_groups`` bitmasks
(``code.group_indices`` decodes only those a line names), as whole-table
array passes.  The inequality sweep over all 3^(n+1) assignments of the
parts to A, B, C views the table as one 2 x ... x 2 tensor, an axis per
part, and expands it per block for A, B, C, A u B and B u C by ``np.take``
along its axes, with no per-entry index (H(ABC) is the table's last entry,
a constant).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .code import (CodeParams, QuantumMdsCode, _as_int, group_indices, index_groups,
                   subset_layout, to_descriptor)
from .linalg import subset_ranks
from .reporting import Check, status_line

# the inequality sweep works in blocks of 3^SWEEP_DIGITS assignments, and
# the product-state pairs in chunks of at most 3^BLOCK_DIGITS cells (or one
# K1 group), which bounds their memory
SWEEP_DIGITS = 10
BLOCK_DIGITS = 8


@dataclass(frozen=True)
class SubsystemSpec:
    """A subsystem of the k + n registers, with R atomic (all k or none).

    q_indices holds distinct 1-based coded-qudit indices, checked against n
    by ``mask``; include_R is a bool, or the integer 0 or 1.
    """

    include_R: bool
    q_indices: frozenset[int]

    def __init__(self, include_R: bool, q_indices=()):
        if not (isinstance(include_R, (int, np.integer, np.bool_)) and include_R in (0, 1)):
            raise ValueError(f"include_R must be a bool, 0 or 1: got {include_R!r}")
        object.__setattr__(self, "include_R", bool(include_R))
        idx = sorted(_as_int(i, "coded-qudit index") for i in q_indices)
        if len(set(idx)) != len(idx):
            raise ValueError(f"coded-qudit index set has duplicate indices: {idx}")
        if idx and idx[0] < 1:
            raise ValueError(f"coded-qudit indices are 1-based: got {idx}")
        object.__setattr__(self, "q_indices", frozenset(idx))

    def size(self, k: int) -> int:
        """Qudit count: R contributes k, each Q_i contributes 1."""
        return (k if self.include_R else 0) + len(self.q_indices)

    def mask(self, n: int) -> int:
        """The table index R * 2^n + Q-bitmask; every index must lie in 1..n."""
        bad = sorted(i for i in self.q_indices if i > n)
        if bad:
            raise ValueError(f"subsystem indices out of range 1..{n}: {bad}")
        return self.include_R << n | sum(1 << (i - 1) for i in self.q_indices)

    def registers(self, k: int, n: int) -> list[int]:
        """The subset layout's register positions, ascending (R's k first, then Q1..Qn)."""
        if self.include_R and k == 0:
            raise ValueError("no reference block but include_R was requested")
        return subset_layout(k, n).positions(self.mask(n))

    def complement(self, n: int) -> "SubsystemSpec":
        """The spec at table index full - mask, so an index above n is refused."""
        include_R, qmask = divmod((2 << n) - 1 - self.mask(n), 1 << n)
        return SubsystemSpec(include_R, group_indices(qmask))

    def labels(self) -> tuple[str, ...]:
        """The layout's names, which for R atomic depend on neither k nor n."""
        n = max(self.q_indices, default=0)
        return subset_layout(1, n).labels(self.mask(n))


def _entropy_table(code: QuantumMdsCode, parts) -> NDArray[np.int8]:
    """H[mask] = r[mask] + r[full ^ mask] - m over unions of ``parts``, in int8."""
    ranks = subset_ranks(code.G, code.params.q, parts)
    m = code.params.generator_rank
    if ranks[-1] != m:
        raise ValueError("generator must have full row rank")
    # masks run 0..full, so full ^ mask = full - mask is the reversed index;
    # r - m lies in [-m, 0], so no int8 sum leaves [-m, m]
    return (ranks - m) + ranks[::-1]


def entropy_table(code: QuantumMdsCode) -> NDArray[np.int8]:
    """Entropies of all 2^(n+1) R-atomic subsystems, indexed R * 2^n + Q-bitmask.

    The lattice ranks R first (bit 0, then Q_i at bit i), and the table is
    transposed from that order, 2 * Q-bitmask + R, into R * 2^n + Q-bitmask.
    """
    k, n = code.params.k, code.params.n
    parts = subset_layout(k, n).parts
    table = _entropy_table(code, parts[-1:] + parts[:-1])
    return table.reshape(1 << n, 2).T.ravel()


def subsystem_entropy(code: QuantumMdsCode, sub: SubsystemSpec) -> int:
    """Exact entropy of a subsystem (R atomic), in q-ary units.

    Equals the entropy of the complement: the joint state is pure, and the
    rank identity dim(<inside> n <outside>) is symmetric in the bipartition.
    Read off the rank lattice over two parts, the subsystem and its
    complement.
    """
    k, n = code.params.k, code.params.n
    return int(_entropy_table(code, [sub.registers(k, n), sub.complement(n).registers(k, n)])[1])


def expected_subsystem_entropy(sizes, k: int, d: int) -> NDArray[np.int64]:
    """The size-pyramid value min(size, 2(k+d-1) - size) of one size, or of each
    of an array of sizes (then as an array of their shape)."""
    total = 2 * (k + d - 1)
    sizes = np.asarray(sizes)
    if np.any(outside := (sizes < 0) | (sizes > total)):
        raise ValueError(f"subsystem size must lie in [0, {total}]: got {sizes[outside][0]}")
    return np.minimum(sizes, total - sizes)


# keys of one JSON profile row, in output order
_ROW_KEYS = ("subsystem", "size", "entropy", "expected", "match")


@dataclass
class EntropyProfile:
    """All subsystem entropies of one code, as tables indexed by bitmask.

    ``table`` holds every R-atomic subsystem, indexed R * 2^n + Q-bitmask.
    ``register_table``, set only in the split-R profile, holds every
    register subset (register r = bit r: R1..Rk, then Q1..Qn).
    """

    params: CodeParams
    alphas: tuple[int, ...]
    table: NDArray[np.integer] = field(repr=False, compare=False)
    register_table: NDArray[np.integer] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        table = np.asarray(self.table)
        if table.dtype.kind not in "iu":
            raise ValueError(f"entropy table must hold integers: got dtype {table.dtype}")
        if table.shape != (1 << (self.params.n + 1),):
            raise ValueError(f"entropy table must have 2^(n+1) = {2 << self.params.n} entries")
        # the suites compute in the stored dtype, and no sum or difference of
        # three entries may wrap: 3 x 42 <= 127 in int8
        low, high = int(table.min()), int(table.max())
        bound = ((1 << 63) - 1) // 3
        if low < -bound or high > bound:
            raise ValueError(f"entropy table entries must lie within +-{bound}: got {low}..{high}")
        self.table = table.astype(np.int8 if -42 <= low and high <= 42 else np.int64, copy=False)

    def sizes(self) -> NDArray[np.int8]:
        """Qudit count per table index, in int8: the layout's read-only counts."""
        return subset_layout(self.params.k, self.params.n).counts

    def expected(self) -> NDArray[np.int8]:
        """The size pyramid min(size, (k + n) - size) per table index."""
        return expected_subsystem_entropy(self.sizes(), self.params.k, self.params.d)

    def labels(self, mask: int) -> tuple[str, ...]:
        """Labels of the R-atomic subsystem at a table index."""
        return subset_layout(self.params.k, self.params.n).labels(int(mask))

    @property
    def all_match(self) -> bool:
        return not self.mismatches()

    def mismatches(self) -> list[int]:
        """Table indices whose entropy is not the size pyramid's value."""
        return np.flatnonzero(self.table != self.expected()).tolist()

    def to_dict(self) -> dict:
        """The code descriptor and one row per subsystem, R-atomic rows first;
        rows that split R carry no expected value (expected and match null)."""
        columns = zip(self.sizes().tolist(), self.table.tolist(), self.expected().tolist())
        rows = [
            dict(zip(_ROW_KEYS, (list(self.labels(mask)), size, h, e, h == e)))
            for mask, (size, h, e) in enumerate(columns)
        ]
        if self.register_table is not None:
            k, n = self.params.k, self.params.n
            # each proper R subset with each coded set's R-atomic register mask
            r_masks, q_masks = index_groups(k, range(1, k)), index_groups(n, range(n + 1))
            masks = (r_masks[:, None] | subset_layout(k, n).registers[q_masks]).ravel()
            layout = subset_layout(k, n, split_R=True)
            for mask, h in zip(masks.tolist(), self.register_table[masks].tolist()):
                labels = list(layout.labels(mask))
                rows.append(dict(zip(_ROW_KEYS, (labels, len(labels), h, None, None))))
        return {"code": to_descriptor(self), "entries": rows}

    def csv_rows(self) -> list[tuple[int, int]]:
        """Size-aggregated (size, entropy) pairs for figure reproduction.

        R-atomic subsystems only; a valid code yields one row per size.
        """
        return sorted(set(zip(self.sizes().tolist(), self.table.tolist())))


def full_profile(code: QuantumMdsCode) -> EntropyProfile:
    """Entropies of all 2 * 2^n subsystems (R in or out, every Q subset)."""
    return EntropyProfile(code.params, code.alphas, entropy_table(code))


def extended_profile(code: QuantumMdsCode) -> EntropyProfile:
    """full_profile plus the subsets that split the reference block (k > 1).

    Ranks one table over the all-register layout and reads the R-atomic
    table off it at the R-atomic layout's register masks.  Nothing is
    asserted for proper subsets of R; the pyramid treats R as atomic.
    """
    k, n = code.params.k, code.params.n
    if k == 1:
        return full_profile(code)
    registers = _entropy_table(code, subset_layout(k, n, split_R=True).parts)
    atomic = registers[subset_layout(k, n).registers]
    return EntropyProfile(code.params, code.alphas, atomic, registers)


def check_decoding_condition(profile: EntropyProfile) -> Check:
    """Recovery and no-leakage conditions on the profile entropies.

    For every surviving set I of size n-(d-1) the mutual information
    between R and Q_I must equal 2H(R) = 2k (all reference entanglement is
    preserved); for every potential erasure set of size d-1 it must vanish
    (nothing leaks to qudits that may be lost).  All checks are exact
    integer identities, evaluated as one I(R;Q_I) array per condition;
    the title counts them, and only a failing check gets a line.
    """
    p = profile.params
    n, k, d = p.n, p.k, p.d
    table = profile.table
    count = 0
    failures = []
    for kind, size, target, expected in (
        ("recovery", n - (d - 1), 2 * k, f"expected 2k = {2 * k}"),
        ("no-leakage", d - 1, 0, "expected 0"),
    ):
        masks = index_groups(n, [size])
        # I(R;Q_I) = H(R) + H(Q_I) - H(R Q_I); R is bit n
        mutual = table[1 << n] + table[masks] - table[masks | 1 << n]
        count += mutual.size
        for at in np.flatnonzero(mutual != target):
            text = f"{kind} I={list(group_indices(masks[at]))}: I(R;Q_I) = {mutual[at]}: {expected}"
            failures.append(status_line(False, text))
    return Check(not failures, f"decoding conditions for [[{n},{k},{d}]]_{p.q} ({count} checks)",
                 tuple(failures))


INEQUALITY_FAMILIES = (
    "subadditivity H(AB) <= H(A)+H(B)",
    "triangle |H(A)-H(B)| <= H(AB)",
    "strong subadditivity H(AB)+H(BC) >= H(ABC)+H(B)",
    "weak monotonicity H(AB)+H(BC) >= H(A)+H(C)",
)


# the assignment digits (A = 0, B = 1, C = 2) that put a part in A, B, C,
# A u B and B u C, one row each
_MEMBER = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]])
# the same for two digits at once: digit pair (d, e) is entry 3d + e, and
# its value 2 bit(d) + bit(e) indexes an axis of two table bits
_MEMBER_PAIRS = (2 * _MEMBER[:, :, None] + _MEMBER[:, None, :]).reshape(5, 9)


def check_entropy_inequalities(profile: EntropyProfile) -> Check:
    """Subadditivity, triangle, strong subadditivity, weak monotonicity.

    Runs over every assignment of the n + 1 atomic parts (R, Q1..Qn) to
    three disjoint groups (A, B, C) -- 3^(n+1) assignments, each checked
    exactly.  Every part lands in A, B or C, so ABC is the whole pure
    state: on a table with H(S) = H(S^c), weak monotonicity cannot fail
    and strong subadditivity repeats subadditivity; no instance traces a
    part out.  An assignment is a
    tuple of group digits in ``itertools.product`` order; each group's
    bitmask indexes the profile table.

    The table is viewed as a 2 x ... x 2 tensor with one axis per
    assignment position (R, Q1..Qn), so a group's entropy over all
    assignments is that tensor with every axis expanded from the part's
    membership bit to its digit.  The sweep runs in blocks of
    3^SWEEP_DIGITS assignments that share their leading (prefix) digits.
    For each of A, B, C, A u B and B u C, basic indexing fixes the prefix
    digits' bits (a view), and ``np.take`` expands the low axes two digits
    at a time (4 bit pairs to 9 digit pairs), innermost first; the result
    is in ``itertools.product`` order, with no per-entry index.  A u B u C is
    every part, so H(ABC) is the table's last entry, one constant.
    Each family compares a sum or difference of two entries with an entry
    or another such sum, in the table's own dtype, which holds them.
    """
    p = profile.params
    n = p.n
    values = profile.table
    habc = values[-1]
    # axis 0 is R (bit n) and axis i is Q_i (bit i - 1), so the last axis
    # is contiguous
    tensor = np.ascontiguousarray(
        values.reshape((2,) * (n + 1)).transpose(0, *range(n, 0, -1))
    )
    low = min(SWEEP_DIGITS, n + 1)
    high = n + 1 - low
    shape = (2,) * (low % 2) + (4,) * (low // 2)
    member = _MEMBER.tolist()

    counts = [0] * len(INEQUALITY_FAMILIES)
    first: list[tuple | None] = [None] * len(INEQUALITY_FAMILIES)
    for prefix in itertools.product(range(3), repeat=high):
        groups = []
        for digits, pairs in zip(member, _MEMBER_PAIRS):
            h = tensor[tuple(digits[d] for d in prefix)].reshape(shape)
            for axis in range(len(shape) - 1, -1, -1):
                h = np.take(h, pairs if shape[axis] == 4 else digits, axis=axis)
            groups.append(h.ravel())
        ha, hb, hc, hab, hbc = groups
        pair = hab + hbc
        holds = (
            hab <= ha + hb,
            np.abs(ha - hb) <= hab,
            pair >= habc + hb,
            pair >= ha + hc,
        )
        for family, ok in enumerate(holds):
            violated = ok.size - np.count_nonzero(ok)
            if violated and first[family] is None:
                where = np.unravel_index(np.argmin(ok), (3,) * low)
                first[family] = prefix + tuple(int(x) for x in where)
            counts[family] += violated

    total = 3 ** (n + 1)
    details = []
    for name, violated, assign in zip(INEQUALITY_FAMILIES, counts, first):
        text = f"{name}: {total} assignments, {violated} violations"
        if violated:
            text += f"; first violating assignment {assign}"
        details.append(status_line(not violated, text))
    return Check(not any(counts), f"entropy inequalities for [[{n},{p.k},{p.d}]]_{p.q}",
                 tuple(details))


def product_state_checks(profile: EntropyProfile) -> Check:
    """Product-state identities among small groups of coded qudits.

    Any group of at most k coded qudits is in a product state with any
    disjoint group of at most d-1 coded qudits (entropies add), and any
    group of at most k coded qudits is itself fully product (entropy is
    the sum of single-qudit entropies).  Groups are bitmasks into the
    profile table (R excluded), taken by size and then lexicographically;
    the first violation reported is the first in that order.  The pairs
    are checked as one (K1, K2) broadcast per chunk of K1 groups, each
    chunk at most 3^BLOCK_DIGITS cells or one K1 group.
    """
    p = profile.params
    n, k, d = p.n, p.k, p.d
    table = profile.table

    first_masks = index_groups(n, range(k + 1))
    second_masks = index_groups(n, range(d))

    pair_count = 0
    pair_violations = 0
    pair_first = None
    second_h = table[second_masks]
    rows = max(1, 3**BLOCK_DIGITS // second_masks.size)
    for start in range(0, first_masks.size, rows):
        chunk = first_masks[start : start + rows, None]
        disjoint = (chunk & second_masks) == 0
        joint = table[chunk | second_masks]
        split = table[chunk] + second_h
        bad = disjoint & (joint != split)
        pair_count += np.count_nonzero(disjoint)
        violations = np.count_nonzero(bad)
        if violations and pair_first is None:
            at = np.unravel_index(np.argmax(bad), bad.shape)
            groups = group_indices(first_masks[start + at[0]]), group_indices(second_masks[at[1]])
            pair_first = (*groups, int(joint[at]), int(split[at]))
        pair_violations += violations
    pair_text = (f"H(K1 u K2) = H(K1)+H(K2) for |K1| <= k, |K2| <= d-1 disjoint: "
                 f"{pair_count} disjoint pairs, {pair_violations} violations")
    if pair_violations:
        pair_text += f"; first: {pair_first}"

    singles = table[1 << np.arange(n)]
    members = (first_masks[:, None] >> np.arange(n)) & 1
    joint = table[first_masks]
    split = members @ singles
    bad = np.flatnonzero(joint != split)
    group_text = (f"H(K) = sum_i H(Qi) for |K| <= k: "
                  f"{first_masks.size} groups, {bad.size} violations")
    if bad.size:
        at = bad[0]
        group_text += f"; first: {(group_indices(first_masks[at]), int(joint[at]), int(split[at]))}"
    return Check(
        not (pair_violations or bad.size),
        f"product-state identities for [[{n},{k},{d}]]_{p.q}",
        (status_line(not pair_violations, pair_text), status_line(not bad.size, group_text)),
    )
