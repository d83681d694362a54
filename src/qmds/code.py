"""Construction and validation of Vandermonde-based [[n, k, d]]_q quantum MDS codes.

An [[n, k, d]]_q code here encodes k source qudits into n coded qudits over
a prime field GF(q), q >= n, with the maximum-distance-separable equality
n = k + 2(d - 1).  The encoder is the quantum analogue of a Reed-Solomon
code: the generator rows are decreasing powers of n distinct evaluation
points, so every maximal square submatrix is invertible and any n - (d - 1)
coded qudits suffice to recover the source.

The joint pure state of the k-qudit reference block R and the n coded
qudits is the uniform superposition over the row space of

    G = [E | AB],   E = the first k standard basis columns,

with registers ordered R first, then Q1..Qn; the row indexed by the
message-plus-seed vector (a, b) lands on the basis state |a, (a, b) AB>.

``index_groups`` lists every index family the checks run over as the
bitmasks that index the rank and entropy tables; ``group_indices`` decodes one.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .gf import MAX_Q, check_modulus, is_prime
from . import linalg
from .linalg import SingularMatrixError, rank, subset_ranks
from .reporting import CheckReport

# the most cells of a generator G here, and of any support or dense block in sim
MAX_CELLS = 1 << 24


def _as_int(value, what: str) -> int:
    """``value`` as an int; floats, strings and bools are refused, not coerced."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not a bool: got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer: got {value!r}") from None


@dataclass(frozen=True)
class CodeParams:
    """Parameters (n, k, d, q) of an [[n, k, d]]_q quantum MDS code.

    Invariants enforced at construction:
      * k >= 1, d >= 2;
      * n = k + 2(d - 1)  (MDS equality of the quantum Singleton bound);
      * q prime, q >= n (so n distinct evaluation points exist) and
        q < 2^31 (so GF(q) products fit in int64).
    """

    n: int
    k: int
    d: int
    q: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1: got k={self.k}")
        if self.d < 2:
            raise ValueError(f"d must be at least 2: got d={self.d}")
        if self.n != self.k + 2 * (self.d - 1):
            raise ValueError(
                f"n must equal k+2(d-1): got n={self.n}, k={self.k}, d={self.d} "
                f"(expected n={self.k + 2 * (self.d - 1)})"
            )
        check_modulus(self.q)
        if self.q < self.n:
            raise ValueError(f"q must be at least n: got q={self.q} < n={self.n}")

    @property
    def generator_rank(self) -> int:
        """Number of generator rows, k + d - 1 = (k + n) / 2."""
        return self.k + self.d - 1

    @property
    def num_registers(self) -> int:
        """Total qudit count of the joint state: k reference + n coded."""
        return self.k + self.n


class QuantumMdsCode:
    """A concrete [[n, k, d]]_q code with its Vandermonde generator.

    Attributes:
        params: the validated CodeParams.
        alphas: the n distinct evaluation points (ints in [0, q-1]).
        AB: (k+d-1) x n matrix whose row r holds alpha_i ** (k+d-2-r);
            the bottom row is all ones, since pow gives 0**0 = 1 and an
            evaluation point of 0 keeps its 1 there.
        A: first k rows of AB.
        B: last d-1 rows of AB.
        G: (k+d-1) x (k+n) joint-state generator [E | AB], E the first k
           standard basis columns (the reference block R).

    The matrices are read-only int64 residue arrays over GF(q), q =
    params.q.  Construction is deterministic: identical parameters and
    evaluation points always produce identical matrices.  Instances are
    immutable.  A G of more than MAX_CELLS entries is refused unbuilt.
    """

    def __init__(self, params: CodeParams, alphas=None):
        self.params = params
        n, k, d, q = params.n, params.k, params.d, params.q
        m = params.generator_rank
        if m * params.num_registers > MAX_CELLS:
            raise ValueError(f"generator G would need {m} x {params.num_registers} "
                             f"entries, beyond the {MAX_CELLS} guard")

        if alphas is None:
            alphas = tuple(range(n))
        else:
            alphas = tuple(_as_int(a, "evaluation point") for a in alphas)
            if len(alphas) != n:
                raise ValueError(
                    f"need exactly n={n} evaluation points, got {len(alphas)}"
                )
            if any(not 0 <= a < q for a in alphas):
                raise ValueError(
                    f"evaluation points must lie in [0, {q - 1}]: got {list(alphas)}"
                )
        if len(set(alphas)) != n:
            raise ValueError(f"evaluation points must be distinct: got {list(alphas)}")
        self.alphas = alphas

        ab = np.array(
            [[pow(a, m - 1 - r, q) for a in alphas] for r in range(m)],
            dtype=np.int64,
        )
        ref_block = np.zeros((m, k), dtype=np.int64)
        ref_block[:k, :k] = np.eye(k, dtype=np.int64)
        g = np.hstack((ref_block, ab))
        for matrix in (ab, g):
            matrix.flags.writeable = False
        self.AB, self.A, self.B, self.G = ab, ab[:k], ab[k:], g

    def __repr__(self) -> str:
        p = self.params
        return f"QuantumMdsCode([[{p.n},{p.k},{p.d}]]_{p.q}, alphas={list(self.alphas)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuantumMdsCode)
            and self.params == other.params
            and self.alphas == other.alphas
        )

    def __hash__(self):
        return hash((self.params, self.alphas))


def _check_index_set(n: int, indices, what: str, formula: str, size: int) -> list[int]:
    """The ascending 1-based coded-qudit indices of a ``what`` set, which must
    hold ``size`` distinct indices in 1..n; ``formula`` is ``size`` in n and d."""
    idx = sorted(_as_int(i, f"{what} index") for i in indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what} set has duplicate indices: {idx}")
    if any(not 1 <= i <= n for i in idx):
        raise ValueError(f"{what} indices must lie in 1..{n}: got {idx}")
    if len(idx) != size:
        raise ValueError(f"{what} set must have exactly {formula}={size} indices, got {len(idx)}")
    return idx


def _decoding_blocks(code: QuantumMdsCode, surviving):
    """(step, AB_surviving, AB_erased), each block's invertibility checked.

    step = AB_surviving^-1 [E | AB_erased], the m x m matrix of both decode
    steps, read off one Gauss-Jordan elimination of [AB_surviving | E |
    AB_erased]: the surviving block is invertible exactly when that leaves
    m pivots among its columns, and the reduced right-hand block is then
    the step.  The step is invertible exactly when the erased seed block
    (the last d - 1 rows of AB_erased) is, which is checked by its rank.
    """
    p = code.params
    m = p.generator_rank
    idx = _check_index_set(p.n, surviving, "surviving", "n-(d-1)", p.n - (p.d - 1))
    erased = [i for i in range(1, p.n + 1) if i not in idx]
    ab_s = code.AB[:, [i - 1 for i in idx]]
    ab_e = code.AB[:, [i - 1 for i in erased]]
    reduced, pivots = linalg.rref(np.hstack((ab_s, code.G[:, :p.k], ab_e)), p.q)
    r = sum(1 for c in pivots if c < m)
    if r != m:
        raise SingularMatrixError(m, r, f"surviving-column block {idx}")
    seed = ab_e[p.k:]
    r = rank(seed, p.q)
    if r != len(seed):
        raise SingularMatrixError(len(seed), r, f"erased-column seed block {erased}")
    return reduced[:, m:], ab_s, ab_e


def erasure_submatrices(code: QuantumMdsCode, surviving) -> tuple[np.ndarray, np.ndarray]:
    """Column submatrices of AB for a surviving set and its complement.

    ``surviving`` is the set of n-(d-1) coded-qudit indices (1-based) that
    were not erased.  Returns (AB_surviving, AB_erased), columns in
    ascending index order.  The surviving block is a full-size square
    Vandermonde submatrix and the bottom (d-1)-row block of the erased part
    is itself square Vandermonde; both invertibility facts are asserted
    here because the decoding unitaries depend on them, and a block that
    fails one (a non-MDS generator) raises ``linalg.SingularMatrixError``
    naming its columns.
    """
    return _decoding_blocks(code, surviving)[1:]


def validate(code: QuantumMdsCode) -> CheckReport:
    """Exhaustively check the code invariants; failures become report entries.

    Checks evaluation-point distinctness, the rank of AB and G, the
    reference-block layout of G, invertibility of every full-size square
    column submatrix of AB, and invertibility of every (d-1)-column
    submatrix of B, the minors read off the ``linalg.subset_ranks`` table
    of AB and of B (so ``linalg.MAX_MASKS`` refuses n >= 19).
    """
    p = code.params
    m = p.generator_rank
    report = CheckReport(f"validation of [[{p.n},{p.k},{p.d}]]_{p.q}")

    report.add(
        "evaluation points distinct",
        len(set(code.alphas)) == p.n,
        f"alphas={list(code.alphas)}",
    )
    report.add(f"rank(AB) = {m}", rank(code.AB, p.q) == m)
    report.add(f"rank(G) = {m}", rank(code.G, p.q) == m)

    report.add(
        "reference block of G is the first k standard basis columns",
        bool(np.array_equal(code.G[:, : p.k], np.eye(m, p.k, dtype=np.int64))),
    )

    for name, block, size in (("AB", code.AB, m), ("B", code.B, p.d - 1)):
        ranks = subset_ranks(block, p.q, [[c] for c in range(p.n)])
        masks = index_groups(p.n, [size])
        for mask, full in zip(masks, (ranks[masks] == size).tolist()):
            report.add(f"{name} columns {list(group_indices(mask))} invertible", full)
    return report


def index_groups(n: int, sizes) -> NDArray[np.int64]:
    """The bitmasks of the groups of the 1-based indices 1..n with a size in ``sizes``.

    Groups run by size, then lexicographically; index i is bit i - 1 of an
    int64 mask (n <= 62), and size 0 gives the empty group.  Recovery sets
    (size n - (d-1)), erasure sets (size d - 1) and product-state groups
    all come from here.
    """
    bits = [1 << i for i in range(n)]
    groups = itertools.chain.from_iterable(itertools.combinations(bits, s) for s in sorted(sizes))
    return np.fromiter(map(sum, groups), dtype=np.int64)


def group_indices(mask: int) -> tuple[int, ...]:
    """The 1-based indices of the group with bitmask ``mask``, ascending."""
    mask = int(mask)
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


# JSON code descriptor: {"q":, "n":, "k":, "d":, "alphas": [...]} -- accepted
# as CLI input and emitted by the construct command.

def to_descriptor(code) -> dict:
    """Descriptor of anything with ``params`` and ``alphas``: a code or its profile."""
    p = code.params
    return {"q": p.q, "n": p.n, "k": p.k, "d": p.d, "alphas": list(code.alphas)}


def from_descriptor(descriptor: dict) -> QuantumMdsCode:
    """Build a code from a descriptor dict, validating shape and values."""
    if not isinstance(descriptor, dict):
        raise ValueError("code descriptor must be a JSON object")
    unknown = [key for key in descriptor if key not in ("q", "n", "k", "d", "alphas")]
    if unknown:
        raise ValueError(f"code descriptor has unknown keys: {unknown}")
    missing = [key for key in ("q", "n", "k", "d") if key not in descriptor]
    if missing:
        raise ValueError(f"code descriptor missing keys: {missing}")
    for key in ("q", "n", "k", "d"):
        _as_int(descriptor[key], f"descriptor field {key!r}")
    params = CodeParams(
        n=descriptor["n"], k=descriptor["k"], d=descriptor["d"], q=descriptor["q"]
    )
    alphas = descriptor.get("alphas")
    if alphas is not None and not isinstance(alphas, (list, tuple)):
        raise ValueError("descriptor field 'alphas' must be a list of integers")
    return QuantumMdsCode(params, alphas)


def smallest_prime_at_least(n: int) -> int:
    """The least prime >= n (Bertrand guarantees one below 2n).

    2^31 - 1 is prime, so one below MAX_Q exists exactly when n < MAX_Q.
    """
    if n >= MAX_Q:
        raise ValueError(f"no prime q below 2^31 is at least n={n}")
    candidate = max(n, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate
