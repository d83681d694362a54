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
``subset_layout`` is the one register map: it places and names every union of parts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .gf import MAX_Q, check_modulus, is_prime
from . import linalg
from .linalg import SingularMatrixError, rank, subset_ranks
from .reporting import Check, status_line

# the most cells of a generator G, a figure, and any support or dense block in sim
MAX_CELLS = 1 << 24


def _check_cells(what: str, *shape: int, unit: str = "entries", statevec: bool = False) -> None:
    """Refuse ``what``, ``shape`` counted in ``unit``, past MAX_CELLS before it is allocated;
    a ``statevec`` refusal names the exact oracle, which needs no such array."""
    if math.prod(shape) > MAX_CELLS:
        fallback = "; use the exact rank-identity oracle (entropy module) for these parameters"
        raise ValueError(f"{what} would need {' x '.join(map(str, shape))} {unit}, beyond the "
                         f"{MAX_CELLS} guard{fallback if statevec else ''}")


def _as_int(value, what: str) -> int:
    """``value`` as an int; floats, strings and bools are refused, not coerced."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not a bool: got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer: got {value!r}") from None


def _check_k_d(k: int, d: int) -> None:
    """k >= 1 and d >= 2, the rules a code and the pyramid figure share."""
    for name, value, least in (("k", k, 1), ("d", d, 2)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}: got {name}={value}")


@dataclass(frozen=True)
class CodeParams:
    """Parameters (n, k, d, q) of an [[n, k, d]]_q quantum MDS code.

    Invariants enforced at construction:
      * each an int (numpy integers are converted; anything else is refused);
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
        for name in ("n", "k", "d", "q"):
            value = _as_int(getattr(self, name), f"code parameter {name!r}")
            object.__setattr__(self, name, value)
        _check_k_d(self.k, self.d)
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
            the bottom row is all ones (0**0 = 1, so an evaluation point
            of 0 keeps its 1 there), and each row above is the one below
            times the points, mod q.
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
        _check_cells("generator G", m, params.num_registers)

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

        # row r holds alpha ** (m - 1 - r): ones at the bottom, and each
        # row above is the one below times alpha, so 0 ** 0 = 1
        ab = np.empty((m, n), dtype=np.int64)
        ab[-1] = 1
        points = np.array(alphas, dtype=np.int64)
        for r in range(m - 2, -1, -1):
            np.multiply(ab[r + 1], points, out=ab[r])
            ab[r] %= q
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


def _decoding_step(code: QuantumMdsCode, survivors, partners, mask: int) -> list[list[int]]:
    """AB_surviving^-1 [E | AB_erased] as lists, for the surviving Q-bitmask ``mask``,
    its registers ``survivors`` and the complement's, R's then the erased, ``partners``.

    Decoding maps the surviving value y to y . AB_surviving^-1 = (a, b), a
    generator row, and then to (a, (a, b) AB_erased): this m x m matrix, read
    off one elimination of lists [AB_surviving | E | AB_erased] from G, with
    m pivots among its first m columns exactly when AB_surviving is
    invertible.  A second elimination checks the erased seed block (the
    last d - 1 rows of AB_erased), invertible exactly when the step is.
    """
    p, m = code.params, code.params.generator_rank
    columns = survivors + partners
    rows = [[row[c] for c in columns] for row in code.G.tolist()]
    seed = [row[m + p.k:] for row in rows[p.k:]]
    reduced, pivots = linalg._rref_rows(rows, p.q)
    r = sum(1 for c in pivots if c < m)
    if r != m:
        raise SingularMatrixError(m, r, f"surviving-column block {list(group_indices(mask))}")
    r = len(linalg._rref_rows(seed, p.q)[1])
    if r != len(seed):
        erased = list(group_indices((1 << p.n) - 1 - mask))
        raise SingularMatrixError(len(seed), r, f"erased-column seed block {erased}")
    return [row[m:] for row in reduced]


def validate(code: QuantumMdsCode) -> Check:
    """Exhaustively check the code invariants; the title counts the checks,
    and only a failing check gets a line.

    Checks evaluation-point distinctness, the rank of AB and G, the
    reference-block layout of G, invertibility of every full-size square
    column submatrix of AB, and invertibility of every (d-1)-column
    submatrix of B, the minors read off the ``linalg.subset_ranks`` table
    of AB and of B (so ``linalg.MAX_MASKS`` refuses n >= 19).
    """
    p = code.params
    m = p.generator_rank
    checks = (
        (f"evaluation points distinct: alphas={list(code.alphas)}", len(set(code.alphas)) == p.n),
        (f"rank(AB) = {m}", rank(code.AB, p.q) == m),
        (f"rank(G) = {m}", rank(code.G, p.q) == m),
        ("reference block of G is the first k standard basis columns",
         np.array_equal(code.G[:, : p.k], np.eye(m, p.k, dtype=np.int64))),
    )
    count = len(checks)
    failures = [status_line(False, text) for text, ok in checks if not ok]
    for name, block, size in (("AB", code.AB, m), ("B", code.B, p.d - 1)):
        ranks = subset_ranks(block, p.q, [[c] for c in range(p.n)])
        masks = index_groups(p.n, [size])
        count += masks.size
        failures += [status_line(False, f"{name} columns {list(group_indices(mask))} invertible")
                     for mask in masks[ranks[masks] != size]]
    return Check(not failures, f"validation of [[{p.n},{p.k},{p.d}]]_{p.q} ({count} checks)",
                 tuple(failures))


def index_groups(n: int, sizes) -> NDArray[np.int64]:
    """The bitmasks of the groups of the 1-based indices 1..n with a size in ``sizes``.

    Groups run by size, then lexicographically; index i is bit i - 1 of an
    int64 mask (n <= 62), and size 0 gives the empty group.  Recovery sets
    (size n - (d-1)), erasure sets (size d - 1) and product-state groups
    all come from here.  The array is read-only, built once per (n, sizes).
    """
    return _index_groups(n, tuple(sorted(sizes)))


@functools.cache
def _index_groups(n: int, sizes: tuple[int, ...]) -> NDArray[np.int64]:
    bits = [1 << i for i in range(n)]
    groups = itertools.chain.from_iterable(itertools.combinations(bits, s) for s in sizes)
    masks = np.fromiter(map(sum, groups), dtype=np.int64)
    masks.flags.writeable = False
    return masks


def group_indices(mask: int) -> tuple[int, ...]:
    """The 1-based indices of the group with bitmask ``mask``, ascending."""
    mask = int(mask)
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class SubsetLayout:
    """The unions of the disjoint register groups ``parts``, named ``names``, by bitmask,
    part j at bit j; combinatorics only.  ``positions`` and ``labels`` walk the parts and
    refuse a mask outside 0..full, and the read-only arrays are built on first use, so a
    caller builds only what it reads: ``registers[mask]``, the union's register bitmask
    (register r at bit r), ``counts[mask]``, its int8 register count, and ``of_size(s)``,
    the masks of s registers, ascending, with their (B, s) register positions.  A union's
    complement is ``full - mask``."""

    def __init__(self, parts: tuple[tuple[int, ...], ...], names: tuple[str, ...]):
        self.parts, self.names, self.full, self._sizes = parts, names, (1 << len(parts)) - 1, {}
        self._order = sorted(range(len(parts)), key=lambda j: parts[j][:1])  # empty part first

    def positions(self, mask: int) -> list[int]:
        """The registers of the union ``mask``, ascending."""
        self._check(mask)
        return sorted(r for j, part in enumerate(self.parts) if mask >> j & 1 for r in part)

    def labels(self, mask: int) -> tuple[str, ...]:
        """The names of the parts in the union ``mask``, in register order."""
        self._check(mask)
        return tuple(self.names[j] for j in self._order if mask >> j & 1)

    def _check(self, mask: int) -> None:
        if not 0 <= mask <= self.full:
            raise ValueError(f"union mask {mask} lies outside 0..{self.full}")

    def _by_union(self, dtype, combine, values) -> np.ndarray:
        # the unions with part j are those without it, combined with its value
        table = np.zeros(self.full + 1, dtype=dtype)
        for j, value in enumerate(values):
            combine(table[: 1 << j], value, out=table[1 << j : 2 << j])
        table.flags.writeable = False
        return table

    @functools.cached_property
    def registers(self) -> NDArray[np.int64]:
        return self._by_union(np.int64, np.bitwise_or, [sum(1 << r for r in p) for p in self.parts])

    @functools.cached_property
    def counts(self) -> NDArray[np.int8]:
        return self._by_union(np.int8, np.add, list(map(len, self.parts)))

    def of_size(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        if size not in self._sizes:
            masks = np.flatnonzero(self.counts == size)
            bits = self.registers[masks, None] >> np.arange(sum(map(len, self.parts))) & 1
            positions = np.nonzero(bits)[1].reshape(masks.size, size)
            masks.flags.writeable = positions.flags.writeable = False
            self._sizes[size] = masks, positions
        return self._sizes[size]


@functools.cache
def subset_layout(k: int, n: int, split_R: bool = False) -> SubsetLayout:
    """The R-atomic layout (Q_i at bit i - 1, R's k registers at bit n), or with
    ``split_R`` the all-register one (register r at bit r), registers R1..Rk
    then Q1..Qn; each part named as listed.  Built once per (k, n, split_R)."""
    coded = tuple(f"Q{i}" for i in range(1, n + 1))
    if split_R:
        return SubsetLayout(tuple((r,) for r in range(k + n)),
                            tuple(f"R{i}" for i in range(1, k + 1)) + coded)
    return SubsetLayout(tuple((k + i,) for i in range(n)) + (tuple(range(k)),), coded + ("R",))


# JSON code descriptor: {"q":, "n":, "k":, "d":, "alphas": [...]} -- accepted
# as CLI input and emitted by the construct command.

def to_descriptor(code) -> dict:
    """Descriptor of anything with ``params`` and ``alphas``: a code or its profile."""
    p = code.params
    return {"q": p.q, "n": p.n, "k": p.k, "d": p.d, "alphas": list(code.alphas)}


def from_descriptor(descriptor: dict) -> QuantumMdsCode:
    """Build a code from a descriptor dict, validating shape and values: the one
    path from outside input to a code, which the CLI's ``--code`` file and
    parameter flags both take."""
    if not isinstance(descriptor, dict):
        raise ValueError("code descriptor must be a JSON object")
    unknown = [key for key in descriptor if key not in ("q", "n", "k", "d", "alphas")]
    if unknown:
        raise ValueError(f"code descriptor has unknown keys: {unknown}")
    missing = [key for key in ("q", "n", "k", "d") if key not in descriptor]
    if missing:
        raise ValueError(f"code descriptor missing keys: {missing}")
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
