"""Brute-force state-vector oracle and erasure decoding.

Everything the exact rank-identity oracle claims is re-derived here the
hard way: list the joint state's support, reduce it by partial trace, and
diagonalize the reduced state (read off its diagonal when it is diagonal,
else numpy's Hermitian eigensolver) to get Von Neumann entropies in q-ary
units.  Like the exact oracle, ``entropy_table`` returns all 2^(n+1)
R-atomic entropies as one array indexed R * 2^n + Q-bitmask.  The state is
pure, so both sides of a bipartition share their entropy: each side no
larger than its complement is reduced once, and the larger side reads its
entry.  The two entropy paths share no machinery beyond the generator
matrix itself, which is used only to list the support.

The table's reduction is batched by register count: all subsystems of
s registers are reduced together, in chunks whose kept-key arrays (masks x
support rows x 8 bytes) stay within KEY_BUDGET, or hold one mask where
that alone is larger; the chunk's other temporaries are no larger.  A
chunk builds its kept keys by Horner's rule over a register-major copy of
the digits made once per call and forms every diagonal with one offset
bincount; the trace check, clamp, sort and -sum(lam log_q lam) run
row-wise.  Each bin sums in row order, as one mask's bincount does, so
the values equal the per-mask reduction's bit for bit when rho is
diagonal.  No environment key is built: a diagonal with N nonzero bins
over the N support rows shows its register set injective (every row has
its own kept key), any register set holding an injective one is
injective, and a side is diagonal when its complement is injective.  So
the batch closes the injective flags upward over the mask table and
keeps a side's value when its complement is flagged and its diagonal
reaches all q^s kept keys, as on every side of an MDS state (each
R-atomic set of half the registers is maximally mixed, so injective).
Any other side, reached only by non-MDS states, takes the per-mask path,
which sorts its environment keys to test them distinct; so does
von_neumann_entropy, which has no table to certify from.

Conventions: a state of r registers with local dimension q is stored on
its support, the basis states it touches: ``digits`` has one row of
register values per support basis state, in canonical register order
(reference qudits first, then Q1..Qn) and the narrowest unsigned dtype
holding q - 1, and ``amplitudes`` the matching complex amplitudes; every
other basis state has amplitude 0.  Both simulated states are row spaces,
listed by one builder: x . g for every x in GF(q)^m, m = k+d-1, by
Horner's rule over x's digits, with g = G for the code state (q**m of its
q**(k+n) basis states) and a 0/1 layout matrix for the decoding target.
Where a set of registers needs one index per row, its key is their values
read big-endian, by Horner's rule over columns into int64.  A reduced
state is built by grouping the support rows on their kept and environment
keys.  Decoding permutes the computational basis: one invertible m x m
matrix over GF(q) maps the surviving registers of each support row, in
one float64 product that is exact while m (q-1)^2 < 2^53; the result is
a permutation of a valid state, so it is not validated again.  The
decoding target is m maximally entangled register pairs, so its support
is the basis states on which every pair agrees: target_fidelity sums the
amplitudes of a state's agreeing rows, without listing the target.

A work guard bounds the support array at q**m rows x (k+n) digits <=
2**24 cells, and any dense reduced block at 2**24 entries; larger
parameters belong to the exact oracle in the entropy module.  Since
k + n = 2m, the support guard also keeps every key below q**(2m) < 2**63,
so no key can overflow int64; a StateVector built by hand is refused
unless q**registers keys fit.  That refusal bounds decodable states at
q <= 55103 (q**4 < 2**63), far inside decoding's float64 bound.
"""

from __future__ import annotations

import numpy as np

from .code import MAX_CELLS, QuantumMdsCode, _check_index_set, _decoding_blocks
from .entropy import SubsystemSpec

MAX_KEY = np.iinfo(np.int64).max
NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
OFF_NORM_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-10
# most bytes of one key array of an entropy-table chunk (masks x support rows
# x 8), unless one mask's keys alone are larger; 512 KiB keeps a chunk's
# arrays in cache
KEY_BUDGET = 1 << 19


def _horner(registers: np.ndarray, columns: np.ndarray, q: int) -> np.ndarray:
    """Big-endian keys of the registers ``columns`` names, by Horner's rule in place;
    ``registers`` holds one register per row.  1-D ``columns`` give one key per support
    row, reading each register as a view; (B, s) ``columns``, s >= 1, give B rows of keys."""
    columns = columns.T
    keys = registers[columns[0]].astype(np.int64)
    for column in columns[1:]:
        keys *= q
        np.add(keys, registers[column], out=keys, dtype=np.int64)  # += would add uint64 as float
    return keys


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Whether each row of ``keys`` (its last axis) holds no key twice; sorts them in place."""
    keys.sort(axis=-1)
    return ~np.any(keys[..., 1:] == keys[..., :-1], axis=-1)


class StateVector:
    """Pure state over q-ary registers, stored on its support.

    ``digits`` is an (N, num_registers) array of register values in [0, q),
    in the narrowest unsigned dtype holding q - 1, with no repeated row, and
    ``amplitudes`` the N matching complex double amplitudes, normalized
    within 1e-12; both are read-only.  The constructor validates and copies
    its inputs; ``decode`` builds its result without it, sharing the input
    state's amplitudes.
    The first ``num_ref`` registers form the reference block (so subsystem
    specs with include_R resolve to them); the rest are the coded qudits
    Q1..Qn.
    """

    __slots__ = ("q", "num_registers", "num_ref", "digits", "amplitudes")

    def __init__(self, q: int, num_registers: int, digits, amplitudes, num_ref: int = 0):
        if q < 2:
            raise ValueError(f"local dimension must be >= 2: got {q}")
        if num_registers < 1:
            raise ValueError(f"a state needs at least one register: got {num_registers}")
        if not 0 <= num_ref <= num_registers:
            raise ValueError("reference block cannot exceed the register count")
        if q**num_registers > MAX_KEY:
            raise ValueError(
                f"q^registers = {q}^{num_registers} basis states overflow int64 keys"
            )
        rows = np.asarray(digits)
        if rows.dtype.kind not in "iu":
            raise ValueError(f"register values must be integers: got dtype {rows.dtype}")
        amps = np.array(amplitudes, dtype=np.complex128)
        if rows.ndim != 2 or rows.shape[1] != num_registers or amps.shape != rows.shape[:1]:
            raise ValueError(
                f"expected an (N, {num_registers}) digit array and N amplitudes: "
                f"got shapes {rows.shape} and {amps.shape}"
            )
        # checked in the input dtype, so the narrowing cast below cannot wrap
        if rows.size and not (0 <= rows.min() and rows.max() < q):
            raise ValueError(f"register values must lie in [0, {q - 1}]")
        rows = rows.astype(np.min_scalar_type(q - 1))
        if not _distinct(_horner(rows.T, np.arange(num_registers), q)):
            raise ValueError("support rows must be distinct")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")
        rows.flags.writeable = False
        amps.flags.writeable = False
        self.q = q
        self.num_registers = num_registers
        self.num_ref = num_ref
        self.digits = rows
        self.amplitudes = amps

    def __repr__(self) -> str:
        return (
            f"StateVector(q={self.q}, registers={self.num_registers}, "
            f"ref={self.num_ref}, support={len(self.amplitudes)})"
        )


class DensityMatrix:
    """Dense Hermitian, trace-one reduced state.

    Hermiticity and unit trace are verified within 1e-12 at construction;
    the eigenvalue floor (>= -1e-10) is enforced when the spectrum is
    computed.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        mat = np.asarray(entries, dtype=np.complex128).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square: got shape {mat.shape}")
        herm_defect = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
        if herm_defect > HERMITIAN_TOL:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm_defect}")
        _check_trace(complex(np.trace(mat)))
        mat.flags.writeable = False
        self.entries = mat


def _check_trace(trace: complex) -> None:
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"trace must be 1: got {trace}")


def _guard(cells: int, what: str) -> None:
    if cells > MAX_CELLS:
        raise ValueError(
            f"{what} would need {cells} cells, beyond the {MAX_CELLS} guard; use "
            "the exact rank-identity oracle (entropy module) for these parameters"
        )


def _row_space(q: int, g: np.ndarray, num_ref: int) -> StateVector:
    """The uniform superposition over x . g, x in GF(q)^m big-endian, by Horner's rule on x."""
    m, total = g.shape
    _guard(q**m * total, f"state vector support of {q}^{m} rows x {total} registers")
    digit = np.min_scalar_type(q - 1)
    rows = np.zeros((1, total), dtype=digit)
    for row in g:
        multiples = (np.arange(q)[:, None] * row % q).astype(digit)
        sums = np.add(rows[:, None], multiples, dtype=np.min_scalar_type(2 * q - 2))
        sums %= q
        rows = sums.reshape(-1, total).astype(digit, copy=False)
    amps = np.full(q**m, q ** (-m / 2), dtype=np.complex128)
    return StateVector(q, total, rows, amps, num_ref=num_ref)


def encode_state(code: QuantumMdsCode) -> StateVector:
    """The joint pure state of the reference block and coded qudits.

    A uniform superposition with amplitude q**(-(k+d-1)/2) on the basis
    state x . G for each row vector x in GF(q)^(k+d-1): the reference block
    carries the message part of x and the coded registers carry the
    codeword.
    """
    return _row_space(code.params.q, code.G, code.params.k)


def _positions_of(psi: StateVector, sub: SubsystemSpec) -> list[int]:
    """The subsystem's register positions, ascending."""
    if sub.include_R and psi.num_ref == 0:
        raise ValueError("state has no reference block but include_R was requested")
    positions = list(sub.registers(psi.num_ref))
    beyond = [p - psi.num_ref + 1 for p in positions if p >= psi.num_registers]
    if beyond:
        raise ValueError(f"coded qudit Q{beyond[0]} out of range for {psi.num_registers} registers")
    return positions


def _reduce(psi: StateVector, positions: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The reduced state of ``positions`` on the kept keys the state reaches.

    Returns those keys, ascending, and rho restricted to them.  When every
    environment key meets one support row, no two kept keys share an
    environment and rho is diagonal: it is returned as its diagonal,
    sum |amp|^2 per kept key.  Otherwise rho = M M^dag with M[kept, env]
    the amplitudes, returned as a square block and refused past the
    2**24-entry guard before either matrix is allocated.  Both bin over the
    reached keys, never over all q^s kept values.
    """
    rest = [p for p in range(psi.num_registers) if p not in positions]
    # a batch of one, in the entropy table's (B, s) layout
    kept = _horner(psi.digits.T, np.array([positions]), psi.q)[0]
    env = _horner(psi.digits.T, np.array([rest]), psi.q)[0]
    reached, row_kept = np.unique(kept, return_inverse=True)
    if _distinct(env.copy()):
        weights = np.bincount(row_kept, np.abs(psi.amplitudes) ** 2, reached.size)
        nonzero = np.flatnonzero(weights)
        return reached[nonzero], weights[nonzero]
    envs, row_env = np.unique(env, return_inverse=True)
    _guard(reached.size * max(reached.size, envs.size),
           f"reduced state on {reached.size} kept x {envs.size} environment keys")
    matrix = np.zeros((reached.size, envs.size), dtype=np.complex128)
    matrix[row_kept, row_env] = psi.amplitudes
    return reached, matrix @ matrix.conj().T


def partial_trace(psi: StateVector, keep: SubsystemSpec) -> DensityMatrix:
    """Reduced density matrix of the kept subsystem over its full basis.

    rho[i, j] = sum_e psi[i, e] conj(psi[j, e]) over environment
    configurations e, as a dense q**|keep| square matrix indexed by the kept
    registers' big-endian value; kept values the support never reaches get
    zero rows and columns.  The kept set must be nonempty and proper; empty
    and full bipartitions have entropy zero by purity and are
    short-circuited by the entropy function instead.
    """
    positions = _positions_of(psi, keep)
    if len(positions) == 0:
        raise ValueError("keep set is empty; its entropy is 0 by convention")
    if len(positions) == psi.num_registers:
        raise ValueError("keep set is the full system; its entropy is 0 (pure state)")
    dim = psi.q ** len(positions)
    _guard(dim * dim, f"reduced state on {dim} kept values")
    reached, rho = _reduce(psi, positions)
    full = np.zeros((dim, dim), dtype=np.complex128)
    if rho.ndim == 1:
        full[reached, reached] = rho
    else:
        full[np.ix_(reached, reached)] = rho
    return DensityMatrix(full)


def _clamped_descending(values: np.ndarray) -> np.ndarray:
    """Eigenvalues within 1e-10 of 0 or 1 moved onto the boundary, sorted descending."""
    near_zero = (values < 0.0) & (values >= -EIGENVALUE_CLAMP)
    values[near_zero] = 0.0
    near_one = (values > 1.0) & (values <= 1.0 + EIGENVALUE_CLAMP)
    values[near_one] = 1.0
    return np.sort(values, axis=-1)[..., ::-1]


def hermitian_eigenvalues(rho) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix.

    Accepts a DensityMatrix or a plain Hermitian ndarray.  A matrix whose
    off-diagonal Frobenius norm is below 1e-12 is read off its diagonal;
    any other goes to numpy's Hermitian solver.  Eigenvalues within 1e-10
    of 0 or 1 are clamped onto the boundary.  Returned sorted in
    descending order.
    """
    a = np.asarray(rho.entries if isinstance(rho, DensityMatrix) else rho,
                   dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and float(np.max(np.abs(a - a.conj().T))) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")

    if float(np.linalg.norm(a - np.diag(np.diag(a)))) < OFF_NORM_TOL:
        values = np.real(np.diag(a)).copy()
    else:
        values = np.linalg.eigvalsh(a)
    return _clamped_descending(values)


def von_neumann_entropy(psi: StateVector, sub: SubsystemSpec) -> float:
    """Von Neumann entropy of a subsystem in q-ary units.

    Empty and full subsystems return 0 (the state is pure).  Otherwise the
    reduced state of the smaller side of the bipartition is taken (a state
    vector's two reduced states share their nonzero spectrum) on the
    per-mask path, the entropy table's fallback.  When the environment
    keys are distinct, as on a valid code's smaller side (it is maximally
    mixed), the reduced state is diagonal and gives its spectrum directly,
    with its trace checked; any other goes to hermitian_eigenvalues.  The
    entropy is -sum(lam * log_q lam) with 0 log 0 = 0.
    """
    positions = _positions_of(psi, sub)
    if 2 * len(positions) > psi.num_registers:
        positions = [p for p in range(psi.num_registers) if p not in positions]
    if not positions:
        return 0.0
    return _entropy(psi, positions)


def entropy_table(psi: StateVector) -> np.ndarray:
    """Entropies of all 2^(n+1) R-atomic subsystems, indexed R * 2^n + Q-bitmask.

    The twin of ``entropy.entropy_table``, with R the reference block.  A
    subsystem no larger than its complement is reduced, all those of one
    register count in one batch; a larger one takes its complement's entry,
    the side von_neumann_entropy reduces for it.  The batch keeps a
    subsystem's value when its diagonal reaches all q^s kept keys and its
    complement holds a batch-reduced subset whose diagonal has one nonzero
    bin per support row: the support is injective on that subset, hence on
    the complement, so the environment keys are distinct and rho is that
    diagonal.  Any other subsystem takes the per-mask path.
    """
    k, total = psi.num_ref, psi.num_registers
    if k == 0:
        raise ValueError("state has no reference block, so R-atomic subsystems are undefined")
    q, rows = psi.q, len(psi.amplitudes)
    full = (2 << (total - k)) - 1
    bits = np.array([total - k] * k + list(range(total - k)))
    member = (np.arange(full + 1)[:, None] >> bits & 1).astype(bool)
    sizes = member.sum(axis=1)
    groups = [np.flatnonzero(sizes == size) for size in range(1, total // 2 + 1)]
    kept = [np.nonzero(member[masks])[1].reshape(masks.size, size)
            for size, masks in enumerate(groups, start=1)]
    # one register per row: keys gather whole registers, which a strided
    # view of the row-major digits makes about 1.5 times as slow
    registers = np.ascontiguousarray(psi.digits.T)
    weights = np.abs(psi.amplitudes) ** 2
    per_chunk = max(1, KEY_BUDGET // (8 * rows))
    table = np.full(full + 1, np.nan)
    table[[0, full]] = 0.0
    injective = np.zeros(full + 1, dtype=bool)
    for masks, positions in zip(groups, kept):
        # a diagonal over fewer rows than q^s kept keys cannot reach them all
        if q ** positions.shape[1] > rows:
            continue
        for start in range(0, len(masks), per_chunk):
            chunk = slice(start, start + per_chunk)
            table[masks[chunk]], nonzero = _diagonal_entropies(
                q, registers, weights, positions[chunk]
            )
            # N nonzero bins need N distinct kept keys
            injective[masks[chunk]] = nonzero == rows
    # a register set holding an injective one is injective
    for bit in range(total - k + 1):
        halves = injective.reshape(-1, 2, 1 << bit)
        halves[:, 1] |= halves[:, 0]
    for size, (masks, positions) in enumerate(zip(groups, kept), start=1):
        # masks run 0..full, so the complement full ^ mask is full - mask
        for i in np.flatnonzero(np.isnan(table[masks]) | ~injective[full - masks]):
            table[masks[i]] = _entropy(psi, positions[i].tolist())
        if 2 * size < total:
            table[full - masks] = table[masks]
    return table


def _diagonal_entropies(q: int, registers: np.ndarray, weights: np.ndarray,
                        kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal entropies of one chunk's subsets, and each diagonal's nonzero-bin count.

    Row i of ``kept`` holds s ascending register positions.  Its diagonal
    of rho, sum |amp|^2 per kept key, comes from one offset bincount, row
    i * q^s + kept key, which sums each bin in row order as a single
    subset's bincount does; a diagonal that reaches all q^s kept keys gets
    -sum(lam log_q lam), equal to the per-mask path's bit for bit when rho
    is diagonal, and any other gets NaN.
    """
    width = q ** kept.shape[1]
    keys = _horner(registers, kept, q)
    keys += np.arange(0, len(kept) * width, width)[:, None]
    diagonals = np.bincount(
        keys.ravel(), np.tile(weights, len(kept)), len(kept) * width
    ).reshape(len(kept), width)
    del keys
    nonzero = np.count_nonzero(diagonals, axis=1)
    full = nonzero == width
    values = np.full(len(kept), np.nan)
    diagonals = diagonals[full]
    traces = diagonals.sum(axis=1)
    off = np.abs(traces - 1.0) > TRACE_TOL
    if off.any():
        _check_trace(complex(traces[off][0]))
    # every entry is a nonzero sum of |amp|^2, so the spectrum is positive
    spectra = np.ascontiguousarray(_clamped_descending(diagonals))
    terms = np.log(spectra)
    terms /= np.log(q)
    terms *= spectra
    values[full] = -terms.sum(axis=1)
    return values, nonzero


def _entropy(psi: StateVector, positions: list[int]) -> float:
    """Per-mask entropy of the registers at ``positions``, ascending, 0 < size <= half."""
    _, rho = _reduce(psi, positions)
    if rho.ndim == 1:
        _check_trace(complex(rho.sum()))
        values = _clamped_descending(rho)
    else:
        values = hermitian_eigenvalues(DensityMatrix(rho))
    if np.any(values < -EIGENVALUE_CLAMP):
        raise ValueError(
            f"reduced state has eigenvalue {float(values.min())} below -1e-10"
        )
    positive = values[values > 0.0]
    return float(-(positive * (np.log(positive) / np.log(psi.q))).sum())


def _decode_block(code: QuantumMdsCode, surviving: list[int], values: np.ndarray) -> np.ndarray:
    """Both decode steps on joint values of the surviving block, one per row.

    Step one relabels the block value y to y . (AB_surviving)^-1, exposing
    the generator row (a, b); step two maps (a, b) to (a, (a, b) AB_erased),
    which is invertible because the erased seed block is square Vandermonde.
    Together they are one m x m matrix, (AB_surviving)^-1 [E | AB_erased].

    It is applied as one float64 product and reduced mod q in float64,
    returned in the digit dtype.  Every sum is an integer below
    m (q-1)^2 < 2^53, so the product is exact in any summation order, and
    floor(s / q) of a correctly rounded quotient is the exact s // q for
    s < 2^53, so s - q floor(s / q) is the exact residue.  decode reaches
    q <= 55103 (StateVector's q^(k+n) < 2^63 key guard), where the bound
    is about 6.1e9.

    Raises:
        ValueError: if m (q-1)^2 >= 2^53, where the float64 sums could round.
    """
    q, m = code.params.q, code.params.generator_rank
    if m * (q - 1) ** 2 >= 1 << 53:
        raise ValueError(
            f"decoding sums reach m(q-1)^2 = {m * (q - 1) ** 2}, beyond the 2^53 "
            "that float64 holds exactly"
        )
    step = _decoding_blocks(code, surviving)[0].astype(np.float64)
    floats = values.astype(np.float64)
    sums = floats @ step
    quotients = np.divide(sums, q, out=floats)
    np.floor(quotients, out=quotients)
    quotients *= q
    sums -= quotients
    return sums.astype(np.min_scalar_type(q - 1))


def decode(psi: StateVector, code: QuantumMdsCode, surviving) -> StateVector:
    """Erasure decoding on the surviving registers of the encoded state.

    Applies the basis permutation of _decode_block to the surviving coded
    registers of every support row; the reference block, the erased
    registers and the amplitudes are untouched.  Norm is preserved exactly
    (permutations are unitary), and the output matches decode_target with
    fidelity 1.

    The result is built without StateVector's validation, because each of
    its invariants holds by construction: the step is invertible (the
    surviving block and the erased seed block are checked by
    code._decoding_blocks), so it permutes GF(q)^m and distinct support
    rows stay distinct; the reduction mod q puts every digit in [0, q), in
    psi's digit dtype; and the amplitudes are psi's read-only array, so
    the norm is psi's.
    """
    p = code.params
    idx = _check_index_set(p.n, surviving, "surviving", "n-(d-1)", p.n - (p.d - 1))
    if psi.q != p.q or psi.num_registers != p.num_registers or psi.num_ref != p.k:
        raise ValueError("state shape does not match the code's joint state")
    positions = [p.k + i - 1 for i in idx]
    digits = psi.digits.copy()
    digits[:, positions] = _decode_block(code, idx, psi.digits[:, positions])
    digits.flags.writeable = False
    out = StateVector.__new__(StateVector)
    out.q, out.num_registers, out.num_ref = p.q, p.num_registers, p.k
    out.digits, out.amplitudes = digits, psi.amplitudes
    return out


def _target_pairs(code: QuantumMdsCode, surviving) -> tuple[np.ndarray, np.ndarray]:
    """The register pairs the decoding target entangles, as (left, right) positions.

    Pair j < k is reference register j and the j-th surviving register;
    pair k + j is surviving register k + j and the j-th erased register.
    The m pairs cover every register once.
    """
    p, k = code.params, code.params.k
    idx = _check_index_set(p.n, surviving, "surviving", "n-(d-1)", p.n - (p.d - 1))
    survivors = [k + i - 1 for i in idx]
    erased = [k + i - 1 for i in range(1, p.n + 1) if i not in idx]
    return np.array([*range(k), *survivors[k:]]), np.array([*survivors[:k], *erased])


def decode_target(code: QuantumMdsCode, surviving) -> StateVector:
    """The explicit post-decoding state for a surviving set.

    The reference block is maximally entangled with the first k surviving
    registers, and the last d-1 surviving registers are maximally
    entangled with the erased registers, all in canonical register order.
    """
    p = code.params
    left, right = _target_pairs(code, surviving)
    # row (a, b) holds message a then seed b, big-endian as the encoder lists them
    layout = np.zeros((p.generator_rank, p.num_registers), dtype=np.int64)
    layout[range(len(left)), left] = 1
    layout[range(len(right)), right] = 1
    return _row_space(p.q, layout, p.k)


def target_fidelity(psi: StateVector, code: QuantumMdsCode, surviving) -> float:
    """fidelity(psi, decode_target(code, surviving)), without listing the target.

    The target's support is exactly the basis states on which both
    registers of every target pair agree, each with amplitude q^(-m/2),
    so the overlap is q^(-m/2) times the sum of psi's amplitudes on its
    rows whose pairs agree.
    """
    p = code.params
    if psi.q != p.q or psi.num_registers != p.num_registers:
        raise ValueError("states have different shapes")
    left, right = _target_pairs(code, surviving)
    agree = np.ones(len(psi.amplitudes), dtype=bool)
    for i, j in zip(left, right):
        agree &= psi.digits[:, i] == psi.digits[:, j]
    overlap = psi.amplitudes[agree].sum() * p.q ** (-p.generator_rank / 2)
    return float(abs(overlap) ** 2)


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2 between two states of identical shape.

    Only basis states in both supports contribute, so the overlap runs over
    the matched support rows.
    """
    if psi.q != phi.q or psi.num_registers != phi.num_registers:
        raise ValueError("states have different shapes")
    keys = [_horner(s.digits.T, np.arange(s.num_registers), s.q) for s in (psi, phi)]
    _, i, j = np.intersect1d(*keys, assume_unique=True, return_indices=True)
    # a pairwise sum: np.vdot's BLAS accumulation drifts with the support size
    return float(abs(np.sum(np.conj(psi.amplitudes[i]) * phi.amplitudes[j])) ** 2)
