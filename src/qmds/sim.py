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

The table, a spec's registers and the decoder's register pairs all come
from ``code.subset_layout``, the one register map the exact oracle reads
too, so no rank code runs.  Its reduction is batched by register count, in chunks whose
kept-key arrays (masks x rows x 8 bytes) stay within KEY_BUDGET, or hold
one mask where that alone is larger; its other temporaries are no
larger.  Kept keys come by Horner's rule over a register-major copy of
the digits, and a chunk's diagonals from one offset bincount that counts
rows.  It runs only on a state with one weight per row, as encode_state
builds, so the trace N w is checked once and exactly, and a flat
diagonal (one count in every bin) has entropy s, no log per entry.  No
environment key is built: a diagonal with one row per bin shows its
register set injective, so is any register set holding it, and a side is
diagonal when its complement is injective, as on every side of an MDS
state (each R-atomic set of half the registers is maximally mixed, so
injective).  Any other side, and every side of a state without a common
weight, takes the per-mask path, which sorts its environment keys to
test them distinct; so does von_neumann_entropy, which has no table to
certify from.

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
read big-endian, by Horner's rule over columns into int64.  A per-mask
reduction groups the support rows on their kept and environment keys and
checks its trace.  Decoding permutes the computational basis: one
invertible m x m matrix over GF(q) per surviving set maps the surviving
registers of each support row, in one float64 product per chunk of rows
(DECODE_BYTES of float64 at most), exact while m (q-1)^2 < 2^53.  The
decoding target is m maximally entangled register pairs, so its support
is the basis states on which every pair agrees: decoded_fidelity decodes
each chunk and compares every decoded register with its partner in the
same pass, with neither a decoded copy nor the target listed.

The code module's cell guard bounds the support array at q**m rows x
(k+n) digits <= 2**24 cells, and any dense reduced block at 2**24
entries; larger parameters belong to the exact oracle in the entropy
module.  Since k + n = 2m, the support guard also keeps every key below
q**(2m) < 2**63, so no key can overflow int64; a StateVector built by
hand is refused unless q**registers keys fit.  That refusal bounds
decodable states at q <= 55103 (q**4 < 2**63), far inside decoding's
float64 bound.
"""

from __future__ import annotations

import numpy as np

from .code import QuantumMdsCode, _check_cells, _check_index_set, _decoding_step, subset_layout
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
# most bytes of one float64 block of _decode_rows (m x rows x 8): decoding
# steps a larger state in row chunks of this size
DECODE_BYTES = 1 << 22


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
    its inputs, refusing non-finite amplitudes; ``decode`` builds its
    result without it, sharing the input state's amplitudes.
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
        if not _distinct(_horner(rows.T, np.arange(num_registers), q)):
            raise ValueError("support rows must be distinct")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not np.isfinite(norm) or abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")
        # copied last, so no check's temporaries meet both copies of the digits
        rows = rows.astype(np.min_scalar_type(q - 1))
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


def _check_trace(trace) -> None:
    """Refuse a trace more than TRACE_TOL from 1."""
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"trace must be 1: got {complex(trace)}")


def _row_space(q: int, g: np.ndarray, num_ref: int) -> StateVector:
    """The uniform superposition over x . g, x in GF(q)^m big-endian, by Horner's rule on x."""
    m, total = g.shape
    _check_cells(f"state vector support of {q}^{m} rows", q**m, total, statevec=True)
    digit = np.min_scalar_type(q - 1)
    rows = np.zeros((1, total), dtype=digit)
    for row in g:
        multiples = (np.arange(q)[:, None] * row % q).astype(digit)
        sums = np.add(rows[:, None], multiples, dtype=np.min_scalar_type(2 * q - 2))
        # a sum of two residues is below 2q - 1, so one subtraction of q reduces it
        sums -= (sums >= q) * sums.dtype.type(q)
        rows = sums.reshape(-1, total).astype(digit, copy=False)
    # one amplitude broadcast over the rows; StateVector copies it once
    amps = np.broadcast_to(np.complex128(q ** (-m / 2)), (q**m,))
    return StateVector(q, total, rows, amps, num_ref=num_ref)


def encode_state(code: QuantumMdsCode) -> StateVector:
    """The joint pure state of the reference block and coded qudits.

    A uniform superposition with amplitude q**(-(k+d-1)/2) on the basis
    state x . G for each row vector x in GF(q)^(k+d-1): the reference block
    carries the message part of x and the coded registers carry the
    codeword.
    """
    return _row_space(code.params.q, code.G, code.params.k)


def _reduce(psi: StateVector, positions: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The reduced state of ``positions`` on the kept keys the state reaches.

    Returns those keys, ascending, and rho restricted to them.  When every
    environment key meets one support row, no two kept keys share an
    environment and rho is diagonal: it is returned as its diagonal,
    sum |amp|^2 per kept key, zeros included.  Otherwise rho = M M^dag
    with M[kept, env] the amplitudes, returned as a square block and
    refused past the 2**24-entry guard before either matrix is allocated.
    Both bin over the reached keys, never over all q^s kept values, and
    have their trace checked.
    """
    rest = [p for p in range(psi.num_registers) if p not in positions]
    # a batch of one, in the entropy table's (B, s) layout
    kept = _horner(psi.digits.T, np.array([positions]), psi.q)[0]
    env = _horner(psi.digits.T, np.array([rest]), psi.q)[0]
    reached, row_kept = np.unique(kept, return_inverse=True)
    if _distinct(env.copy()):
        rho = np.bincount(row_kept, np.abs(psi.amplitudes) ** 2, reached.size)
    else:
        envs, row_env = np.unique(env, return_inverse=True)
        _check_cells(f"reduced state on {reached.size} kept x {envs.size} environment keys",
                     reached.size, max(reached.size, envs.size), statevec=True)
        matrix = np.zeros((reached.size, envs.size), dtype=np.complex128)
        matrix[row_kept, row_env] = psi.amplitudes
        rho = matrix @ matrix.conj().T
    _check_trace(rho.sum() if rho.ndim == 1 else np.trace(rho))
    return reached, rho


def partial_trace(psi: StateVector, keep: SubsystemSpec) -> np.ndarray:
    """Reduced density matrix of the kept subsystem over its full basis.

    rho[i, j] = sum_e psi[i, e] conj(psi[j, e]) over environment
    configurations e, as a dense, read-only q**|keep| square complex array
    indexed by the kept registers' big-endian value: _reduce's result, its
    trace checked, with zero rows and columns for the kept values the
    support never reaches.  The kept set must be nonempty and proper:
    the entropy of an empty or full one is 0 by purity.
    """
    positions = keep.registers(psi.num_ref, psi.num_registers - psi.num_ref)
    if len(positions) == 0:
        raise ValueError("keep set is empty; its entropy is 0 by convention")
    if len(positions) == psi.num_registers:
        raise ValueError("keep set is the full system; its entropy is 0 (pure state)")
    dim = psi.q ** len(positions)
    _check_cells(f"reduced state on {dim} kept values", dim, dim, statevec=True)
    reached, rho = _reduce(psi, positions)
    full = np.zeros((dim, dim), dtype=np.complex128)
    if rho.ndim == 1:
        full[reached, reached] = rho
    else:
        full[np.ix_(reached, reached)] = rho
    full.flags.writeable = False
    return full


def _clamp(values: np.ndarray) -> np.ndarray:
    """``values``, with eigenvalues within 1e-10 of 0 or 1 moved onto the boundary in place."""
    values[(values < 0.0) & (values >= -EIGENVALUE_CLAMP)] = 0.0
    values[(values > 1.0) & (values <= 1.0 + EIGENVALUE_CLAMP)] = 1.0
    return values


def hermitian_eigenvalues(rho) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix.

    Takes a square array and refuses one not Hermitian within 1e-12.  A
    matrix whose off-diagonal Frobenius norm is below 1e-12 is read off its
    diagonal; any other goes to numpy's Hermitian solver.  Eigenvalues
    within 1e-10 of 0 or 1 are clamped onto the boundary.  Returned sorted
    in descending order.
    """
    a = np.asarray(rho, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and float(np.max(np.abs(a - a.conj().T))) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")

    if float(np.linalg.norm(a - np.diag(np.diag(a)))) < OFF_NORM_TOL:
        values = np.real(np.diag(a)).copy()
    else:
        values = np.linalg.eigvalsh(a)
    return np.sort(_clamp(values))[::-1]


def von_neumann_entropy(psi: StateVector, sub: SubsystemSpec) -> float:
    """Von Neumann entropy of a subsystem in q-ary units.

    Empty and full subsystems return 0 (the state is pure).  Otherwise the
    smaller side (both share their nonzero spectrum) is reduced on the
    per-mask path, the entropy table's fallback.  With distinct environment
    keys, as on a valid code, rho is diagonal and is its spectrum; any
    other goes to hermitian_eigenvalues.  A diagonal whose nonzero entries
    are all equal has entropy log_q of their count, as in the table's
    batch; any other gives -sum(lam log_q lam) over its nonzero entries.
    """
    positions = sub.registers(psi.num_ref, psi.num_registers - psi.num_ref)
    if 2 * len(positions) > psi.num_registers:
        positions = [p for p in range(psi.num_registers) if p not in positions]
    if not positions:
        return 0.0
    return _entropy(psi, positions)


def entropy_table(psi: StateVector) -> np.ndarray:
    """Entropies of all 2^(n+1) R-atomic subsystems, indexed R * 2^n + Q-bitmask.

    The twin of ``entropy.entropy_table``, with R the reference block.  A
    subsystem no larger than its complement is reduced; a larger one takes
    its complement's entry.  On a state with one weight per row, all
    subsystems of one register count are counted in one batch, and one of
    s registers reads s when its diagonal is flat and its complement holds
    a counted subset with one row per bin: the support is injective on it,
    hence on the complement, so rho is that diagonal.  Any other takes the
    per-mask path.
    """
    k, total = psi.num_ref, psi.num_registers
    if k == 0:
        raise ValueError("state has no reference block, so R-atomic subsystems are undefined")
    q, rows = psi.q, len(psi.amplitudes)
    layout = subset_layout(k, total - k)
    full = layout.full
    groups, kept = zip(*map(layout.of_size, range(1, total // 2 + 1)))
    table = np.zeros(full + 1)
    flat = np.zeros(full + 1, dtype=bool)
    injective = np.zeros(full + 1, dtype=bool)
    # one weight per row: the batch counts rows, and the trace is N w
    if np.ptp(np.abs(psi.amplitudes) ** 2) == 0:
        _check_trace(rows * abs(psi.amplitudes[0]) ** 2)
        # one register per row: keys gather whole registers, which a strided
        # view of the row-major digits makes about 1.5 times as slow
        registers = np.ascontiguousarray(psi.digits.T)
        per_chunk = max(1, KEY_BUDGET // (8 * rows))
        for masks, positions in zip(groups, kept):
            # a diagonal over fewer rows than q^s kept keys cannot reach them all
            if q ** positions.shape[1] > rows:
                continue
            for start in range(0, len(masks), per_chunk):
                chunk = slice(start, start + per_chunk)
                flat[masks[chunk]], injective[masks[chunk]] = _diagonal_counts(
                    q, registers, positions[chunk]
                )
    # a register set holding an injective one is injective
    for bit in range(total - k + 1):
        halves = injective.reshape(-1, 2, 1 << bit)
        halves[:, 1] |= halves[:, 0]
    for size, (masks, positions) in enumerate(zip(groups, kept), start=1):
        # masks run 0..full, so the complement full ^ mask is full - mask
        certified = flat[masks] & injective[full - masks]
        table[masks[certified]] = size
        for i in np.flatnonzero(~certified):
            table[masks[i]] = _entropy(psi, positions[i].tolist())
        if 2 * size < total:
            table[full - masks] = table[masks]
    return table


def _diagonal_counts(q: int, registers: np.ndarray,
                     kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each of one chunk's subsets has a flat diagonal, and whether it is injective.

    Row i of ``kept`` holds s ascending register positions, binned at
    i * q^s + kept key, and each bin counts rows; each diagonal must count
    all N.  A diagonal is flat with one count in every bin, and injective
    with no bin above 1.
    """
    width, rows = q ** kept.shape[1], registers.shape[1]
    bins = len(kept) * width
    keys = _horner(registers, kept, q)
    keys += np.arange(0, bins, width)[:, None]
    # a key past its row's bins lands in the next row's or is dropped, so
    # some row counts fewer than N
    diagonals = np.bincount(keys.ravel(), None, bins)[:bins].reshape(len(kept), width)
    del keys
    counts = diagonals.sum(axis=1)
    if np.any(counts != rows):
        raise ValueError(f"a diagonal must count all {rows} rows: got {counts.min()}")
    high = diagonals.max(axis=1)
    return diagonals.min(axis=1) == high, high == 1


def _flat_entropy(bins: int, q: int) -> float:
    """log_q(bins), a flat diagonal's entropy over ``bins`` keys, exact on powers of q."""
    power = np.log(bins) / np.log(q)
    return float(round(power) if q ** round(power) == bins else power)


def _entropy(psi: StateVector, positions: list[int]) -> float:
    """Per-mask entropy of the registers at ``positions``, ascending, 0 < size <= half."""
    _, rho = _reduce(psi, positions)
    values = _clamp(rho) if rho.ndim == 1 else hermitian_eigenvalues(rho)
    if np.any(values < -EIGENVALUE_CLAMP):
        raise ValueError(f"reduced state has eigenvalue {float(values.min())} below -1e-10")
    values = values[values > 0.0]
    # a flat diagonal reads log_q of its count, as the table's batch reads s
    if rho.ndim == 1 and values.min() == values.max():
        return _flat_entropy(values.size, psi.q)
    # -sum(lam log_q lam), in the spectrum's order
    terms = np.log(values)
    terms /= np.log(psi.q)
    terms *= values
    return float(-terms.sum())


def _step(code: QuantumMdsCode, survivors, partners, mask: int) -> np.ndarray:
    """code._decoding_step of _target_pairs' columns, float64, transposed.

    Raises:
        ValueError: if m (q-1)^2 >= 2^53, where _decode_rows' sums could round.
    """
    q, m = code.params.q, code.params.generator_rank
    if m * (q - 1) ** 2 >= 1 << 53:
        raise ValueError(f"decoding sums reach m(q-1)^2 = {m * (q - 1) ** 2}, beyond the 2^53 "
                         "that float64 holds exactly")
    return np.array(_decoding_step(code, survivors, partners, mask), dtype=np.float64).T


def _decode_rows(step: np.ndarray, q: int, values: np.ndarray) -> np.ndarray:
    """``step`` (from _step) times register-major ``values``, mod q, in float64.

    Every sum is an integer below m (q-1)^2 < 2^53, so the product is exact
    in any summation order, and floor(s / q) of a correctly rounded quotient
    is the exact s // q, so s - q floor(s / q) is the exact residue.  Both
    blocks share one buffer, as a second fresh one faults in every chunk.
    """
    floats, sums = np.empty((2, *values.shape))
    floats[...] = values
    np.matmul(step, floats, out=sums)
    quotients = np.divide(sums, q, out=floats)
    np.floor(quotients, out=quotients)
    quotients *= q
    sums -= quotients
    return sums


def _target_pairs(psi: StateVector | None, code: QuantumMdsCode, surviving) -> tuple:
    """(surviving positions, partner positions, Q-bitmask of the surviving indices).

    The decoding target pairs the j-th surviving register with the j-th of
    the complement's, R's then the erased ones, ascending, so every register
    is covered once; ``code.subset_layout`` places both.  psi's shape is
    checked too, unless psi is None.
    """
    p, k = code.params, code.params.k
    idx = _check_index_set(p.n, surviving, "surviving", "n-(d-1)", p.n - (p.d - 1))
    if psi is not None and (psi.q, psi.num_registers, psi.num_ref) != (p.q, p.num_registers, k):
        raise ValueError(
            f"state does not match the code's joint state: shapes (q, registers, reference) "
            f"{(psi.q, psi.num_registers, psi.num_ref)} and {(p.q, p.num_registers, k)}"
        )
    layout, mask = subset_layout(k, p.n), sum(1 << (i - 1) for i in idx)
    return layout.positions(mask), layout.positions(layout.full - mask), mask


def decode(psi: StateVector, code: QuantumMdsCode, surviving) -> StateVector:
    """Erasure decoding on the surviving registers of the encoded state.

    Maps the surviving coded registers of every support row by _step, in
    chunks of rows whose float64 block is at most DECODE_BYTES; the other
    registers and the amplitudes are untouched, so the norm is preserved
    exactly, and the output matches decode_target with fidelity 1.  The
    result skips StateVector's validation, as each invariant holds by
    construction: the step is invertible (code._decoding_step checks both
    blocks), so it permutes GF(q)^m and rows stay distinct; mod q puts
    every digit in [0, q), in psi's dtype; and the amplitudes are psi's
    read-only array.
    """
    p = code.params
    survivors, partners, mask = _target_pairs(psi, code, surviving)
    step = _step(code, survivors, partners, mask)
    digits = psi.digits.copy()
    rows = max(1, DECODE_BYTES // (8 * p.generator_rank))
    for start in range(0, len(digits), rows):
        chunk = slice(start, start + rows)
        digits[chunk, survivors] = _decode_rows(step, p.q, digits[chunk, survivors].T).T
    digits.flags.writeable = False
    out = StateVector.__new__(StateVector)
    out.q, out.num_registers, out.num_ref = p.q, p.num_registers, p.k
    out.digits, out.amplitudes = digits, psi.amplitudes
    return out


def decode_target(code: QuantumMdsCode, surviving) -> StateVector:
    """The explicit post-decoding state for a surviving set.

    The reference block is maximally entangled with the first k surviving
    registers, and the last d-1 surviving registers are maximally
    entangled with the erased registers, all in canonical register order.
    """
    p = code.params
    survivors, partners, _ = _target_pairs(None, code, surviving)
    # row (a, b) holds message a then seed b, big-endian as the encoder lists them
    layout = np.zeros((p.generator_rank, p.num_registers), dtype=np.int64)
    layout[range(len(survivors)), survivors] = 1
    layout[range(len(partners)), partners] = 1
    return _row_space(p.q, layout, p.k)


def decoded_fidelity(psi: StateVector, code: QuantumMdsCode, surviving) -> float:
    """fidelity(decode(psi, code, surviving), decode_target(code, surviving)), in one pass.

    The target's support is the rows on which every pair agrees, each with
    amplitude q^(-m/2), so the overlap is q^(-m/2) times their amplitude sum.
    One pass over decode's row chunks, each copied register-major, decodes
    each surviving register and compares it with its partner: decoding
    moves no amplitude, so no decoded copy is built and no target listed.
    When every row agrees, the amplitudes are summed in place, as the
    masked copy would hold them.
    """
    p = code.params
    survivors, partners, mask = _target_pairs(psi, code, surviving)
    step = _step(code, survivors, partners, mask)
    agree = np.empty(len(psi.amplitudes), dtype=bool)
    rows = max(1, DECODE_BYTES // (8 * p.generator_rank))
    for start in range(0, len(agree), rows):
        registers = np.ascontiguousarray(psi.digits[start : start + rows].T)
        values = _decode_rows(step, p.q, registers[survivors])
        np.logical_and.reduce(values == registers[partners], out=agree[start : start + rows])
    amplitudes = psi.amplitudes if agree.all() else psi.amplitudes[agree]
    overlap = amplitudes.sum() * p.q ** (-p.generator_rank / 2)
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
