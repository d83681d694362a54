"""Brute-force state-vector oracle and erasure decoding.

Everything the exact rank-identity oracle claims is re-derived here the
hard way: build the dense joint state, reduce it by partial trace, and
diagonalize the reduced density matrix (read off its diagonal when it is
already diagonal, else numpy's Hermitian eigensolver) to get Von Neumann
entropies in q-ary units.  The two entropy paths share no machinery beyond
the generator matrix itself.

Conventions: a state of r registers with local dimension q is a dense
complex vector of length q**r; basis index i encodes the register values
big-endian in canonical order, reference qudits first, then Q1..Qn.  The
decoding unitaries are all induced by invertible linear maps over GF(q),
so they act as permutations of the computational basis and are applied as
index permutations, exactly.

A memory guard rejects states beyond 2**24 amplitudes; larger parameters
belong to the exact oracle in the entropy module.
"""

from __future__ import annotations

import numpy as np

from .code import QuantumMdsCode, erasure_submatrices, _check_surviving
from .entropy import SubsystemSpec
from .linalg import invert

MAX_AMPLITUDES = 1 << 24
NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
OFF_NORM_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-10


class StateVector:
    """Dense pure state over q-ary registers.

    The first ``num_ref`` registers form the reference block (so subsystem
    specs with include_R resolve to them); the rest are the coded qudits
    Q1..Qn.  Amplitudes are complex double precision, normalized within
    1e-12, and read-only after construction.
    """

    __slots__ = ("q", "num_registers", "num_ref", "amplitudes")

    def __init__(self, q: int, num_registers: int, amplitudes, num_ref: int = 0):
        if q < 2:
            raise ValueError(f"local dimension must be >= 2: got {q}")
        if not 0 <= num_ref <= num_registers:
            raise ValueError("reference block cannot exceed the register count")
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.shape[0] != q**num_registers:
            raise ValueError(
                f"expected {q**num_registers} amplitudes, got {amps.shape[0]}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")
        amps.flags.writeable = False
        self.q = q
        self.num_registers = num_registers
        self.num_ref = num_ref
        self.amplitudes = amps

    def tensor(self) -> np.ndarray:
        """The amplitudes reshaped to one axis per register."""
        return self.amplitudes.reshape((self.q,) * self.num_registers)

    def __repr__(self) -> str:
        return (
            f"StateVector(q={self.q}, registers={self.num_registers}, "
            f"ref={self.num_ref}, nonzero={int(np.count_nonzero(self.amplitudes))})"
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
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1: got {trace}")
        mat.flags.writeable = False
        self.entries = mat


def _guard_size(q: int, registers: int) -> None:
    if q**registers > MAX_AMPLITUDES:
        raise ValueError(
            f"state vector would need q^registers = {q}^{registers} amplitudes, "
            f"beyond the {MAX_AMPLITUDES} guard; use the exact rank-identity "
            "oracle (entropy module) for these parameters"
        )


def _all_vectors(q: int, length: int) -> np.ndarray:
    """All of GF(q)^length as rows; row index equals the big-endian value."""
    if length == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((q,) * length, dtype=np.int64).reshape(length, -1).T


def _radix_powers(q: int, length: int) -> np.ndarray:
    return q ** np.arange(length - 1, -1, -1, dtype=np.int64)


def encode_state(code: QuantumMdsCode) -> StateVector:
    """The joint pure state of the reference block and coded qudits.

    A uniform superposition with amplitude q**(-(k+d-1)/2) on the basis
    state x . G for each row vector x in GF(q)^(k+d-1), zero elsewhere:
    the reference block carries the message part of x and the coded
    registers carry the codeword.
    """
    p = code.params
    q, total, m = p.q, p.num_registers, p.generator_rank
    _guard_size(q, total)
    rows = _all_vectors(q, m)
    images = rows @ code.G % q
    indices = images @ _radix_powers(q, total)
    amps = np.zeros(q**total, dtype=np.complex128)
    amps[indices] = q ** (-m / 2)
    return StateVector(q, total, amps, num_ref=p.k)


def _positions_of(psi: StateVector, sub: SubsystemSpec) -> tuple[int, ...]:
    if sub.include_R and psi.num_ref == 0:
        raise ValueError("state has no reference block but include_R was requested")
    positions = list(range(psi.num_ref)) if sub.include_R else []
    for i in sorted(sub.q_indices):
        pos = psi.num_ref + i - 1
        if pos >= psi.num_registers:
            raise ValueError(
                f"coded qudit Q{i} out of range for {psi.num_registers} registers"
            )
        positions.append(pos)
    return tuple(positions)


def _reduce_to_positions(psi: StateVector, positions) -> DensityMatrix:
    keep = sorted(positions)
    rest = [p for p in range(psi.num_registers) if p not in keep]
    matrix = psi.tensor().transpose(keep + rest).reshape(
        psi.q ** len(keep), psi.q ** len(rest)
    )
    return DensityMatrix(matrix @ matrix.conj().T)


def partial_trace(psi: StateVector, keep: SubsystemSpec) -> DensityMatrix:
    """Reduced density matrix of the kept subsystem.

    rho[i, j] = sum_e psi[i, e] conj(psi[j, e]) over environment
    configurations e.  The kept set must be nonempty and proper; empty and
    full bipartitions have entropy zero by purity and are short-circuited
    by the entropy function instead.
    """
    positions = _positions_of(psi, keep)
    if len(positions) == 0:
        raise ValueError("keep set is empty; its entropy is 0 by convention")
    if len(positions) == psi.num_registers:
        raise ValueError("keep set is the full system; its entropy is 0 (pure state)")
    return _reduce_to_positions(psi, positions)


def hermitian_eigenvalues(rho) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix.

    Accepts a DensityMatrix or a plain Hermitian ndarray.  A matrix whose
    off-diagonal Frobenius norm is below 1e-12 is read off its diagonal
    (the smaller side of a valid code's bipartition is maximally mixed, so
    every state von_neumann_entropy reduces to is diagonal); any other goes
    to numpy's Hermitian solver.  Eigenvalues within 1e-10 of 0 or 1 are
    clamped onto the boundary.  Returned sorted in descending order.
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
    near_zero = (values < 0.0) & (values >= -EIGENVALUE_CLAMP)
    values[near_zero] = 0.0
    near_one = (values > 1.0) & (values <= 1.0 + EIGENVALUE_CLAMP)
    values[near_one] = 1.0
    return np.sort(values)[::-1]


def von_neumann_entropy(psi: StateVector, sub: SubsystemSpec) -> float:
    """Von Neumann entropy of a subsystem in q-ary units.

    Empty and full subsystems return 0 (the state is pure).  Otherwise the
    reduced state of the smaller side of the bipartition is diagonalized
    (a state vector's two reduced states share their nonzero spectrum) and
    the entropy is -sum(lam * log_q lam) with 0 log 0 = 0.
    """
    positions = list(_positions_of(psi, sub))
    total = psi.num_registers
    if len(positions) in (0, total):
        return 0.0
    if len(positions) > total - len(positions):
        positions = [p for p in range(total) if p not in positions]
    rho = _reduce_to_positions(psi, positions)
    values = hermitian_eigenvalues(rho)
    if np.any(values < -EIGENVALUE_CLAMP):
        raise ValueError(
            f"reduced state has eigenvalue {float(values.min())} below -1e-10"
        )
    positive = values[values > 0.0]
    return float(-(positive * (np.log(positive) / np.log(psi.q))).sum())


def _block_permutation(code: QuantumMdsCode, surviving: list[int]) -> np.ndarray:
    """Basis permutation on the surviving block implementing both decode steps.

    Step one relabels the block value y to y . (AB_surviving)^-1, exposing
    the generator row (a, b); step two maps (a, b) to (a, (a, b) AB_erased),
    which is invertible because the erased seed block is square Vandermonde.
    """
    p = code.params
    q, k, m = p.q, p.k, p.generator_rank
    ab_s, ab_e = erasure_submatrices(code, surviving)
    unscramble = invert(ab_s, q)
    ys = _all_vectors(q, m)
    xs = ys @ unscramble % q
    reencoded = xs @ ab_e % q
    targets = np.hstack((xs[:, :k], reencoded))
    return targets @ _radix_powers(q, m)


def _permute_block(psi: StateVector, positions: list[int], perm: np.ndarray) -> StateVector:
    """Apply a basis permutation to the joint value of the given registers."""
    q, total = psi.q, psi.num_registers
    rest = [p for p in range(total) if p not in positions]
    block = psi.tensor().transpose(rest + positions).reshape(-1, len(perm))
    permuted = np.empty_like(block)
    permuted[:, perm] = block
    restored = permuted.reshape((q,) * total).transpose(
        np.argsort(rest + positions)
    )
    return StateVector(q, total, restored.reshape(-1), num_ref=psi.num_ref)


def decode(psi: StateVector, code: QuantumMdsCode, surviving) -> StateVector:
    """Erasure decoding on the surviving registers of the encoded state.

    Applies the two basis permutations of _block_permutation to the
    surviving coded registers only; the reference block and the erased
    registers are untouched.  Norm is preserved exactly (permutations are
    unitary), and the output matches decode_target with fidelity 1.
    """
    p = code.params
    idx = _check_surviving(code, surviving)
    if psi.q != p.q or psi.num_registers != p.num_registers or psi.num_ref != p.k:
        raise ValueError("state shape does not match the code's joint state")
    positions = [p.k + i - 1 for i in idx]
    return _permute_block(psi, positions, _block_permutation(code, idx))


def decode_target(code: QuantumMdsCode, surviving) -> StateVector:
    """The explicit post-decoding state for a surviving set.

    The reference block is maximally entangled with the first k surviving
    registers, and the last d-1 surviving registers are maximally
    entangled with the erased registers, all in canonical register order.
    """
    p = code.params
    q, k, d, total, m = p.q, p.k, p.d, p.num_registers, p.generator_rank
    idx = _check_surviving(code, surviving)
    _guard_size(q, total)
    erased = [i for i in range(1, p.n + 1) if i not in idx]

    messages = np.repeat(_all_vectors(q, k), q ** (d - 1), axis=0)
    seeds = np.tile(_all_vectors(q, d - 1), (q**k, 1))
    digits = np.zeros((q**m, total), dtype=np.int64)
    digits[:, :k] = messages
    for col, i in enumerate(idx[:k]):
        digits[:, k + i - 1] = messages[:, col]
    for col, i in enumerate(idx[k:]):
        digits[:, k + i - 1] = seeds[:, col]
    for col, i in enumerate(erased):
        digits[:, k + i - 1] = seeds[:, col]

    amps = np.zeros(q**total, dtype=np.complex128)
    amps[digits @ _radix_powers(q, total)] = q ** (-m / 2)
    return StateVector(q, total, amps, num_ref=k)


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2 between two states of identical shape."""
    if psi.q != phi.q or psi.num_registers != phi.num_registers:
        raise ValueError("states have different shapes")
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)
