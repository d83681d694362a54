import types

import numpy as np
import pytest

from qmds import CodeParams, QuantumMdsCode, SubsystemSpec
from qmds.code import group_indices

# the three desk-scale reference codes exercised throughout
REFERENCE_PARAMS = [(3, 1, 2, 3), (4, 2, 2, 5), (5, 1, 3, 5)]

# every valid (n, k, d, q) with k + n <= 8 and q <= 7: the exhaustive
# domain for the entropy-characterization property tests
DESK_PARAMS = [
    (3, 1, 2, 3),
    (3, 1, 2, 5),
    (3, 1, 2, 7),
    (4, 2, 2, 5),
    (4, 2, 2, 7),
    (5, 1, 3, 5),
    (5, 1, 3, 7),
    (5, 3, 2, 5),
    (5, 3, 2, 7),
    (6, 2, 3, 7),
    (7, 1, 4, 7),
]


def make_code(n, k, d, q, alphas=None):
    return QuantumMdsCode(CodeParams(n=n, k=k, d=d, q=q), alphas)


def erasure_blocks(code, surviving):
    """(AB_surviving, AB_erased): the columns of AB at the 1-based surviving
    indices and at the rest, each ascending, sliced from AB alone."""
    columns = [i - 1 for i in sorted(surviving)]
    rest = [c for c in range(code.params.n) if c not in columns]
    return code.AB[:, columns], code.AB[:, rest]


def inverse_mod(matrix, q: int) -> np.ndarray:
    """The inverse of a square matrix over GF(q) by plain Gauss-Jordan elimination
    on [matrix | I], in Python ints; a singular matrix raises ValueError."""
    size = len(matrix)
    rows = [[int(x) % q for x in row] + [int(r == c) for c in range(size)]
            for r, row in enumerate(np.asarray(matrix).tolist())]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], -1, q)
        rows[col] = [x * scale % q for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % q for x, y in zip(rows[r], rows[col])]
    return np.array([row[size:] for row in rows], dtype=np.int64).reshape(size, size)


def step_one_only(code, survivors, partners, mask):
    """A stand-in for sim._step with only decoding's first step, (AB_surviving)^-1,
    transposed for register-major values: the state it leaves misses the target."""
    ab_s, _ = erasure_blocks(code, group_indices(mask))
    return inverse_mod(ab_s, code.params.q).T.astype(np.float64)


def spec_at(mask, n):
    """The R-atomic subsystem at a table index."""
    include_R, qmask = divmod(mask, 2**n)
    return SubsystemSpec(include_R, [i + 1 for i in range(n) if qmask >> i & 1])


def non_mds_control():
    """[[5,1,3]]_5 built on the points (0, 1, 2, 3, 3): a stand-in code.

    The repeated point repeats a column of AB, so the code is not MDS, but
    G = [E | AB] still has full row rank and its uniform superposition is a
    valid state that both oracles must describe.
    """
    params = CodeParams(n=5, k=1, d=3, q=5)
    alphas = (0, 1, 2, 3, 3)
    ab = np.array([[pow(a, 2 - r, 5) for a in alphas] for r in range(3)], dtype=np.int64)
    g = np.hstack((np.eye(3, 1, dtype=np.int64), ab))
    return types.SimpleNamespace(params=params, alphas=alphas, AB=ab, A=ab[:1], B=ab[1:], G=g)


@pytest.fixture(scope="session")
def reference_codes():
    return [make_code(*p) for p in REFERENCE_PARAMS]


@pytest.fixture(scope="session")
def desk_codes():
    return [make_code(*p) for p in DESK_PARAMS]


def span_vectors(matrix, q: int) -> set:
    """Brute-force column span over GF(q) of a residue array, as a set of tuples.

    Enumerates every coefficient vector; only usable for q**cols small.
    Independent of the elimination code under test.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    cols = matrix.shape[1]
    coeffs = np.indices((q,) * cols, dtype=np.int64).reshape(cols, q**cols)
    return set(map(tuple, (matrix @ coeffs % q).T.tolist()))


def brute_force_subspace_dim(size: int, q: int) -> int:
    """Invert |subspace| = q**dim, asserting the size is an exact power."""
    dim = 0
    while q**dim < size:
        dim += 1
    assert q**dim == size, f"set of size {size} is not a GF({q}) subspace"
    return dim


# Dense state-vector reference: the q**(k+n)-amplitude layout the support
# representation replaced, kept here to cross-check it.  Test-only; sized
# for codes with q**(k+n) <= 4 * 10**5.

def radix_keys(digits, q: int) -> np.ndarray:
    """Big-endian index of each row of register values."""
    digits = np.asarray(digits, dtype=np.int64)
    return digits @ q ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64)


def dense_amplitudes(psi) -> np.ndarray:
    """Scatter a support-stored state into its q**registers dense amplitudes."""
    dense = np.zeros(psi.q**psi.num_registers, dtype=np.complex128)
    dense[radix_keys(psi.digits, psi.q)] = psi.amplitudes
    return dense


def dense_partial_trace(psi, positions) -> np.ndarray:
    """Reduced state of the registers at ``positions``: transpose, then M @ M^dag."""
    keep = sorted(positions)
    rest = [p for p in range(psi.num_registers) if p not in keep]
    tensor = dense_amplitudes(psi).reshape((psi.q,) * psi.num_registers)
    matrix = tensor.transpose(keep + rest).reshape(psi.q ** len(keep), -1)
    return matrix @ matrix.conj().T


def dense_entropy(psi, positions) -> float:
    """Von Neumann entropy (base q) of the registers at ``positions``, via eigvalsh.

    The smaller side of the bipartition is traced; both share the spectrum.
    """
    if len(positions) in (0, psi.num_registers):
        return 0.0
    if 2 * len(positions) > psi.num_registers:
        positions = [p for p in range(psi.num_registers) if p not in positions]
    values = np.linalg.eigvalsh(dense_partial_trace(psi, positions))
    positive = values[values > 1e-15]
    return float(-(positive * np.log(positive)).sum() / np.log(psi.q))


def dense_decode(code, dense: np.ndarray, surviving) -> np.ndarray:
    """Erasure decoding as a permutation of the dense basis.

    The generator row x = (a, b) puts the value x . AB_surviving on the
    surviving block; decoding sends it to (a, x . AB_erased).  Listing
    both images for every x gives the permutation without inverting a
    matrix.
    """
    p = code.params
    q, k, m, total = p.q, p.k, p.generator_rank, p.num_registers
    surviving = sorted(surviving)
    erased = [i for i in range(1, p.n + 1) if i not in surviving]
    xs = np.indices((q,) * m, dtype=np.int64).reshape(m, -1).T
    before = radix_keys(xs @ code.AB[:, [i - 1 for i in surviving]] % q, q)
    after = radix_keys(
        np.hstack((xs[:, :k], xs @ code.AB[:, [i - 1 for i in erased]] % q)), q
    )
    positions = [k + i - 1 for i in surviving]
    rest = [r for r in range(total) if r not in positions]
    block = dense.reshape((q,) * total).transpose(rest + positions).reshape(-1, q**m)
    permuted = np.empty_like(block)
    permuted[:, after] = block[:, before]
    return (
        permuted.reshape((q,) * total)
        .transpose(np.argsort(rest + positions))
        .reshape(-1)
    )
