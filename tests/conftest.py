import numpy as np
import pytest

from qmds import CodeParams, QuantumMdsCode

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
