"""Vandermonde [[n, k, d]]_q quantum MDS codes over prime fields.

GF(q) matrices are plain int64 residue arrays with q passed alongside.
Exact subsystem entropies come from one table of GF(q) ranks per code (the
rank identity H(S) = rank(G_S) + rank(G_S^c) - m); a brute-force
state-vector oracle re-derives them with partial traces and numpy's
Hermitian eigensolver.  Also: erasure decoding by basis permutations, and
verification suites for the size-pyramid entropy characterization.
"""

from .gf import is_prime
from .linalg import SingularMatrixError, rank, subset_ranks
from .code import (
    CodeParams,
    QuantumMdsCode,
    from_descriptor,
    smallest_prime_at_least,
    to_descriptor,
    validate,
)
from .entropy import (
    EntropyProfile,
    SubsystemSpec,
    check_decoding_condition,
    check_entropy_inequalities,
    entropy_table,
    expected_subsystem_entropy,
    extended_profile,
    full_profile,
    product_state_checks,
    subsystem_entropy,
)
from .sim import (
    StateVector,
    decode,
    decode_target,
    decoded_fidelity,
    encode_state,
    fidelity,
    hermitian_eigenvalues,
    partial_trace,
    von_neumann_entropy,
)
from .reporting import Check

__version__ = "0.1.0"

__all__ = [
    "is_prime",
    "SingularMatrixError",
    "rank",
    "subset_ranks",
    "CodeParams",
    "QuantumMdsCode",
    "validate",
    "to_descriptor",
    "from_descriptor",
    "smallest_prime_at_least",
    "SubsystemSpec",
    "EntropyProfile",
    "subsystem_entropy",
    "expected_subsystem_entropy",
    "entropy_table",
    "full_profile",
    "extended_profile",
    "check_decoding_condition",
    "check_entropy_inequalities",
    "product_state_checks",
    "StateVector",
    "encode_state",
    "partial_trace",
    "hermitian_eigenvalues",
    "von_neumann_entropy",
    "decode",
    "decode_target",
    "decoded_fidelity",
    "fidelity",
    "Check",
]
