"""The prime moduli q of the fields GF(q).

A GF(q) matrix is a plain int64 residue array with ``q`` passed alongside;
this module only decides which q are admissible.
"""

from __future__ import annotations

import math


# Largest modulus plus one.  Below it a product of two residues is below
# 2^62, so the rank lattice (linalg.subset_ranks), which keeps every entry
# reduced mod q and subtracts one such product from another, never
# overflows int64; above it the updates could wrap and return wrong ranks
# without any error.  The Gauss-Jordan routines run on Python ints and
# need no bound; decoding's float64 pass has its own, far lower one
# (sim._step).
MAX_Q = 1 << 31


def check_modulus(q: int) -> None:
    """Reject a modulus that is not a prime below MAX_Q.

    The size bound is checked first: trial division stalls on large inputs.
    Extension fields GF(p^m), m > 1, are deliberately unsupported.
    """
    if q >= MAX_Q:
        raise ValueError(
            f"q must be below 2^31 so GF(q) products fit in int64: got q={q}"
        )
    if not is_prime(q):
        raise ValueError(f"q must be prime: got q={q}")


def is_prime(n: int) -> bool:
    """Trial-division primality check; fine for desk-scale moduli."""
    if n < 2:
        return False
    for i in range(2, math.isqrt(n) + 1):
        if n % i == 0:
            return False
    return True
