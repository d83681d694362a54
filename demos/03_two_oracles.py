#!/usr/bin/env python3
"""Two independent entropy oracles, one exact and one numerical.

The rank-identity oracle never leaves integer arithmetic: the entropy of
a bipartition of a uniform-superposition code state is the dimension of
the intersection of the two column spans of the generator.  The
state-vector oracle knows nothing about that identity; it lists the
state's support, partial-traces, and diagonalizes the reduced states.  They
must agree to float precision on every subsystem.
"""

import itertools

from qmds import (
    CodeParams,
    QuantumMdsCode,
    SubsystemSpec,
    encode_state,
    subsystem_entropy,
    von_neumann_entropy,
)

code = QuantumMdsCode(CodeParams(n=4, k=2, d=2, q=5))
psi = encode_state(code)
print(f"state vector: {psi.q ** psi.num_registers} basis states, "
      f"{len(psi.amplitudes)} in the support\n")

print(f"{'subsystem':24} {'rank oracle':>12} {'state vector':>14} {'delta':>10}")
worst = 0.0
for include_r in (False, True):
    for size in range(5):
        for combo in itertools.combinations(range(1, 5), size):
            spec = SubsystemSpec(include_r, combo)
            exact = subsystem_entropy(code, spec)
            numeric = von_neumann_entropy(psi, spec)
            delta = abs(numeric - exact)
            worst = max(worst, delta)
            label = ",".join(spec.labels()) or "(empty)"
            print(f"{label:24} {exact:>12} {numeric:>14.9f} {delta:>10.2e}")
print(f"\nlargest disagreement: {worst:.3e}")
