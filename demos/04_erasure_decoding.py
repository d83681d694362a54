#!/usr/bin/env python3
"""Erasure decoding as exact basis permutations.

Both decoding steps are induced by invertible linear maps over GF(q), so
on the state vector they are permutations of computational basis states:
first unscramble the surviving block back to the message-plus-seed row
vector, then re-entangle the seed with the erased registers.  The result
must hit the explicit target state with fidelity 1.
"""

import itertools

from qmds import (
    CodeParams,
    QuantumMdsCode,
    decode,
    decode_target,
    encode_state,
    fidelity,
)

code = QuantumMdsCode(CodeParams(n=5, k=1, d=3, q=5))
psi = encode_state(code)
n, d = code.params.n, code.params.d

print(f"[[5,1,3]]_5: any {d - 1} of the {n} coded qudits may be erased\n")
for erased in itertools.combinations(range(1, n + 1), d - 1):
    surviving = [i for i in range(1, n + 1) if i not in erased]
    recovered = decode(psi, code, surviving)
    value = fidelity(recovered, decode_target(code, surviving))
    print(f"erased {list(erased)}: fidelity {value:.15f}")

# peek at one recovered state: the reference qudit is now perfectly
# correlated with the first surviving register
surviving = [1, 3, 5]
recovered = decode(psi, code, surviving)
support = sorted(map(tuple, recovered.digits.tolist()))
print(f"\nsupport of the decoded state for surviving {surviving} "
      "(registers R Q1..Q5):")
for digits in support[:8]:
    print("   |" + "".join(map(str, digits)) + ">")
print(f"   ... {len(support)} basis states, "
      f"R always equals Q{surviving[0]}: "
      f"{all(row[0] == row[surviving[0]] for row in support)}")
