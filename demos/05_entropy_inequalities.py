#!/usr/bin/env python3
"""Why the pyramid is forced: the entropic machinery behind it.

Perfect recovery from any n-(d-1) coded qudits pins the mutual
information between the reference block and every surviving set at 2k,
which in turn forces zero leakage to every erasable set and product-state
structure among small groups of coded qudits.  The suites below check all
of it exactly on the computed profile, plus the four standard quantum
entropy inequalities over every three-way split of the atomic parts.
"""

from qmds import (
    CodeParams,
    QuantumMdsCode,
    check_decoding_condition,
    check_entropy_inequalities,
    full_profile,
    product_state_checks,
)

code = QuantumMdsCode(CodeParams(n=5, k=1, d=3, q=5))
profile = full_profile(code)

# the decoding block counts its checks and lists only failing ones
for check in (check_decoding_condition(profile), product_state_checks(profile),
              check_entropy_inequalities(profile)):
    for line in check.lines():
        print(line)
    print()
