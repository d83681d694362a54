#!/usr/bin/env python3
"""The subsystem-entropy pyramid of a quantum MDS code.

Every subsystem of the joint reference-plus-coded state has entropy
min(size, k+n-size) q-ary units: it rises one unit per qudit up to
k+d-1, then falls back to zero at the pure full state.  The profile
below is one table of every subsystem's entropy, each computed exactly as
a subspace-intersection dimension, and is compared with the formula.
"""

from qmds import CodeParams, QuantumMdsCode, full_profile

for n, k, d, q in ((3, 1, 2, 3), (4, 2, 2, 5), (5, 1, 3, 5)):
    code = QuantumMdsCode(CodeParams(n=n, k=k, d=d, q=q))
    profile = full_profile(code)
    print(f"[[{n},{k},{d}]]_{q}: {profile.table.size} subsystems, "
          f"all match = {profile.all_match}")
    for size, entropy in profile.csv_rows():
        print(f"    size {size}: H = {entropy}  " + "#" * entropy)
    print()

# k = 1 makes every component a single qudit, so the joint state is
# absolutely maximally entangled: all bipartitions are maximally mixed
code = QuantumMdsCode(CodeParams(n=5, k=1, d=3, q=5))
profile = full_profile(code)
half = (code.params.num_registers) // 2
sizes = profile.sizes()          # qudit count of each table entry
small = sizes <= half
mixed = (profile.table[small] == sizes[small]).all()
print(f"[[5,1,3]]_5: {small.sum()} subsystems of size <= {half}, "
      f"all maximally mixed: {mixed}")
