#!/usr/bin/env python3
"""Build Vandermonde [[n,k,d]]_q codes and inspect their generator blocks.

The encoder matrix stacks decreasing powers of n distinct evaluation
points over GF(q); picking q prime and >= n guarantees the points exist
and every maximal square submatrix is invertible, which is exactly what
erasure decoding needs.
"""

from qmds import CodeParams, QuantumMdsCode, to_descriptor, validate

# smallest interesting code: 1 source qudit, corrects any single erasure
code = QuantumMdsCode(CodeParams(n=3, k=1, d=2, q=3))
print("descriptor:", to_descriptor(code))
print("encoder AB (rows alpha^1, alpha^0):")
for row in code.AB.tolist():
    print("   ", row)
print("joint generator G = [E | AB] over R Q1 Q2 Q3:")
for row in code.G.tolist():
    print("   ", row)

# drop qudit 3: the surviving columns form an invertible square block
surviving_block, erased_block = code.AB[:, [0, 1]], code.AB[:, [2]]
print("\nsurviving columns {1,2}:", surviving_block.tolist())
print("erased column {3}:     ", erased_block.tolist())

# a larger code with two source qudits
code2 = QuantumMdsCode(CodeParams(n=4, k=2, d=2, q=5))
print("\n[[4,2,2]]_5 encoder (rows alpha^2, alpha^1, alpha^0):")
for row in code2.AB.tolist():
    print("   ", row)

# the validator re-proves every invertibility claim by brute force
print()
for line in validate(code2).lines():
    print(line)
