"""Per-op correctness gate, independent of the program's own verdict.

The expected counts are derived here from the op's argv, so a program that
skips work (fewer subsystems, a short inequality sweep, a missing erasure
pattern) fails the gate even when it prints ``result: PASS``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

ORACLE_TOL = 1e-9
FIDELITY_TOL = 1e-12
FAMILIES = (
    "subadditivity H(AB) <= H(A)+H(B)",
    "triangle |H(A)-H(B)| <= H(AB)",
    "strong subadditivity H(AB)+H(BC) >= H(ABC)+H(B)",
    "weak monotonicity H(AB)+H(BC) >= H(A)+H(C)",
)
_PROFILE = re.compile(r"rank-identity profile matches min\(size, (\d+) - size\) on (\d+) subsystems$")
_STATEVEC = re.compile(r"state-vector entropies within \S+ of the .+ on (\d+) subsystems "
                       r"\(max oracle delta (\S+)\)$")
_DECODING = re.compile(r"decoding conditions for \S+ \((\d+) checks\)$")
_FIDELITY = re.compile(r"^erasures \[([\d, ]*)\]: fidelity (\S+) ")


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    max_delta: float | None = None
    fidelities: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _find(pattern: re.Pattern, lines: list[str]) -> re.Match | None:
    return next((m for m in map(pattern.search, lines) if m), None)


def check(argv: list[str], exit_code, output: str) -> Verdict:
    """Gate one op: its argv, the exit code of ``cli.main`` and its stdout."""
    v = Verdict()
    lines = output.splitlines()
    if exit_code != 0:
        v.problems.append(f"exit code {exit_code}")
    if not lines or lines[-1] != "result: PASS":
        v.problems.append("last line is not 'result: PASS'")
    if any("FAIL" in line for line in lines):
        v.problems.append("output has a FAIL line")
    n, k, d = (int(_flag(argv, f)) for f in ("--n", "--k", "--d"))
    if argv[0] == "verify":
        _check_verify(v, argv, n, k, d, lines)
    else:
        _check_decode(v, argv, n, d, lines)
    return v


def _check_verify(v: Verdict, argv, n: int, k: int, d: int, lines: list[str]) -> None:
    oracle = _flag(argv, "--oracle")
    subsystems = 2 ** (n + 1)
    if oracle in ("lemma", "both"):
        m = _find(_PROFILE, lines)
        if not m or int(m[1]) != k + n or int(m[2]) != subsystems:
            v.problems.append(f"rank profile line does not report {subsystems} subsystems")
    if oracle in ("statevec", "both"):
        m = _find(_STATEVEC, lines)
        if not m or int(m[1]) != subsystems:
            v.problems.append(f"state-vector line does not report {subsystems} subsystems")
        else:
            v.max_delta = float(m[2])
            if not v.max_delta <= ORACLE_TOL:
                v.problems.append(f"max oracle delta {m[2]} above {ORACLE_TOL}")
    checks = math.comb(n, d - 1) + math.comb(n, n - d + 1)
    m = _find(_DECODING, lines)
    if not m or int(m[1]) != checks:
        v.problems.append(f"decoding report does not show {checks} checks")
    if "--inequalities" in argv:
        assignments = 3 ** (n + 1)
        for family in FAMILIES:
            expected = f"{family}: {assignments} assignments, 0 violations"
            if not any(line.endswith(expected) for line in lines):
                v.problems.append(f"missing '{expected}'")


def _check_decode(v: Verdict, argv, n: int, d: int, lines: list[str]) -> None:
    if "--all" in argv:
        expected = [list(c) for c in itertools.combinations(range(1, n + 1), d - 1)]
    else:
        expected = [sorted(int(i) for i in _flag(argv, "--erasures").split(","))]
    seen = []
    for m in filter(None, map(_FIDELITY.search, lines)):
        seen.append([int(i) for i in m[1].split(",") if i.strip()])
        v.fidelities.append(float(m[2]))
    if seen != expected:
        v.problems.append(f"erasure patterns {seen} differ from {expected}")
    bad = [f for f in v.fidelities if not abs(f - 1.0) <= FIDELITY_TOL]
    if bad:
        v.problems.append(f"fidelity {bad[0]} not within {FIDELITY_TOL} of 1")
