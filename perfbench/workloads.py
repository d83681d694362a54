"""Benchmark workloads and the seeded op generator.

An op is one ``qmds`` CLI invocation, given to ``qmds.cli.main`` as an argv
list.  A workload is a fixed cycle of code groups (its mix); one pass over
the cycle is a round, and every round draws fresh inputs from the seed:
distinct evaluation points of GF(q) in random order (every such choice is a
valid MDS code) and, for ``--erasures`` ops, the erasure pattern.  The same
workload and seed always give the same argv sequence.

Every mix is three codes, 1:1:1, so the median op latency falls among the
ops of the middle code (for ``decode`` the two ``--erasures`` codes take
about the same time) and is not the tail of any one code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Group:
    """One code of a workload mix and the CLI mode it is run in."""

    n: int
    k: int
    d: int
    q: int
    mode: str  # "lemma" | "both" | "erasures" | "all"

    def argv(self, rng: random.Random) -> list[str]:
        code = ["--n", str(self.n), "--k", str(self.k), "--d", str(self.d),
                "--q", str(self.q),
                "--alphas", ",".join(str(a) for a in rng.sample(range(self.q), self.n))]
        if self.mode == "lemma":
            return ["verify", *code, "--oracle", "lemma", "--inequalities"]
        if self.mode == "both":
            return ["verify", *code, "--oracle", "both"]
        if self.mode == "erasures":
            erased = rng.sample(range(1, self.n + 1), self.d - 1)
            return ["decode-test", *code, "--erasures", ",".join(map(str, erased))]
        return ["decode-test", *code, "--all"]


WORKLOADS: dict[str, tuple[Group, ...]] = {
    # exact: the GF(q) rank oracle and the check suites, 1:1:1 mix.  Exercises
    # the planned batched rank table and bypasses the state-vector simulator
    # and its planned sparse-support rewrite; the k=2 codes make R more than
    # one qudit.
    "exact": (
        Group(8, 2, 4, 11, "lemma"),
        Group(9, 1, 5, 11, "lemma"),
        Group(10, 2, 5, 11, "lemma"),
    ),
    # statevec: both oracles, 1:1:1 mix, reduced states up to 1331 x 1331.
    # Exercises the dense partial trace (the planned sparse-support rewrite)
    # and the eigensolver; the rank profile is about 2% of the time, so the
    # batched rank table barely shows.
    "statevec": (
        Group(5, 1, 3, 7, "both"),
        Group(5, 3, 2, 5, "both"),
        Group(4, 2, 2, 11, "both"),
    ),
    # decode: erasure decoding, 1:1:1 mix, states up to 5.7 M amplitudes.
    # Uses the simulator for whole-state permutation writes and target
    # construction, not trace reads, so a sim change that helps reads but
    # costs writes or memory shows here.
    "decode": (
        Group(7, 1, 4, 7, "erasures"),
        Group(6, 2, 3, 7, "erasures"),
        Group(5, 1, 3, 11, "all"),
    ),
}

# The reference kernel (reference.py) that scales each workload's times to
# the nominal host speed: the one that, timed before each op, cut the
# spread of the workload's latencies over seeds the most.
REFERENCE: dict[str, str] = {"exact": "python", "statevec": "blas", "decode": "python"}

# One op of each CLI command on [[3,1,2]]_3, run during set-up.
WARMUP: tuple[list[str], ...] = (
    ["construct", "--n", "3", "--k", "1", "--d", "2"],
    ["profile", "--n", "3", "--k", "1", "--d", "2"],
    ["figure", "--k", "1", "--d", "2"],
    ["verify", "--n", "3", "--k", "1", "--d", "2", "--oracle", "both", "--inequalities"],
    ["decode-test", "--n", "3", "--k", "1", "--d", "2", "--all"],
)


def rounds(workload: str, seed: int):
    """Yield the argv lists of each round of ``workload``, forever."""
    mix = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield [group.argv(rng) for group in mix]
