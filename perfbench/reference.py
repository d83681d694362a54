"""Reference kernels: fixed work that times the host, not the program.

The shared host has slow spells that last minutes and slow every op of a
run alike, by up to about 60%.  The worker times one of these kernels just
before each op, so a run can scale its latencies to one fixed host speed:
the speed at which the kernel takes ``NOMINAL_S``.  A slow spell does not
slow every kind of work by the same factor, so each workload is scaled by
the kernel that tracked its ops best (``workloads.REFERENCE``):

- ``python``: a pure-Python integer loop (``exact``, ``decode``, and the
  set-up probes);
- ``blas``: a dense complex product ``M @ M^H``, like the partial traces of
  ``statevec``; BLAS keeps its default thread count.

None of them imports qmds, so a change to the program cannot move them.
The ``python`` kernel allocates nothing; the ``blas`` kernel adds about
10 MB to the peak RSS of ``statevec`` (209 MB instead of 199 MB), the same
on every commit.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

PYTHON_STEPS = 300_000
BLAS_SIZE = 512
# Each kernel's time at the host speed the benchmark's times are scaled to,
# about its time on the 2-core machine the benchmark was defined on.
NOMINAL_S = {"python": 0.025, "blas": 0.012}


def _python() -> int:
    acc = 1
    for i in range(PYTHON_STEPS):
        acc = (acc * 7 + i) % 1_000_003
    return acc


def timer(name: str) -> Callable[[], float]:
    """A function that runs kernel ``name`` once and returns its seconds."""
    if name == "python":
        work = _python
    else:
        matrix = np.random.default_rng(0).standard_normal((BLAS_SIZE, BLAS_SIZE)) * (1 + 1j)

        def work():
            return matrix @ matrix.conj().T

    def run() -> float:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start

    return run
