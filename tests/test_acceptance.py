"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single pass/fail line (visible with `pytest -s` or
`-v`); a failed assertion marks the criterion failed.  The reference codes
are [[3,1,2]]_3, [[4,2,2]]_5 and [[5,1,3]]_5.
"""

import itertools
import time

import numpy as np

from qmds import (
    SubsystemSpec,
    check_decoding_condition,
    check_entropy_inequalities,
    decode,
    decode_target,
    encode_state,
    fidelity,
    full_profile,
    hermitian_eigenvalues,
    partial_trace,
    product_state_checks,
    subsystem_entropy,
    von_neumann_entropy,
)
from qmds.cli import main
from qmds.entropy import INEQUALITY_FAMILIES

from conftest import REFERENCE_PARAMS, make_code

FIDELITY_TOL = 1e-12
ORACLE_TOL = 1e-9
SPECTRUM_TOL = 1e-9


def _passed(label):
    print(f"[acceptance] {label}: PASS")


def _all_specs(n):
    for include_r in (False, True):
        for size in range(n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                yield SubsystemSpec(include_r, combo)


def test_criterion_1_figure_pyramid_exact(capsys):
    start = time.perf_counter()
    assert main(["figure", "--k", "1", "--d", "2"]) == 0
    out = capsys.readouterr().out
    rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
    assert rows == [(0, 0), (1, 1), (2, 2), (3, 1), (4, 0)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(f"criterion 1, figure k=1 d=2 emits the exact pyramid ({elapsed:.3f}s)")


def test_criterion_2_exact_profile_matches_formula_exhaustively(capsys):
    start = time.perf_counter()
    expected_counts = {(3, 1, 2, 3): 16, (4, 2, 2, 5): 32, (5, 1, 3, 5): 64}
    for params in REFERENCE_PARAMS:
        n, k = params[0], params[1]
        profile = full_profile(make_code(*params))
        assert profile.table.size == expected_counts[params]
        # table index R * 2^n + Q-bitmask: R counts k qudits, each Q bit one
        for mask, entropy in enumerate(profile.table.tolist()):
            size = k * (mask >> n) + bin(mask % 2**n).count("1")
            assert entropy == min(size, k + n - size), (params, mask)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(
            "criterion 2, rank-identity profile = min(size, k+n-size) on "
            f"16+32+64 subsystems ({elapsed:.3f}s)"
        )


def test_criterion_3_oracle_equivalence(capsys):
    start = time.perf_counter()
    checked = 0
    max_delta = 0.0
    for params in REFERENCE_PARAMS:
        code = make_code(*params)
        psi = encode_state(code)
        k, n = code.params.k, code.params.n
        for spec in _all_specs(n):
            # complement symmetry covers sizes above 3 for [[5,1,3]]_5
            if params == (5, 1, 3, 5) and spec.size(k) > 3:
                continue
            delta = abs(von_neumann_entropy(psi, spec) - subsystem_entropy(code, spec))
            max_delta = max(max_delta, delta)
            assert delta < ORACLE_TOL, (params, spec.labels(), delta)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _passed(
            f"criterion 3, state-vector vs rank oracle on {checked} subsystems, "
            f"max delta {max_delta:.2e} ({elapsed:.1f}s)"
        )


def test_criterion_4_erasure_decoding_fidelity(capsys):
    start = time.perf_counter()
    patterns = 0
    worst = 1.0
    for params in REFERENCE_PARAMS:
        code = make_code(*params)
        psi = encode_state(code)
        n, d = code.params.n, code.params.d
        for erased in itertools.combinations(range(1, n + 1), d - 1):
            surviving = [i for i in range(1, n + 1) if i not in erased]
            value = fidelity(decode(psi, code, surviving), decode_target(code, surviving))
            worst = min(worst, value)
            assert value >= 1.0 - FIDELITY_TOL, (params, erased, value)
            patterns += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        _passed(
            f"criterion 4, decoding fidelity >= 1-1e-12 on {patterns} erasure "
            f"patterns, worst {worst:.15f} ({elapsed:.1f}s)"
        )


def test_criterion_5_proof_machinery_properties(capsys):
    for params in REFERENCE_PARAMS:
        start = time.perf_counter()
        code = make_code(*params)
        profile = full_profile(code)
        n = code.params.n

        recovery = check_decoding_condition(profile)
        assert recovery.ok, recovery.lines()

        products = product_state_checks(profile)
        assert products.ok, products.lines()

        inequalities = check_entropy_inequalities(profile)
        assert inequalities.ok, inequalities.lines()
        assert len(inequalities.details) == 4
        for family, line in zip(INEQUALITY_FAMILIES, inequalities.details):
            assert line.endswith(f"{family}: {3 ** (n + 1)} assignments, 0 violations")

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
    with capsys.disabled():
        _passed(
            "criterion 5, recovery/no-leakage, product-state identities and "
            "all four entropy inequalities exact on the reference codes"
        )


def test_criterion_6_k1_codes_are_absolutely_maximally_entangled(capsys):
    for params in ((3, 1, 2, 3), (5, 1, 3, 5)):
        code = make_code(*params)
        n = code.params.n
        half = (n + 1) // 2
        for spec in _all_specs(n):
            size = spec.size(1)
            if size <= half:
                assert subsystem_entropy(code, spec) == size, (params, spec.labels())
    with capsys.disabled():
        _passed(
            "criterion 6, k=1 joint states maximally mixed on every "
            "subsystem of at most half the qudits"
        )


def test_criterion_7_flat_spectra(capsys):
    # nonzero spectra of a pure state's two reduced states coincide, so
    # evaluating the smaller side of each bipartition covers every
    # reduced density matrix
    checked = 0
    for params in REFERENCE_PARAMS:
        code = make_code(*params)
        psi = encode_state(code)
        q = code.params.q
        total = code.params.num_registers
        n, k = code.params.n, code.params.k
        for spec in _all_specs(n):
            regs = len(spec.registers(k, n))
            if regs in (0, total):
                continue
            keep = spec if 2 * regs <= total else spec.complement(n)
            values = hermitian_eigenvalues(partial_trace(psi, keep))
            level = float(q) ** (-subsystem_entropy(code, spec))
            nonzero = values[values > SPECTRUM_TOL]
            assert np.allclose(nonzero, level, atol=SPECTRUM_TOL), (params, spec.labels())
            assert len(nonzero) == round(1 / level)
            checked += 1
    with capsys.disabled():
        _passed(
            f"criterion 7, {checked} reduced states all have flat nonzero "
            "spectrum at q**(-H)"
        )


def test_criterion_8_constructor_rejections(capsys):
    # every (n, k, d) grid point violating the MDS equality, and every
    # non-prime or too-small q, must exit with code 2
    rejected = 0
    for n in range(1, 8):
        for k in range(1, 6):
            for d in range(2, 5):
                if n == k + 2 * (d - 1):
                    continue
                args = ["construct", "--n", str(n), "--k", str(k), "--d", str(d),
                        "--q", "11"]
                assert main(args) == 2, args
                rejected += 1
    for bad_q in (4, 6, 8, 9, 10, 12):
        args = ["construct", "--n", "4", "--k", "2", "--d", "2", "--q", str(bad_q)]
        assert main(args) == 2, args
        rejected += 1
    for small_q in (2, 3):
        args = ["construct", "--n", "4", "--k", "2", "--d", "2", "--q", str(small_q)]
        assert main(args) == 2, args
        rejected += 1
    capsys.readouterr()
    with capsys.disabled():
        _passed(f"criterion 8, {rejected} invalid parameter sets all exit 2")
