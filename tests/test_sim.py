import itertools

import numpy as np
import pytest

from qmds import (
    CodeParams,
    DensityMatrix,
    QuantumMdsCode,
    StateVector,
    SubsystemSpec,
    decode,
    decode_target,
    encode_state,
    fidelity,
    full_profile,
    hermitian_eigenvalues,
    partial_trace,
    subsystem_entropy,
    von_neumann_entropy,
)
from qmds.sim import _permute_block

from conftest import make_code


def basis_state(q, registers, index, num_ref=0):
    amps = np.zeros(q**registers, dtype=complex)
    amps[index] = 1.0
    return StateVector(q, registers, amps, num_ref=num_ref)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(3, 1, [1.0, 1.0, 0.0])

    def test_length_enforced(self):
        with pytest.raises(ValueError, match="expected 9"):
            StateVector(3, 2, np.zeros(8))

    def test_amplitudes_read_only(self):
        psi = basis_state(3, 2, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestEncodeState:
    def test_3_1_2_superposition(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        assert psi.amplitudes.shape == (81,)
        assert psi.num_registers == 4 and psi.num_ref == 1
        nonzero = psi.amplitudes[np.abs(psi.amplitudes) > 0]
        assert nonzero.shape == (9,)
        assert np.allclose(nonzero, 1 / 3)

    def test_3_1_2_exact_support(self):
        # enumerate the generator rows by hand: registers (a, b, a+b, 2a+b)
        psi = encode_state(make_code(3, 1, 2, 3))
        expected = np.zeros(81, dtype=complex)
        for a in range(3):
            for b in range(3):
                digits = (a, b % 3, (a + b) % 3, (2 * a + b) % 3)
                index = ((digits[0] * 3 + digits[1]) * 3 + digits[2]) * 3 + digits[3]
                expected[index] = 1 / 3
        assert np.array_equal(psi.amplitudes, expected)

    def test_4_2_2_superposition(self):
        psi = encode_state(make_code(4, 2, 2, 5))
        assert psi.amplitudes.shape == (15625,)
        nonzero = psi.amplitudes[np.abs(psi.amplitudes) > 0]
        assert nonzero.shape == (125,)
        assert np.allclose(nonzero, 5 ** (-3 / 2))

    def test_norm_is_one(self):
        for params in ((3, 1, 2, 3), (4, 2, 2, 5), (5, 1, 3, 5)):
            psi = encode_state(make_code(*params))
            assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1.0) < 1e-12

    def test_memory_guard(self):
        big = QuantumMdsCode(CodeParams(n=7, k=3, d=3, q=7))
        with pytest.raises(ValueError, match="rank-identity"):
            encode_state(big)


class TestPartialTrace:
    def test_single_coded_qudit_maximally_mixed(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        rho = partial_trace(psi, SubsystemSpec(False, [1]))
        assert np.allclose(rho.entries, np.eye(3) / 3, atol=1e-12)

    def test_product_state_projector(self):
        psi = basis_state(2, 2, 0)  # |00>
        rho = partial_trace(psi, SubsystemSpec(False, [1]))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-12)

    def test_empty_and_full_keep_rejected(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        with pytest.raises(ValueError, match="empty"):
            partial_trace(psi, SubsystemSpec(False, []))
        with pytest.raises(ValueError, match="full system"):
            partial_trace(psi, SubsystemSpec(True, [1, 2, 3]))

    def test_density_matrix_invariants_hold(self):
        psi = encode_state(make_code(4, 2, 2, 5))
        rho = partial_trace(psi, SubsystemSpec(True, [2]))
        mat = rho.entries
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
        assert abs(np.trace(mat) - 1.0) <= 1e-12


class TestDensityMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 1.0], [0.0, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))


class TestJacobiEigenvalues:
    def test_maximally_mixed(self):
        values = hermitian_eigenvalues(DensityMatrix(np.eye(3) / 3))
        assert np.allclose(values, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_rank_one_projector(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        values = hermitian_eigenvalues(DensityMatrix(rho))
        assert np.allclose(values, [1, 0, 0, 0], atol=1e-12)

    def test_two_coded_qudits_flat_nine(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        rho = partial_trace(psi, SubsystemSpec(False, [1, 2]))
        values = hermitian_eigenvalues(rho)
        assert values.shape == (9,)
        assert np.allclose(values, 1 / 9, atol=1e-9)

    def test_against_numpy_on_random_hermitian(self):
        rng = np.random.default_rng(29)
        for size in (1, 2, 3, 5, 8, 13, 21, 34):
            raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            herm = (raw + raw.conj().T) / 2
            mine = hermitian_eigenvalues(herm)
            reference = np.sort(np.linalg.eigvalsh(herm))[::-1]
            assert np.allclose(mine, reference, atol=1e-9)

    def test_against_numpy_on_random_density_matrices(self):
        rng = np.random.default_rng(31)
        for size in (2, 6, 17):
            raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            psd = raw @ raw.conj().T
            rho = DensityMatrix(psd / np.trace(psd))
            mine = hermitian_eigenvalues(rho)
            reference = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
            assert np.allclose(mine, reference, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_diagonal_states_skip_the_general_solver(self, monkeypatch):
        # a valid code's half-size reduced state is maximally mixed, so its
        # spectrum is read off the diagonal without a full eigensolve
        def forbidden(a):
            raise AssertionError("diagonal input reached the general solver")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        psi = encode_state(make_code(4, 2, 2, 5))
        rho = partial_trace(psi, SubsystemSpec(True, [2]))
        assert np.allclose(hermitian_eigenvalues(rho), 1 / 125, atol=1e-12)

    def test_clamps_boundary_values(self):
        eps = 5e-11
        values = hermitian_eigenvalues(np.diag([1.0 + eps, -eps, 0.5]))
        assert values[0] == 1.0
        assert values[-1] == 0.0


class TestVonNeumannEntropy:
    def test_reference_plus_one_qudit(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        assert abs(von_neumann_entropy(psi, SubsystemSpec(True, [1])) - 2.0) < 1e-9

    def test_full_and_empty_systems(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        assert von_neumann_entropy(psi, SubsystemSpec(True, [1, 2, 3])) == 0.0
        assert von_neumann_entropy(psi, SubsystemSpec(False, [])) == 0.0

    def test_three_coded_qudits_4_2_2(self):
        psi = encode_state(make_code(4, 2, 2, 5))
        value = von_neumann_entropy(psi, SubsystemSpec(False, [1, 2, 3]))
        assert abs(value - 3.0) < 1e-9

    def test_purity_spot_check(self):
        # the full state is rank one: the outer product has top eigenvalue 1
        psi = encode_state(make_code(3, 1, 2, 3))
        rho_full = np.outer(psi.amplitudes, psi.amplitudes.conj())
        values = hermitian_eigenvalues(rho_full)
        assert abs(values[0] - 1.0) < 1e-9
        assert np.all(np.abs(values[1:]) < 1e-9)


class TestOracleAgreement:
    @pytest.mark.parametrize("params", [(3, 1, 2, 3), (4, 2, 2, 5), (5, 3, 2, 5)])
    def test_entropies_agree_on_every_subsystem(self, params):
        code = make_code(*params)
        psi = encode_state(code)
        n = code.params.n
        for inc in (False, True):
            for size in range(n + 1):
                for combo in itertools.combinations(range(1, n + 1), size):
                    spec = SubsystemSpec(inc, combo)
                    exact = subsystem_entropy(code, spec)
                    numeric = von_neumann_entropy(psi, spec)
                    assert abs(numeric - exact) < 1e-9, (params, spec.labels())

    def test_flat_spectra(self):
        # every reduced state of a code state has a flat nonzero spectrum
        for params in ((3, 1, 2, 3), (4, 2, 2, 5)):
            code = make_code(*params)
            psi = encode_state(code)
            total = code.params.num_registers
            n = code.params.n
            for inc in (False, True):
                for size in range(n + 1):
                    for combo in itertools.combinations(range(1, n + 1), size):
                        spec = SubsystemSpec(inc, combo)
                        regs = len(spec.registers(code.params.k))
                        if regs in (0, total):
                            continue
                        keep = spec if 2 * regs <= total else spec.complement(n)
                        values = hermitian_eigenvalues(partial_trace(psi, keep))
                        level = float(code.params.q) ** (
                            -subsystem_entropy(code, spec)
                        )
                        nonzero = values[values > 1e-9]
                        assert np.allclose(nonzero, level, atol=1e-9)


class TestDecode:
    def test_all_patterns_3_1_2(self):
        code = make_code(3, 1, 2, 3)
        psi = encode_state(code)
        for surviving in itertools.combinations(range(1, 4), 2):
            out = decode(psi, code, surviving)
            target = decode_target(code, surviving)
            assert fidelity(out, target) >= 1 - 1e-12

    def test_spec_pattern_5_1_3(self):
        code = make_code(5, 1, 3, 5)
        psi = encode_state(code)
        out = decode(psi, code, [1, 3, 5])
        assert fidelity(out, decode_target(code, [1, 3, 5])) >= 1 - 1e-12

    def test_norm_preserved_exactly(self):
        code = make_code(4, 2, 2, 5)
        psi = encode_state(code)
        out = decode(psi, code, [1, 2, 4])
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
        # a permutation moves amplitudes without touching their values
        assert sorted(np.abs(out.amplitudes)) == pytest.approx(
            sorted(np.abs(psi.amplitudes))
        )

    def test_block_permutation_roundtrip_is_exact(self):
        code = make_code(3, 1, 2, 3)
        psi = encode_state(code)
        positions = [1, 2]
        perm = np.random.default_rng(37).permutation(9)
        forward = _permute_block(psi, positions, perm)
        back = _permute_block(forward, positions, np.argsort(perm))
        assert np.array_equal(back.amplitudes, psi.amplitudes)

    def test_wrong_surviving_size_rejected(self):
        code = make_code(3, 1, 2, 3)
        psi = encode_state(code)
        with pytest.raises(ValueError, match="n-\\(d-1\\)"):
            decode(psi, code, [1])

    def test_state_shape_must_match_code(self):
        code = make_code(3, 1, 2, 3)
        other = encode_state(make_code(4, 2, 2, 5))
        with pytest.raises(ValueError, match="does not match"):
            decode(other, code, [1, 2])


class TestDecodeTarget:
    def test_structure_3_1_2(self):
        # surviving {1,2}: registers (a, a, b', b') each with amplitude 1/3
        target = decode_target(make_code(3, 1, 2, 3), [1, 2])
        expected = np.zeros(81, dtype=complex)
        for a in range(3):
            for b in range(3):
                index = ((a * 3 + a) * 3 + b) * 3 + b
                expected[index] = 1 / 3
        assert np.allclose(target.amplitudes, expected, atol=1e-15)

    def test_normalized(self):
        for params in ((3, 1, 2, 3), (5, 1, 3, 5)):
            code = make_code(*params)
            surviving = list(range(1, code.params.n - code.params.d + 2))
            target = decode_target(code, surviving)
            assert abs(np.vdot(target.amplitudes, target.amplitudes) - 1) < 1e-12


class TestFidelity:
    def test_self_fidelity(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = basis_state(3, 2, 0)
        b = basis_state(3, 2, 4)
        assert fidelity(a, b) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            fidelity(basis_state(3, 2, 0), basis_state(3, 3, 0))


def test_statevector_oracle_uses_no_rank_code(monkeypatch):
    # the two oracles must stay independent: entropies from the simulator
    # may not go through any GF(q) rank routine
    import qmds.entropy
    import qmds.linalg

    code = make_code(4, 2, 2, 5)
    expected = full_profile(code).table

    def forbidden(*args, **kwargs):
        raise AssertionError("the state-vector oracle called GF(q) rank code")

    for module, name in (
        (qmds.linalg, "rank"),
        (qmds.linalg, "rref"),
        (qmds.linalg, "batched_rank"),
        (qmds.entropy, "batched_rank"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    psi = encode_state(code)
    for mask, h in enumerate(expected):
        spec = SubsystemSpec(mask >> 4, [i + 1 for i in range(4) if mask >> i & 1])
        assert von_neumann_entropy(psi, spec) == pytest.approx(h, abs=1e-9)
