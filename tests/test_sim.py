import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds import (
    CodeParams,
    QuantumMdsCode,
    SingularMatrixError,
    StateVector,
    SubsystemSpec,
    decode,
    decode_target,
    decoded_fidelity,
    encode_state,
    fidelity,
    full_profile,
    hermitian_eigenvalues,
    partial_trace,
    subsystem_entropy,
    von_neumann_entropy,
)
from qmds import sim
from qmds.sim import entropy_table as sim_entropy_table

from conftest import (
    DESK_PARAMS,
    dense_amplitudes,
    dense_decode,
    dense_entropy,
    dense_partial_trace,
    erasure_blocks,
    inverse_mod,
    make_code,
    non_mds_control,
    radix_keys,
    spec_at,
    step_one_only,
)


def basis_state(q, digits, num_ref=0):
    return StateVector(q, len(digits), [digits], [1.0], num_ref=num_ref)


def support(psi):
    """The state as {register values: amplitude}."""
    return dict(zip(map(tuple, psi.digits.tolist()), psi.amplitudes.tolist()))


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(3, 1, [[0], [1], [2]], [1.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.nan)], ids=str)
    def test_non_finite_amplitudes_refused(self, bad):
        # a NaN norm is no farther than 1e-12 from 1 by comparison, so the
        # norm test alone let [nan, 1] through
        with pytest.raises(ValueError, match="normalized"):
            StateVector(2, 2, [[0, 0], [1, 1]], [bad, 1.0], num_ref=1)

    def test_length_enforced(self):
        # one amplitude per support row, one digit per register
        with pytest.raises(ValueError, match="expected an"):
            StateVector(3, 2, [[0, 0]], [1.0, 0.0])
        with pytest.raises(ValueError, match="expected an"):
            StateVector(3, 2, [[0, 0, 0]], [1.0])
        with pytest.raises(ValueError, match="at least one register"):
            StateVector(3, 0, np.zeros((1, 0), dtype=np.int64), [1.0])

    def test_amplitudes_read_only(self):
        psi = basis_state(3, (0, 0))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
        with pytest.raises(ValueError):
            psi.digits[0, 0] = 1

    def test_inputs_copied(self):
        digits = np.array([[0, 1]])
        psi = StateVector(3, 2, digits, [1.0])
        digits[0, 0] = 2
        assert psi.digits.tolist() == [[0, 1]]

    @pytest.mark.parametrize("bad", [[[0, 3]], [[-1, 0]]], ids=["too-large", "negative"])
    def test_digit_range_enforced(self, bad):
        with pytest.raises(ValueError, match="lie in \\[0, 2\\]"):
            StateVector(3, 2, bad, [1.0])

    @pytest.mark.parametrize("q, dtype", [(3, np.uint8), (251, np.uint8), (257, np.uint16),
                                          (65537, np.uint32)])
    def test_digits_stored_narrow(self, q, dtype):
        # the narrowest unsigned dtype holding q - 1
        psi = StateVector(q, 2, np.array([[q - 1, 0]], dtype=np.int64), [1.0])
        assert psi.digits.dtype == dtype
        assert psi.digits.tolist() == [[q - 1, 0]]

    def test_wide_digit_refused_before_narrowing(self):
        # 300 would wrap to 44 in uint8; the range is checked in the input dtype
        with pytest.raises(ValueError, match="lie in \\[0, 250\\]"):
            StateVector(251, 2, np.array([[300, 0]], dtype=np.int64), [1.0])

    def test_repeated_rows_rejected(self):
        # one basis state listed twice would be two amplitudes for one state
        with pytest.raises(ValueError, match="distinct"):
            StateVector(3, 2, [[1, 2], [1, 2]], [0.6, 0.8])

    def test_non_integer_digits_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            StateVector(3, 2, [[0.5, 1.0]], [1.0])
        with pytest.raises(ValueError, match="integers"):
            StateVector(3, 2, [[True, False]], [1.0])

    def test_key_overflow_rejected(self):
        # 11**19 > 2**63: a key would wrap silently
        with pytest.raises(ValueError, match="int64"):
            StateVector(11, 19, [[0] * 19], [1.0])
        StateVector(11, 18, [[10] * 18], [1.0])

    def test_local_dimension_below_two_rejected(self):
        with pytest.raises(ValueError, match="local dimension must be >= 2: got 1"):
            StateVector(1, 1, [[0]], [1.0])

    def test_reference_block_beyond_registers_rejected(self):
        with pytest.raises(ValueError, match="reference block cannot exceed"):
            StateVector(2, 1, [[0]], [1.0], num_ref=2)

    def test_registers_are_contiguous(self):
        # digits is stored column-major, so digits.T, the (registers, N) array
        # every reader gathers whole registers from, is a C-contiguous view;
        # digits keeps its (N, registers) shape, narrow dtype, values and
        # read-only flag, whether built by encode_state, by hand from
        # C-ordered digits, or by decode without the constructor
        code = make_code(5, 1, 3, 7)
        q = code.params.q
        xs = np.indices((q,) * 3, dtype=np.int64).reshape(3, -1).T
        encoded = encode_state(code)
        hand = np.array([[0, 6, 2], [5, 1, 0]], dtype=np.int64)
        decoded = encoded.digits.astype(object)
        decoded[:, 1:4] = decoded[:, 1:4] @ reference_step(code, [1, 2, 3]) % q
        states = [
            (encoded, xs @ code.G % q),
            (StateVector(q, 3, hand, [0.6, 0.8]), hand),
            (decode(encoded, code, [1, 2, 3]), decoded),
        ]
        for psi, expected in states:
            assert psi.digits.T.flags.c_contiguous
            assert psi.digits.shape == expected.shape
            assert psi.digits.dtype == np.uint8
            assert np.array_equal(psi.digits, expected)
            assert not psi.digits.flags.writeable


class TestEncodeState:
    def test_3_1_2_superposition(self):
        # 9 of the 81 basis states, each with amplitude 1/3
        psi = encode_state(make_code(3, 1, 2, 3))
        assert psi.digits.shape == (9, 4) and psi.amplitudes.shape == (9,)
        assert psi.num_registers == 4 and psi.num_ref == 1
        assert np.allclose(psi.amplitudes, 1 / 3)

    def test_3_1_2_exact_support(self):
        # enumerate the generator rows by hand: registers (a, b, a+b, 2a+b)
        psi = encode_state(make_code(3, 1, 2, 3))
        expected = {
            (a, b, (a + b) % 3, (2 * a + b) % 3): 1 / 3
            for a in range(3)
            for b in range(3)
        }
        assert support(psi) == expected

    def test_4_2_2_superposition(self):
        # 125 of the 15625 basis states
        psi = encode_state(make_code(4, 2, 2, 5))
        assert psi.digits.shape == (125, 6)
        assert np.allclose(psi.amplitudes, 5 ** (-3 / 2))

    def test_norm_is_one(self):
        for params in ((3, 1, 2, 3), (4, 2, 2, 5), (5, 1, 3, 5)):
            psi = encode_state(make_code(*params))
            assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1.0) < 1e-12

    def test_memory_guard(self):
        # 13**7 support rows x 14 digits exceed the 2**24-cell guard
        big = QuantumMdsCode(CodeParams(n=13, k=1, d=7, q=13))
        with pytest.raises(ValueError, match="rank-identity"):
            encode_state(big)
        with pytest.raises(ValueError, match="rank-identity"):
            decode_target(big, range(1, 8))

    @pytest.mark.parametrize("params", [*DESK_PARAMS, (3, 1, 2, 251), (3, 1, 2, 257)])
    def test_support_equals_int64_reference(self, params):
        # every x . G mod q, x big-endian, computed in int64
        code = make_code(*params)
        q, m = code.params.q, code.params.generator_rank
        xs = np.indices((q,) * m, dtype=np.int64).reshape(m, -1).T
        psi = encode_state(code)
        assert psi.digits.dtype == np.min_scalar_type(q - 1)
        assert np.array_equal(psi.digits.astype(np.int64), xs @ code.G % q)

    def test_encoding_peak_tracks_the_state(self):
        # [[9,1,5]]_11: 161051 rows of 10 uint8 digits and complex amplitudes
        # (4.2 MB); an int64 listing of x and of x . G would be 15.5 MB held
        # and 33.7 MB at the peak
        code = make_code(9, 1, 5, 11)
        tracemalloc.start()
        try:
            psi = encode_state(code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert psi.digits.nbytes + psi.amplitudes.nbytes <= 4.5e6
        # 7.25 MB: the amplitudes are one broadcast scalar until StateVector
        # copies them; a full array beside that copy peaks at 9.83 MB
        assert peak < 8.5e6

    def test_support_not_basis_size_is_guarded(self):
        # 7**10 basis states, but only 7**5 support rows
        psi = encode_state(make_code(7, 3, 3, 7))
        assert psi.digits.shape == (7**5, 10)


class TestPartialTrace:
    def test_single_coded_qudit_maximally_mixed(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        rho = partial_trace(psi, SubsystemSpec(False, [1]))
        assert np.allclose(rho, np.eye(3) / 3, atol=1e-12)

    def test_product_state_projector(self):
        psi = basis_state(2, (0, 0))  # |00>
        rho = partial_trace(psi, SubsystemSpec(False, [1]))
        assert np.allclose(rho, [[1, 0], [0, 0]], atol=1e-12)

    def test_shared_environment_gives_coherences(self):
        # (|0> + |1>)/sqrt 2 on Q1, |0> on Q2: both rows share the
        # environment, so rho_Q1 = |+><+| has off-diagonal entries
        psi = StateVector(3, 2, [[0, 0], [1, 0]], [2**-0.5, 2**-0.5])
        rho = partial_trace(psi, SubsystemSpec(False, [1]))
        expected = np.zeros((3, 3))
        expected[:2, :2] = 0.5
        assert np.allclose(rho, expected, atol=1e-12)
        assert von_neumann_entropy(psi, SubsystemSpec(False, [1])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_large_reduced_block_refused(self):
        # |+>|+>|0>|0> with |+> uniform over 65 values: the 65**2 kept keys
        # of (Q1, Q2) share one environment, and a 4225 x 4225 block is past
        # the 2**24 guard, refused before it is allocated
        rows = [(a, b, 0, 0) for a in range(65) for b in range(65)]
        psi = StateVector(65, 4, rows, np.full(len(rows), 1 / 65))
        with pytest.raises(ValueError, match="rank-identity"):
            von_neumann_entropy(psi, SubsystemSpec(False, [1, 2]))
        with pytest.raises(ValueError, match="rank-identity"):
            partial_trace(psi, SubsystemSpec(False, [1, 2]))
        # a product state: one register alone is a 65 x 65 block, and pure
        assert von_neumann_entropy(psi, SubsystemSpec(False, [1])) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_empty_and_full_keep_rejected(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        with pytest.raises(ValueError, match="empty"):
            partial_trace(psi, SubsystemSpec(False, []))
        with pytest.raises(ValueError, match="full system"):
            partial_trace(psi, SubsystemSpec(True, [1, 2, 3]))

    def test_density_matrix_invariants_hold(self):
        psi = encode_state(make_code(4, 2, 2, 5))
        rho = partial_trace(psi, SubsystemSpec(True, [2]))
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12

    def test_diagonal_binned_over_reached_keys(self):
        # one support row with kept key 999999 of q^2 = 10^6: binning the
        # keys themselves would allocate 8 MB for one nonzero entry
        psi = StateVector(1000, 6, [[999, 999, 999, 0, 0, 0]], [1.0], num_ref=1)
        tracemalloc.start()
        try:
            entropy = von_neumann_entropy(psi, SubsystemSpec(True, [1]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert entropy == 0.0
        assert peak < 1e5
        reached, diagonal = sim._reduce(psi, [0, 1])
        assert reached.tolist() == [999999] and diagonal.tolist() == [1.0]

    def test_result_is_read_only(self):
        rho = partial_trace(encode_state(make_code(3, 1, 2, 3)), SubsystemSpec(True, [1]))
        assert isinstance(rho, np.ndarray) and not rho.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rho[0, 0] = 0.0


class TestDensityMatrix:
    """The checks a reduced density matrix gets, on the plain arrays that
    carry it: hermitian_eigenvalues refuses input that is not a Hermitian
    square, and every reduction checks its trace."""

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self, monkeypatch):
        psi = encode_state(make_code(3, 1, 2, 3))
        # below zero every trace fails its check
        monkeypatch.setattr(sim, "TRACE_TOL", -1.0)
        with pytest.raises(ValueError, match="trace must be 1"):
            partial_trace(psi, SubsystemSpec(False, [1]))

    @pytest.mark.parametrize("path", ["diagonal-side", "block-side", "entropy_table"])
    def test_every_entropy_path_checks_its_trace(self, monkeypatch, path):
        psi = encode_state(make_code(3, 1, 2, 3))
        control = encode_state(non_mds_control())
        # Q1 Q2 Q3 of the control share environments, so they reduce to a block
        assert sim._reduce(control, [1, 2, 3])[1].ndim == 2
        run = {
            "diagonal-side": lambda: von_neumann_entropy(psi, SubsystemSpec(False, [1])),
            "block-side": lambda: von_neumann_entropy(control, SubsystemSpec(False, [1, 2, 3])),
            "entropy_table": lambda: sim_entropy_table(psi),
        }[path]
        monkeypatch.setattr(sim, "TRACE_TOL", -1.0)
        with pytest.raises(ValueError, match="trace must be 1"):
            run()

    def test_negative_eigenvalue_refused(self, monkeypatch):
        # Q1 Q2 Q3 of the control reduce to a block, whose spectrum comes
        # from the solver; one eigenvalue past the clamp is an error
        control = encode_state(non_mds_control())
        eigvalsh = np.linalg.eigvalsh

        def shifted(a):
            values = eigvalsh(a)
            values[0] = -1e-9
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        with pytest.raises(ValueError, match="eigenvalue -1e-09 below -1e-10"):
            von_neumann_entropy(control, SubsystemSpec(False, [1, 2, 3]))


class TestJacobiEigenvalues:
    def test_maximally_mixed(self):
        values = hermitian_eigenvalues(np.eye(3) / 3)
        assert np.allclose(values, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_rank_one_projector(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        values = hermitian_eigenvalues(rho)
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
            rho = psd / np.trace(psd)
            mine = hermitian_eigenvalues(rho)
            reference = np.sort(np.linalg.eigvalsh(rho))[::-1]
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

    def test_reference_block_needed_for_include_R(self):
        psi = basis_state(3, (0, 0))
        with pytest.raises(ValueError, match="no reference block but include_R"):
            von_neumann_entropy(psi, SubsystemSpec(True, [1]))

    def test_coded_qudit_out_of_range(self):
        # one reference register and Q1, Q2: Q3 would be register 3 of 0..2
        psi = basis_state(3, (0, 0, 0), num_ref=1)
        with pytest.raises(ValueError, match=r"subsystem indices out of range 1\.\.2: \[3\]"):
            von_neumann_entropy(psi, SubsystemSpec(False, [3]))

    def test_sixty_two_qubits_read_their_registers(self):
        # q = 2 admits 62 registers; a spec's registers come from the layout's
        # parts, with no table of 2^62 unions
        psi = basis_state(2, (1,) + (0,) * 61)
        assert von_neumann_entropy(psi, SubsystemSpec(False, [1, 62])) == 0.0
        rho = partial_trace(psi, SubsystemSpec(False, [1]))
        assert rho.tolist() == [[0, 0], [0, 1]]


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
                        regs = len(spec.registers(code.params.k, n))
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
        # the block map is a permutation of GF(3)^2; undoing it on the
        # decoded support rows gives the encoded rows back exactly
        code = make_code(3, 1, 2, 3)
        psi = encode_state(code)
        out = decode(psi, code, [1, 2])
        block = np.array([[a, b] for a in range(3) for b in range(3)])
        step = sim._step(code, *sim._target_pairs(None, code, [1, 2]))
        image = radix_keys(sim._decode_rows(step, 3, block.T).T, 3)
        assert sorted(image.tolist()) == list(range(9))
        preimage = block[np.argsort(image)]
        back = preimage[radix_keys(out.digits[:, 1:3], 3)]
        assert np.array_equal(back, psi.digits[:, 1:3])
        assert np.array_equal(out.digits[:, [0, 3]], psi.digits[:, [0, 3]])
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    @pytest.mark.parametrize("rows", [1, 100, 1330])
    def test_row_chunks_match_one_chunk(self, monkeypatch, rows):
        # [[5,1,3]]_11 has 1331 support rows of m = 3 surviving digits, one
        # chunk at the default budget; a budget of `rows` float64 rows steps
        # them in ragged chunks, all through the one step derived by two
        # eliminations
        from qmds import linalg

        code = make_code(5, 1, 3, 11)
        psi = encode_state(code)
        calls, eliminations = [], []
        transform, core = sim._decode_rows, linalg._rref_rows

        def counting(step, q, values):
            calls.append(values.shape[1])
            return transform(step, q, values)

        monkeypatch.setattr(sim, "_decode_rows", counting)
        monkeypatch.setattr(linalg, "_rref_rows", lambda *a: eliminations.append(a) or core(*a))
        patterns = ([1, 2, 3], [2, 4, 5])
        whole = [decode(psi, code, s).digits for s in patterns]
        assert calls == [1331, 1331]
        monkeypatch.setattr(sim, "DECODE_BYTES", 8 * 3 * rows)
        for surviving, expected in zip(patterns, whole):
            calls.clear()
            eliminations.clear()
            out = decode(psi, code, surviving)
            assert calls == [rows] * (1331 // rows) + [1331 % rows] * (1331 % rows > 0)
            assert len(eliminations) == 2
            assert np.array_equal(out.digits, expected)
            assert not out.digits.flags.writeable

    def test_desk_states_decode_in_one_chunk(self):
        # [[7,1,4]]_7, 7^4 rows of m = 4 digits, and every smaller state
        assert 8 * 4 * 7**4 <= sim.DECODE_BYTES

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


def reference_step(code, surviving):
    """AB_surviving^-1 [E | AB_erased] as exact Python ints (object dtype)."""
    p = code.params
    ab_s, ab_e = erasure_blocks(code, surviving)
    right = np.hstack((code.G[:, : p.k], ab_e)).astype(object)
    return inverse_mod(ab_s, p.q).astype(object) @ right % p.q


class TestDecodeConstruction:
    """decode builds its result without StateVector's validation; these checks
    redo what that validation and an integer reference would establish."""

    @pytest.mark.parametrize("params", DESK_PARAMS + [(5, 1, 3, 11)], ids=str)
    def test_every_pattern_is_a_valid_state_bit_for_bit(self, params):
        code = make_code(*params)
        p = code.params
        psi = encode_state(code)
        for surviving in itertools.combinations(range(1, p.n + 1), p.n - p.d + 1):
            out = decode(psi, code, surviving)
            positions = [p.k + i - 1 for i in surviving]
            expected = psi.digits.astype(object)
            expected[:, positions] = expected[:, positions] @ reference_step(code, surviving) % p.q
            assert out.digits.dtype == psi.digits.dtype
            assert np.array_equal(out.digits.astype(object), expected)
            assert not out.digits.flags.writeable
            assert out.amplitudes is psi.amplitudes
            rebuilt = StateVector(p.q, p.num_registers, out.digits, out.amplitudes, num_ref=p.k)
            assert np.array_equal(rebuilt.digits, out.digits)

    def test_largest_decodable_modulus_is_exact(self):
        # q = 55103 is the largest prime with q^4 < 2^63, so [[3,1,2]]_q is
        # the largest state decode can be handed; digits near q - 1 put
        # every float64 sum near m (q-1)^2
        q = 55103
        code = make_code(3, 1, 2, q)
        digits = np.array([[q - 1, q - 1, q - 2, q - 1], [q - 3, q - 2, q - 1, 0]])
        psi = StateVector(q, 4, digits, [0.6, 0.8], num_ref=1)
        for surviving in ([1, 2], [1, 3], [2, 3]):
            out = decode(psi, code, surviving)
            # k = 1, so coded qudit Q_i is register i
            positions = list(surviving)
            values = digits[:, positions].astype(object)
            expected = values @ reference_step(code, surviving) % q
            assert np.array_equal(out.digits[:, positions].astype(object), expected)

    def test_block_beyond_exact_float_sums_is_refused(self):
        # m (q-1)^2 = 2 (2^31 - 2)^2 >= 2^53: float64 sums could round
        code = make_code(3, 1, 2, 2**31 - 1)
        with pytest.raises(ValueError, match="2\\^53"):
            sim._step(code, *sim._target_pairs(None, code, [1, 2]))


class TestDecodeTarget:
    def test_structure_3_1_2(self):
        # surviving {1,2}: registers (a, a, b', b') each with amplitude 1/3
        target = decode_target(make_code(3, 1, 2, 3), [1, 2])
        expected = {(a, a, b, b): 1 / 3 for a in range(3) for b in range(3)}
        assert support(target).keys() == expected.keys()
        assert np.allclose(target.amplitudes, 1 / 3, atol=1e-15)

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
        a = basis_state(3, (0, 0))
        b = basis_state(3, (1, 1))
        assert fidelity(a, b) == 0.0

    def test_overlap_of_matched_rows(self):
        # only |1> is in both supports, listed first in psi and second in
        # phi: <psi|phi> = 0.6 * 0.8i
        psi = StateVector(3, 1, [[1], [0]], [0.6, 0.8])
        phi = StateVector(3, 1, [[2], [1]], [0.6, 0.8j])
        assert fidelity(psi, phi) == pytest.approx(0.48**2, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            fidelity(basis_state(3, (0, 0)), basis_state(3, (0, 0, 0)))


def patterns(code):
    """Every surviving set of a code, ascending."""
    n, d = code.params.n, code.params.d
    return itertools.combinations(range(1, n + 1), n - d + 1)


def step_one_decoded(psi, code, surviving):
    """psi with only decoding's first step, y -> y . (AB_surviving)^-1, applied."""
    p = code.params
    ab_s, _ = erasure_blocks(code, surviving)
    positions = [p.k + i - 1 for i in surviving]
    digits = psi.digits.astype(np.int64)
    digits[:, positions] = digits[:, positions] @ inverse_mod(ab_s, p.q) % p.q
    return StateVector(p.q, p.num_registers, digits, psi.amplitudes, num_ref=p.k)


def assert_both_routes_agree(psi, code, surviving):
    # the one-pass pair test against the listed target of the decoded state
    expected = fidelity(decode(psi, code, surviving), decode_target(code, surviving))
    assert abs(decoded_fidelity(psi, code, surviving) - expected) <= 1e-14
    return expected


def short_last_chunk(monkeypatch, psi, code):
    """Set DECODE_BYTES so psi's N rows take at least 3 full chunks and a short last one."""
    total = len(psi.amplitudes)
    rows = (total - 1) // 3
    assert total // rows >= 3 and total % rows
    monkeypatch.setattr(sim, "DECODE_BYTES", 8 * code.params.generator_rank * rows)
    return rows


class TestTargetFidelity:
    """decoded_fidelity's one-pass pair test against the listed target of the decoded state."""

    @pytest.mark.parametrize("params", DESK_PARAMS)
    def test_every_pattern_of_the_desk_codes(self, params):
        code = make_code(*params)
        psi = encode_state(code)
        for surviving in patterns(code):
            assert assert_both_routes_agree(psi, code, surviving) >= 1 - 1e-12
            assert_both_routes_agree(decode(psi, code, surviving), code, surviving)
            assert_both_routes_agree(step_one_decoded(psi, code, surviving), code, surviving)

    @pytest.mark.parametrize("params", [(7, 1, 4, 11), (8, 2, 4, 11)])
    def test_reference_route_is_exact_at_larger_supports(self, params):
        # surviving 1..n-d+1; np.vdot's accumulation once drifted 1.6e-14
        # and 3.3e-13 from the pair test here
        code = make_code(*params)
        surviving = list(range(1, code.params.n - code.params.d + 2))
        psi = encode_state(code)
        reference = fidelity(decode(psi, code, surviving), decode_target(code, surviving))
        assert abs(reference - decoded_fidelity(psi, code, surviving)) <= 1e-15

    def test_step_one_alone_misses_the_target(self, monkeypatch):
        # the construction behind the CLI's second-step test reads below 1
        # on some pattern, as the listed target says of step one's state
        code = make_code(3, 1, 2, 3)
        psi = encode_state(code)
        monkeypatch.setattr(sim, "_step", step_one_only)
        values = [decoded_fidelity(psi, code, s) for s in patterns(code)]
        for value, s in zip(values, patterns(code)):
            expected = fidelity(step_one_decoded(psi, code, s), decode_target(code, s))
            assert abs(value - expected) <= 1e-14
        assert min(values) < 1 - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(DESK_PARAMS), st.data())
    def test_random_states_on_the_code_registers(self, params, data):
        # random rows, some of them drawn from the encoded support, which
        # decodes onto the target's, so the overlap is not always 0, with
        # random complex amplitudes
        code = make_code(*params)
        p = code.params
        surviving = sorted(data.draw(st.permutations(range(1, p.n + 1)))[: p.n - p.d + 1])
        encoded_rows = encode_state(code).digits
        picked = data.draw(st.sets(st.integers(0, len(encoded_rows) - 1), max_size=12))
        keys = set(radix_keys(encoded_rows[sorted(picked)], p.q).tolist())
        keys |= data.draw(st.sets(st.integers(0, p.q**p.num_registers - 1), max_size=12))
        assume(keys)
        digits = np.array([[key // p.q**r % p.q for r in range(p.num_registers - 1, -1, -1)]
                           for key in sorted(keys)])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        psi = StateVector(p.q, p.num_registers, digits, amps / np.linalg.norm(amps), num_ref=p.k)
        assert_both_routes_agree(psi, code, surviving)

    @pytest.mark.parametrize("params", [(3, 1, 2, 3), (6, 2, 3, 7)])
    def test_state_missing_one_target_row_reads_below_one(self, params):
        # the encoded state without one row decodes to the target without one
        code = make_code(*params)
        p = code.params
        surviving = list(range(1, p.n - p.d + 2))
        encoded = encode_state(code)
        rows = len(encoded.amplitudes)
        psi = StateVector(p.q, p.num_registers, encoded.digits[1:],
                          np.full(rows - 1, (rows - 1) ** -0.5), num_ref=p.k)
        expected = assert_both_routes_agree(psi, code, surviving)
        assert expected == pytest.approx((rows - 1) / rows, abs=1e-12)
        assert decoded_fidelity(psi, code, surviving) < 1 - 1e-12

    def test_shape_mismatch_rejected(self):
        psi = encode_state(make_code(4, 2, 2, 5))
        with pytest.raises(ValueError, match="shapes"):
            decoded_fidelity(psi, make_code(3, 1, 2, 5), [1, 2])
        code = make_code(3, 1, 2, 5)
        with pytest.raises(ValueError, match="n-\\(d-1\\)"):
            decoded_fidelity(encode_state(code), code, [1])

    @pytest.mark.parametrize("params", DESK_PARAMS + ["non-MDS control"], ids=str)
    def test_row_chunks_on_every_pattern(self, monkeypatch, params):
        code = non_mds_control() if isinstance(params, str) else make_code(*params)
        p = code.params
        psi = encode_state(code)
        short_last_chunk(monkeypatch, psi, code)
        exact = 0
        for surviving in patterns(code):
            try:
                decoded = decode(psi, code, surviving)
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    decoded_fidelity(psi, code, surviving)
                continue
            value = decoded_fidelity(psi, code, surviving)
            assert abs(value - fidelity(decoded, decode_target(code, surviving))) <= 1e-15
            survivors, partners, _ = sim._target_pairs(None, code, surviving)
            if np.array_equal(decoded.digits[:, survivors], decoded.digits[:, partners]):
                # every row agrees: the whole amplitude array is summed
                overlap = psi.amplitudes.sum() * p.q ** (-p.generator_rank / 2)
                assert value == float(abs(overlap) ** 2)
                exact += 1
        assert exact > 0

    def test_undecoded_middle_chunk_reads_below_one(self, monkeypatch):
        code = make_code(5, 1, 3, 7)
        psi = encode_state(code)
        rows = short_last_chunk(monkeypatch, psi, code)
        calls = []
        transform = sim._decode_rows

        def skipping_the_second_chunk(step, q, values):
            calls.append(values.shape[1])
            return values if len(calls) == 2 else transform(step, q, values)

        assert decoded_fidelity(psi, code, [1, 2, 3]) >= 1 - 1e-12
        monkeypatch.setattr(sim, "_decode_rows", skipping_the_second_chunk)
        assert decoded_fidelity(psi, code, [1, 2, 3]) < 1 - 1e-12
        assert calls == [rows] * 3 + [len(psi.amplitudes) - 3 * rows]


def test_statevector_oracle_uses_no_rank_code(monkeypatch):
    # the two oracles must stay independent: entropies from the simulator,
    # per mask and through the table verify reads, may not go through any
    # GF(q) rank routine, and neither may the subset layout the table reads;
    # a k = 1 and a k = 2 code
    import qmds.code
    import qmds.entropy
    import qmds.linalg

    codes = [make_code(5, 1, 3, 5), make_code(4, 2, 2, 5)]
    profiles = [full_profile(code).table for code in codes]

    def forbidden(*args, **kwargs):
        raise AssertionError("the state-vector oracle called GF(q) rank code")

    for module, name in (
        (qmds.linalg, "rank"),
        (qmds.linalg, "_rref_rows"),
        (qmds.linalg, "subset_ranks"),
        (qmds.code, "rank"),
        (qmds.code, "subset_ranks"),
        (qmds.entropy, "subset_ranks"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    # every exact entropy comes from subset_ranks
    assert not hasattr(qmds.entropy, "rank")
    qmds.code.subset_layout.cache_clear()
    for code, expected in zip(codes, profiles):
        n = code.params.n
        psi = encode_state(code)
        assert np.max(np.abs(sim_entropy_table(psi) - expected)) <= 1e-9
        for mask, h in enumerate(expected):
            spec = SubsystemSpec(mask >> n, [i + 1 for i in range(n) if mask >> i & 1])
            assert von_neumann_entropy(psi, spec) == pytest.approx(h, abs=1e-9)


# the desk codes small enough for the dense reference in conftest
DENSE_PARAMS = [p for p in DESK_PARAMS if p[3] ** (p[1] + p[0]) <= 4 * 10**5]


def drawn_code(data, params):
    n, k, d, q = params
    return make_code(n, k, d, q, data.draw(st.permutations(range(q)))[:n])


class TestAgainstDenseReference:
    """The support representation against the dense q^(k+n) layout it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(DENSE_PARAMS), st.data())
    def test_trace_and_entropy(self, params, data):
        code = drawn_code(data, params)
        psi = encode_state(code)
        n, total = code.params.n, code.params.num_registers
        spec = SubsystemSpec(
            data.draw(st.booleans()),
            data.draw(st.sets(st.integers(1, n))),
        )
        positions = spec.registers(code.params.k, n)
        assert von_neumann_entropy(psi, spec) == pytest.approx(
            dense_entropy(psi, positions), abs=1e-12
        )
        if 0 < len(positions) <= total // 2:
            rho = partial_trace(psi, spec)
            assert np.max(np.abs(rho - dense_partial_trace(psi, positions))) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(DENSE_PARAMS), st.data())
    def test_decode_and_fidelity(self, params, data):
        code = drawn_code(data, params)
        n, d = code.params.n, code.params.d
        surviving = sorted(data.draw(st.permutations(range(1, n + 1)))[: n - d + 1])
        psi = encode_state(code)
        out = decode(psi, code, surviving)
        target = decode_target(code, surviving)
        dense_out = dense_decode(code, dense_amplitudes(psi), surviving)
        assert np.array_equal(dense_amplitudes(out), dense_out)
        dense_fidelity = abs(np.vdot(dense_out, dense_amplitudes(target))) ** 2
        assert fidelity(out, target) == pytest.approx(dense_fidelity, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 80), min_size=1, max_size=20), st.integers(0, 2**32 - 1))
    def test_random_states_off_the_diagonal(self, keys, seed):
        # arbitrary supports and complex amplitudes on four qutrits: most
        # reduced states share environments and take the dense-block path
        keys = sorted(keys)
        digits = np.array([[key // 3**r % 3 for r in (3, 2, 1, 0)] for key in keys])
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        psi = StateVector(3, 4, digits, amps / np.linalg.norm(amps))
        for size in (1, 2, 3):
            for positions in itertools.combinations(range(4), size):
                spec = SubsystemSpec(False, [p + 1 for p in positions])
                rho = partial_trace(psi, spec)
                assert np.max(np.abs(rho - dense_partial_trace(psi, positions))) <= 1e-12
                assert von_neumann_entropy(psi, spec) == pytest.approx(
                    dense_entropy(psi, positions), abs=1e-12
                )


def per_mask_entropies(psi):
    """von_neumann_entropy of every R-atomic subsystem, one call per mask."""
    n = psi.num_registers - psi.num_ref
    return [von_neumann_entropy(psi, spec_at(mask, n)) for mask in range(2 << n)]


class TestEntropyTable:
    """The table reduces each smaller side once; every entry must still be
    the per-subsystem entropy, bit for bit."""

    @pytest.mark.parametrize("params", DENSE_PARAMS)
    def test_desk_codes(self, params):
        psi = encode_state(make_code(*params))
        assert sim_entropy_table(psi).tolist() == per_mask_entropies(psi)

    def test_non_mds_control(self):
        # four of its reduced states take the non-diagonal block path
        psi = encode_state(non_mds_control())
        table = sim_entropy_table(psi)
        assert table.tolist() == per_mask_entropies(psi)
        assert table.tolist() != full_profile(make_code(5, 1, 3, 5)).table.tolist()

    @settings(max_examples=30, deadline=None)
    @given(
        st.sets(st.integers(0, 80), min_size=1, max_size=20),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2]),
    )
    def test_random_states_with_a_reference_block(self, keys, seed, num_ref):
        keys = sorted(keys)
        digits = np.array([[key // 3**r % 3 for r in (3, 2, 1, 0)] for key in keys])
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        psi = StateVector(3, 4, digits, amps / np.linalg.norm(amps), num_ref=num_ref)
        assert sim_entropy_table(psi).tolist() == per_mask_entropies(psi)

    def test_needs_a_reference_block(self):
        with pytest.raises(ValueError, match="no reference block"):
            sim_entropy_table(basis_state(3, (0, 0, 0)))


def per_mask_paths(monkeypatch, psi):
    """entropy_table with its per-mask reductions recorded.

    Returns the kept positions of each per-mask reduction that came back
    diagonal and of each that came back as a block, and the number of
    hermitian_eigenvalues calls.
    """
    paths, eigen_calls = {1: [], 2: []}, []
    reduce, eigenvalues = sim._reduce, sim.hermitian_eigenvalues

    def recording_reduce(psi, positions):
        reached, rho = reduce(psi, positions)
        paths[rho.ndim].append(tuple(positions))
        return reached, rho

    def recording_eigenvalues(rho):
        eigen_calls.append(rho)
        return eigenvalues(rho)

    monkeypatch.setattr(sim, "_reduce", recording_reduce)
    monkeypatch.setattr(sim, "hermitian_eigenvalues", recording_eigenvalues)
    sim_entropy_table(psi)
    return paths[1], paths[2], len(eigen_calls)


class TestReductionPaths:
    """Valid codes stay in the batch; only masks it cannot read off a full
    diagonal take the per-mask path."""

    @pytest.mark.parametrize("params", DESK_PARAMS)
    def test_desk_codes_stay_in_the_batch(self, monkeypatch, params):
        diagonal, blocks, eigen_calls = per_mask_paths(
            monkeypatch, encode_state(make_code(*params))
        )
        assert (diagonal, blocks, eigen_calls) == ([], [], 0)

    def test_non_mds_control(self, monkeypatch):
        # Q4 and Q5 repeat a column: the four sides whose environment keys
        # repeat are blocks, and the five other sides holding both reach
        # only q of their q^s kept keys
        diagonal, blocks, eigen_calls = per_mask_paths(
            monkeypatch, encode_state(non_mds_control())
        )
        assert sorted(blocks) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        assert eigen_calls == 4
        assert sorted(diagonal) == [(0, 4, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5), (4, 5)]


def per_mask_path_entropies(psi):
    """Every R-atomic entropy from the per-mask path alone, one _reduce per mask."""
    n, total = psi.num_registers - psi.num_ref, psi.num_registers
    values = []
    for mask in range(2 << n):
        positions = spec_at(mask, n).registers(psi.num_ref, n)
        if 2 * len(positions) > total:
            positions = [p for p in range(total) if p not in positions]
        values.append(sim._entropy(psi, positions) if positions else 0.0)
    return values


class TestBatchAgainstPerMaskPath:
    """The batch's values equal the per-mask reduction's bit for bit."""

    @pytest.mark.parametrize("params", DENSE_PARAMS)
    def test_desk_codes(self, params):
        psi = encode_state(make_code(*params))
        assert sim_entropy_table(psi).tolist() == per_mask_path_entropies(psi)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(DENSE_PARAMS), st.integers(0, 2**32 - 1))
    def test_code_supports_with_random_amplitudes(self, params, seed):
        # a code's support keeps every smaller side diagonal and full, and
        # unequal weights make each bin's summation order show in its last bits
        code = encode_state(make_code(*params))
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=len(code.amplitudes)) + 1j * rng.normal(size=len(code.amplitudes))
        psi = StateVector(code.q, code.num_registers, code.digits,
                          amps / np.linalg.norm(amps), num_ref=code.num_ref)
        assert sim_entropy_table(psi).tolist() == per_mask_path_entropies(psi)

    @pytest.mark.parametrize(
        "make_psi",
        [lambda: encode_state(make_code(5, 1, 3, 5)), lambda: encode_state(non_mds_control())],
        ids=["5-1-3-5", "non-mds-control"],
    )
    def test_state_without_a_common_weight_skips_the_batch(self, monkeypatch, make_psi):
        # one amplitude scaled away from the rest: no diagonal is counted
        code = make_psi()
        amps = np.array(code.amplitudes)
        amps[0] *= 1j
        amps[1] *= 0.5
        psi = StateVector(code.q, code.num_registers, code.digits, amps / np.linalg.norm(amps),
                          num_ref=code.num_ref)
        batches = []
        monkeypatch.setattr(sim, "_diagonal_counts", lambda *args: batches.append(args))
        assert sim_entropy_table(psi).tobytes() == np.array(per_mask_path_entropies(psi)).tobytes()
        assert batches == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(st.integers(0, 80), min_size=1, max_size=30),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2]),
    )
    def test_random_states(self, keys, seed, num_ref):
        # arbitrary supports send masks of one size group down both paths
        keys = sorted(keys)
        digits = np.array([[key // 3**r % 3 for r in (3, 2, 1, 0)] for key in keys])
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        psi = StateVector(3, 4, digits, amps / np.linalg.norm(amps), num_ref=num_ref)
        assert sim_entropy_table(psi).tolist() == per_mask_path_entropies(psi)


def smaller_sides(psi):
    """Register positions of every R-atomic subsystem no larger than its complement."""
    n, total = psi.num_registers - psi.num_ref, psi.num_registers
    sides = [tuple(spec_at(mask, n).registers(psi.num_ref, n)) for mask in range(2 << n)]
    return [side for side in sides if 0 < 2 * len(side) <= total]


def injective(psi, positions):
    """Whether the support rows are pairwise distinct on ``positions``, by brute force."""
    return len(set(map(tuple, psi.digits[:, list(positions)].tolist()))) == len(psi.amplitudes)


def qutrit_state(digits, seed, num_ref):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=len(digits)) + 1j * rng.normal(size=len(digits))
    return StateVector(3, 4, digits, amps / np.linalg.norm(amps), num_ref=num_ref)


class TestDiagonalCertificate:
    """The batch keeps a smaller side's value only when some computed
    R-atomic subset of its complement has injective kept keys; that proves
    the environment keys distinct without building them."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_kept_masks_have_distinct_environments(self, data, seed, num_ref):
        # four qutrits; a "graph" support of q^2 = 9 rows is injective on one
        # R-atomic pair, so certificates fire for the sides outside it
        pairs = [(0, 1), (2, 3)] if num_ref == 2 else list(itertools.combinations(range(4), 2))
        pair = None
        if data.draw(st.booleans()):
            size = data.draw(st.sampled_from([3, 9]) | st.integers(1, 30))
            keys = sorted(data.draw(st.sets(st.integers(0, 80), min_size=size, max_size=size)))
            digits = np.array([[key // 3**r % 3 for r in (3, 2, 1, 0)] for key in keys])
        else:
            pair = data.draw(st.sampled_from(pairs))
            # a permutation makes the other two registers injective too
            rest = data.draw(st.permutations(range(9)) | st.lists(st.integers(0, 8), min_size=9,
                                                                  max_size=9))
            digits = np.zeros((9, 4), dtype=np.int64)
            digits[:, pair] = np.column_stack(np.divmod(np.arange(9), 3))
            digits[:, [r for r in range(4) if r not in pair]] = np.column_stack(np.divmod(rest, 3))
        # one weight on every row, so the batch counts the diagonals; the
        # random signs leave every |amp|^2 bit-equal
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=len(digits))
        psi = StateVector(3, 4, digits, signs / np.sqrt(len(digits)), num_ref=num_ref)
        with pytest.MonkeyPatch.context() as monkeypatch:
            diagonal, blocks, _ = per_mask_paths(monkeypatch, psi)
        kept = [side for side in smaller_sides(psi) if side not in diagonal + blocks]
        for side in kept:
            assert injective(psi, [p for p in range(4) if p not in side]), side
        assert sim_entropy_table(psi).tolist() == per_mask_path_entropies(psi)
        if pair is not None:
            # complete: a side outside the pair whose diagonal is flat is kept
            for side in smaller_sides(psi):
                _, counts = np.unique(psi.digits[:, list(side)], axis=0, return_counts=True)
                flat = counts.size == 3 ** len(side) and counts.min() == counts.max()
                if not set(pair) & set(side) and flat:
                    assert side in kept, side

    def test_distinct_environments_without_an_injective_set(self, monkeypatch):
        # 10 rows, distinct on Q1..Q3, so R's reduced state is diagonal and
        # reaches all three kept keys; but 10 rows exceed the q^2 = 9 values
        # of any pair, and no single register or pair inside Q1..Q3 is
        # injective, so nothing certifies R and it takes the per-mask path
        rng = np.random.default_rng(17)
        qs = rng.choice(27, size=10, replace=False)
        digits = np.column_stack([np.arange(10) % 3, qs // 9, qs // 3 % 3, qs % 3])
        psi = qutrit_state(digits, 17, num_ref=1)
        assert injective(psi, (1, 2, 3))
        for size in (1, 2):
            for positions in itertools.combinations((1, 2, 3), size):
                assert not injective(psi, positions)
        diagonal, blocks, _ = per_mask_paths(monkeypatch, psi)
        assert (0,) in diagonal
        table = sim_entropy_table(psi)
        # R alone is mask 2^3 = 8, and Q1..Q3 reads its entry
        assert table[8] == table[7] == sim._entropy(psi, [0])
        assert table[8] == pytest.approx(dense_entropy(psi, [0]), abs=1e-12)
        assert table.tolist() == per_mask_path_entropies(psi)

    @pytest.mark.parametrize("params", DESK_PARAMS)
    def test_desk_codes_build_no_environment_keys(self, monkeypatch, params):
        psi = encode_state(make_code(*params))
        widths = []
        horner = sim._horner

        def recording(registers, columns, q):
            widths.append(np.shape(columns)[-1])
            return horner(registers, columns, q)

        monkeypatch.setattr(sim, "_horner", recording)
        sim_entropy_table(psi)
        assert widths and max(widths) <= psi.num_registers // 2


class TestChunking:
    """Chunks of any size give the default table, bit for bit, and keep
    every key array within the byte budget."""

    @pytest.mark.parametrize(
        "make_psi",
        [
            lambda: encode_state(make_code(7, 1, 4, 7)),
            lambda: encode_state(make_code(5, 3, 2, 5)),
            lambda: encode_state(non_mds_control()),
        ],
        ids=["7-1-4-7", "5-3-2-5", "non-mds-control"],
    )
    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_chunked_table_is_the_default(self, monkeypatch, make_psi, per_chunk):
        psi = make_psi()
        default = sim_entropy_table(psi)
        budget = per_chunk * 8 * len(psi.amplitudes)
        chunks = []
        horner = sim._horner

        def checked(registers, columns, q):
            keys = horner(registers, columns, q)
            assert keys.nbytes <= budget
            chunks.append(len(keys))
            return keys

        monkeypatch.setattr(sim, "KEY_BUDGET", budget)
        monkeypatch.setattr(sim, "_horner", checked)
        assert sim_entropy_table(psi).tobytes() == default.tobytes()
        assert max(chunks) == per_chunk
        if per_chunk > 1:
            # some size group splits unevenly
            assert min(chunks) < per_chunk


class TestCountedDiagonals:
    """A state with one weight on every row has its diagonals counted in
    integers: each must count every row, and a flat one reads log_q q^s
    exactly; the count path refuses what it cannot certify."""

    def test_trace_of_823543_equal_weights_is_exact(self):
        # summing 7^7 equal float weights drifts past TRACE_TOL = 1e-12
        # (1.0000000000016718); counting them does not
        digits = np.indices((7,) * 7, dtype=np.uint8).reshape(7, -1).T
        psi = StateVector(7, 7, digits, np.full(7**7, 7**-3.5), num_ref=1)
        registers = np.ascontiguousarray(psi.digits.T)
        flat, injective = sim._diagonal_counts(7, registers, np.arange(7)[:, None])
        assert flat.all()
        assert not injective.any()

    @pytest.mark.parametrize("params", DESK_PARAMS)
    def test_mds_tables_are_the_rank_table_exactly(self, params):
        code = make_code(*params)
        assert sim_entropy_table(encode_state(code)).tolist() == full_profile(code).table.tolist()

    def test_flat_entropy_is_the_exponent_on_powers_of_q(self):
        assert [sim._flat_entropy(bins, 7) for bins in (1, 7, 49, 7**6)] == [0.0, 1.0, 2.0, 6.0]
        assert sim._flat_entropy(6, 3) == pytest.approx(np.log(6) / np.log(3), abs=1e-15)

    def test_full_diagonal_that_is_not_flat_leaves_the_batch(self, monkeypatch):
        # nine rows of one weight, injective on Q1 Q2, so R is certified
        # diagonal; its full diagonal counts 4, 3 and 2 rows, not flat
        rows = np.arange(9)
        digits = np.column_stack([[0, 0, 0, 0, 1, 1, 1, 2, 2], rows // 3, rows % 3, 0 * rows])
        psi = StateVector(3, 4, digits, np.full(9, 1 / 3), num_ref=1)
        diagonal, blocks, _ = per_mask_paths(monkeypatch, psi)
        assert (0,) in diagonal
        table = sim_entropy_table(psi)
        # R alone is mask 2^3 = 8
        assert table[8] == pytest.approx(dense_entropy(psi, [0]), abs=1e-12)
        assert abs(table[8] - 1.0) > 0.03
        assert table.tolist() == per_mask_path_entropies(psi)

    def test_flat_diagonal_without_a_common_weight(self, monkeypatch):
        # five unequal weights, added in one order to each of R's five
        # bins: R takes the per-mask path, which reads the diagonal flat,
        # where -sum(lam log_5 lam) would give 1 + 2^-52
        rows = np.arange(25)
        digits = np.column_stack([rows % 5, rows // 5, rows % 5, 0 * rows])
        weights = np.random.default_rng(0).random(5)
        amps = np.sqrt(np.repeat(weights / (5 * weights.sum()), 5))
        psi = StateVector(5, 4, digits, amps, num_ref=1)
        diagonal = np.bincount(rows % 5, np.abs(psi.amplitudes) ** 2)
        assert diagonal.min() == diagonal.max()
        assert -np.sum(np.log(diagonal) / np.log(5) * diagonal) == 1.0000000000000002
        paths, blocks, _ = per_mask_paths(monkeypatch, psi)
        assert (0,) in paths
        table = sim_entropy_table(psi)
        assert table[8] == 1.0
        assert table.tolist() == per_mask_path_entropies(psi)

    @pytest.mark.parametrize("row", [0, -1])
    def test_key_past_its_width_is_refused(self, monkeypatch, row):
        # row 0's key lands in row 1's bins; the last row's is dropped
        psi = encode_state(make_code(5, 1, 3, 7))
        horner = sim._horner

        def pushed(registers, columns, q):
            keys = horner(registers, columns, q)
            if np.ndim(columns) == 2 and len(columns) > 1:
                keys[row, 0] += q ** np.shape(columns)[1]
            return keys

        monkeypatch.setattr(sim, "_horner", pushed)
        with pytest.raises(ValueError, match="a diagonal must count all 343 rows: got 342"):
            sim_entropy_table(psi)
