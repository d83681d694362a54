import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds import (
    CodeParams,
    DensityMatrix,
    QuantumMdsCode,
    StateVector,
    SubsystemSpec,
    decode,
    decode_target,
    encode_state,
    erasure_submatrices,
    fidelity,
    full_profile,
    hermitian_eigenvalues,
    invert,
    partial_trace,
    subsystem_entropy,
    target_fidelity,
    von_neumann_entropy,
)
from qmds import sim
from qmds.sim import _decode_block
from qmds.sim import entropy_table as sim_entropy_table

from conftest import (
    DESK_PARAMS,
    dense_amplitudes,
    dense_decode,
    dense_entropy,
    dense_partial_trace,
    make_code,
    non_mds_control,
    radix_keys,
    spec_at,
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
        assert peak < 15e6

    def test_support_not_basis_size_is_guarded(self):
        # 7**10 basis states, but only 7**5 support rows
        psi = encode_state(make_code(7, 3, 3, 7))
        assert psi.digits.shape == (7**5, 10)


class TestPartialTrace:
    def test_single_coded_qudit_maximally_mixed(self):
        psi = encode_state(make_code(3, 1, 2, 3))
        rho = partial_trace(psi, SubsystemSpec(False, [1]))
        assert np.allclose(rho.entries, np.eye(3) / 3, atol=1e-12)

    def test_product_state_projector(self):
        psi = basis_state(2, (0, 0))  # |00>
        rho = partial_trace(psi, SubsystemSpec(False, [1]))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-12)

    def test_shared_environment_gives_coherences(self):
        # (|0> + |1>)/sqrt 2 on Q1, |0> on Q2: both rows share the
        # environment, so rho_Q1 = |+><+| has off-diagonal entries
        psi = StateVector(3, 2, [[0, 0], [1, 0]], [2**-0.5, 2**-0.5])
        rho = partial_trace(psi, SubsystemSpec(False, [1]))
        expected = np.zeros((3, 3))
        expected[:2, :2] = 0.5
        assert np.allclose(rho.entries, expected, atol=1e-12)
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
        mat = rho.entries
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
        assert abs(np.trace(mat) - 1.0) <= 1e-12

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
        # the block map is a permutation of GF(3)^2; undoing it on the
        # decoded support rows gives the encoded rows back exactly
        code = make_code(3, 1, 2, 3)
        psi = encode_state(code)
        out = decode(psi, code, [1, 2])
        block = np.array([[a, b] for a in range(3) for b in range(3)])
        image = radix_keys(_decode_block(code, [1, 2], block), 3)
        assert sorted(image.tolist()) == list(range(9))
        preimage = block[np.argsort(image)]
        back = preimage[radix_keys(out.digits[:, 1:3], 3)]
        assert np.array_equal(back, psi.digits[:, 1:3])
        assert np.array_equal(out.digits[:, [0, 3]], psi.digits[:, [0, 3]])
        assert np.array_equal(out.amplitudes, psi.amplitudes)

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
    ab_s, ab_e = erasure_submatrices(code, surviving)
    right = np.hstack((code.G[:, : p.k], ab_e)).astype(object)
    return invert(ab_s, p.q).astype(object) @ right % p.q


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
            _decode_block(code, [1, 2], np.array([[1, 2]], dtype=np.uint32))


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
    ab_s, _ = erasure_submatrices(code, surviving)
    positions = [p.k + i - 1 for i in surviving]
    digits = psi.digits.astype(np.int64)
    digits[:, positions] = digits[:, positions] @ invert(ab_s, p.q) % p.q
    return StateVector(p.q, p.num_registers, digits, psi.amplitudes, num_ref=p.k)


def assert_both_routes_agree(psi, code, surviving):
    expected = fidelity(psi, decode_target(code, surviving))
    assert abs(target_fidelity(psi, code, surviving) - expected) <= 1e-14
    return expected


class TestTargetFidelity:
    """The pair test against the listed target and its matched-row overlap."""

    @pytest.mark.parametrize("params", DESK_PARAMS)
    def test_every_pattern_of_the_desk_codes(self, params):
        code = make_code(*params)
        psi = encode_state(code)
        for surviving in patterns(code):
            decoded = decode(psi, code, surviving)
            assert assert_both_routes_agree(decoded, code, surviving) >= 1 - 1e-12
            assert_both_routes_agree(psi, code, surviving)
            assert_both_routes_agree(step_one_decoded(psi, code, surviving), code, surviving)

    @pytest.mark.parametrize("params", [(7, 1, 4, 11), (8, 2, 4, 11)])
    def test_reference_route_is_exact_at_larger_supports(self, params):
        # surviving 1..n-d+1; np.vdot's accumulation once drifted 1.6e-14
        # and 3.3e-13 from the pair test here
        code = make_code(*params)
        surviving = list(range(1, code.params.n - code.params.d + 2))
        decoded = decode(encode_state(code), code, surviving)
        reference = fidelity(decoded, decode_target(code, surviving))
        assert abs(reference - target_fidelity(decoded, code, surviving)) <= 1e-15

    def test_step_one_alone_misses_the_target(self):
        # the construction behind the CLI's second-step test reads below 1
        # on some pattern by both routes
        code = make_code(3, 1, 2, 3)
        psi = encode_state(code)
        values = [assert_both_routes_agree(step_one_decoded(psi, code, s), code, s)
                  for s in patterns(code)]
        assert min(values) < 1 - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(DESK_PARAMS), st.data())
    def test_random_states_on_the_code_registers(self, params, data):
        # random rows, some of them drawn from the target's support so the
        # overlap is not always 0, with random complex amplitudes
        code = make_code(*params)
        p = code.params
        surviving = sorted(data.draw(st.permutations(range(1, p.n + 1)))[: p.n - p.d + 1])
        target_rows = decode_target(code, surviving).digits
        picked = data.draw(st.sets(st.integers(0, len(target_rows) - 1), max_size=12))
        keys = set(radix_keys(target_rows[sorted(picked)], p.q).tolist())
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
        code = make_code(*params)
        surviving = list(range(1, code.params.n - code.params.d + 2))
        target = decode_target(code, surviving)
        rows = len(target.amplitudes)
        psi = StateVector(target.q, target.num_registers, target.digits[1:],
                          np.full(rows - 1, (rows - 1) ** -0.5), num_ref=target.num_ref)
        expected = assert_both_routes_agree(psi, code, surviving)
        assert expected == pytest.approx((rows - 1) / rows, abs=1e-12)
        assert target_fidelity(psi, code, surviving) < 1 - 1e-12

    def test_shape_mismatch_rejected(self):
        psi = encode_state(make_code(4, 2, 2, 5))
        with pytest.raises(ValueError, match="shapes"):
            target_fidelity(psi, make_code(3, 1, 2, 5), [1, 2])


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
        (qmds.linalg, "subset_ranks"),
        (qmds.entropy, "subset_ranks"),
        (qmds.entropy, "rank"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    psi = encode_state(code)
    for mask, h in enumerate(expected):
        spec = SubsystemSpec(mask >> 4, [i + 1 for i in range(4) if mask >> i & 1])
        assert von_neumann_entropy(psi, spec) == pytest.approx(h, abs=1e-9)
    assert np.max(np.abs(sim_entropy_table(psi) - expected)) <= 1e-9


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
        positions = spec.registers(code.params.k)
        assert von_neumann_entropy(psi, spec) == pytest.approx(
            dense_entropy(psi, positions), abs=1e-12
        )
        if 0 < len(positions) <= total // 2:
            rho = partial_trace(psi, spec).entries
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
                rho = partial_trace(psi, spec).entries
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
        positions = list(spec_at(mask, n).registers(psi.num_ref))
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
    sides = [tuple(spec_at(mask, n).registers(psi.num_ref)) for mask in range(2 << n)]
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
            rest = data.draw(st.lists(st.integers(0, 8), min_size=9, max_size=9))
            digits = np.zeros((9, 4), dtype=np.int64)
            digits[:, pair] = np.column_stack(np.divmod(np.arange(9), 3))
            digits[:, [r for r in range(4) if r not in pair]] = np.column_stack(np.divmod(rest, 3))
        psi = qutrit_state(digits, seed, num_ref)
        with pytest.MonkeyPatch.context() as monkeypatch:
            diagonal, blocks, _ = per_mask_paths(monkeypatch, psi)
        kept = [side for side in smaller_sides(psi) if side not in diagonal + blocks]
        for side in kept:
            assert injective(psi, [p for p in range(4) if p not in side]), side
        assert sim_entropy_table(psi).tolist() == per_mask_path_entropies(psi)
        if pair is not None:
            # complete: a side outside the pair whose diagonal is full is kept
            for side in smaller_sides(psi):
                reached = set(map(tuple, psi.digits[:, list(side)].tolist()))
                if not set(pair) & set(side) and len(reached) == 3 ** len(side):
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
