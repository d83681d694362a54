import itertools
import json
import re

import numpy as np
import pytest

from qmds import (
    CodeParams,
    QuantumMdsCode,
    SingularMatrixError,
    decoded_fidelity,
    encode_state,
    from_descriptor,
    rank,
    smallest_prime_at_least,
    to_descriptor,
    validate,
)
from qmds import code as code_module, linalg
from qmds.code import SubsetLayout, _check_index_set, group_indices, index_groups, subset_layout
from qmds.reporting import Check, status_line

from conftest import DESK_PARAMS, erasure_blocks, inverse_mod, make_code, non_mds_control


class TestCodeParams:
    def test_valid_reference_parameters(self):
        for n, k, d, q in DESK_PARAMS:
            p = CodeParams(n=n, k=k, d=d, q=q)
            assert p.generator_rank == k + d - 1
            assert p.num_registers == k + n

    def test_singleton_equality_enforced(self):
        with pytest.raises(ValueError, match="k\\+2\\(d-1\\)"):
            CodeParams(n=3, k=2, d=2, q=5)
        with pytest.raises(ValueError, match="k\\+2\\(d-1\\)"):
            CodeParams(n=5, k=1, d=2, q=5)

    def test_q_must_be_prime(self):
        with pytest.raises(ValueError, match="prime"):
            CodeParams(n=4, k=2, d=2, q=4)

    def test_q_bounded_below_2_31(self):
        for q in (2**31, 4294967311):
            with pytest.raises(ValueError, match="below 2\\^31"):
                CodeParams(n=5, k=1, d=3, q=q)
        with pytest.raises(ValueError, match="below 2\\^31"):
            smallest_prime_at_least(2**31)

    def test_largest_accepted_q_gives_exact_ranks(self):
        # q = 2^31 - 1: residue products come close to 2^62 and must not wrap
        code = make_code(5, 1, 3, 2**31 - 1, alphas=[2**31 - 2, 2**30, 7, 3, 2**31 - 9])
        assert validate(code).ok
        assert smallest_prime_at_least(2**31 - 10) == 2**31 - 1

    def test_q_must_cover_n(self):
        with pytest.raises(ValueError, match="at least n"):
            CodeParams(n=5, k=1, d=3, q=3)

    def test_k_and_d_floors(self):
        with pytest.raises(ValueError, match="k must be"):
            CodeParams(n=2, k=0, d=2, q=3)
        with pytest.raises(ValueError, match="d must be"):
            CodeParams(n=1, k=1, d=1, q=3)

    @pytest.mark.parametrize("field", ["n", "k", "d", "q"])
    @pytest.mark.parametrize("bad", [5.0, True, "5", None], ids=["float", "bool", "str", "None"])
    def test_non_integer_field_refused(self, field, bad):
        # refused by name, not coerced and not left to fail later
        values = {**dict(n=5, k=1, d=3, q=5), field: bad}
        with pytest.raises(ValueError, match=f"'{field}' must be an integer"):
            CodeParams(**values)

    @pytest.mark.parametrize("field", ["n", "k", "d", "q"])
    def test_numpy_integer_field_accepted(self, field):
        values = dict(n=5, k=1, d=3, q=5)
        values[field] = np.int64(values[field])
        params = CodeParams(**values)
        assert params == CodeParams(n=5, k=1, d=3, q=5)
        assert type(getattr(params, field)) is int


class TestConstruction:
    def test_vandermonde_3_1_2(self):
        code = make_code(3, 1, 2, 3)
        assert code.alphas == (0, 1, 2)
        assert code.AB.tolist() == [[0, 1, 2], [1, 1, 1]]
        assert code.A.tolist() == [[0, 1, 2]]
        assert code.B.tolist() == [[1, 1, 1]]

    def test_vandermonde_4_2_2(self):
        code = make_code(4, 2, 2, 5, alphas=[0, 1, 2, 3])
        # rows are alpha**2, alpha, 1
        assert code.AB.tolist() == [[0, 1, 4, 4], [0, 1, 2, 3], [1, 1, 1, 1]]

    def test_joint_generator_layout(self):
        code = make_code(4, 2, 2, 5)
        g = code.G
        assert g.shape == (3, 6)
        # reference block: first k columns are standard basis vectors
        assert np.array_equal(g[:, :2], [[1, 0], [0, 1], [0, 0]])
        assert np.array_equal(g[:, 2:], code.AB)
        assert rank(code.G, 5) == 3

    def test_matrices_are_read_only_int64(self):
        code = make_code(4, 2, 2, 5)
        for matrix in (code.AB, code.A, code.B, code.G):
            assert matrix.dtype == np.int64
            with pytest.raises(ValueError):
                matrix[0, 0] = 1

    def test_all_ones_row_with_zero_point(self):
        # evaluation point 0 must still contribute a 1 in the bottom row
        code = make_code(3, 1, 2, 3)
        assert code.AB.tolist()[-1] == [1, 1, 1]

    @pytest.mark.parametrize(
        "params, alphas",
        [
            ((9, 1, 5, 11), [3, 0, 10, 7, 1, 9, 2, 5, 8]),
            ((10, 4, 4, 13), [12, 5, 0, 1, 11, 2, 7, 3, 6, 9]),
            ((5, 1, 3, 2**31 - 1), [2**31 - 2, 0, 2**30, 7, 2**31 - 9]),
        ],
    )
    def test_power_rows_match_pow(self, params, alphas):
        # the row recurrence against Python's pow, 0 ** 0 = 1 included
        code = make_code(*params, alphas=alphas)
        q, m = params[3], code.params.generator_rank
        expected = [[pow(a, m - 1 - r, q) for a in alphas] for r in range(m)]
        assert code.AB.tolist() == expected

    def test_custom_alphas_respected(self):
        code = make_code(3, 1, 2, 7, alphas=[2, 4, 6])
        assert code.AB.tolist() == [[2, 4, 6], [1, 1, 1]]

    def test_duplicate_alphas_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_code(3, 1, 2, 3, alphas=[0, 1, 1])

    def test_alphas_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="points must lie"):
            make_code(3, 1, 2, 3, alphas=[0, 1, 3])

    def test_alphas_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="exactly n=3"):
            make_code(3, 1, 2, 3, alphas=[0, 1])

    def test_numpy_integer_alphas_accepted(self):
        code = make_code(3, 1, 2, 3, alphas=np.arange(3))
        assert code.alphas == (0, 1, 2)
        assert all(type(a) is int for a in code.alphas)

    def test_construction_deterministic(self):
        params = CodeParams(n=4, k=2, d=2, q=5)
        first = QuantumMdsCode(params)
        second = QuantumMdsCode(first.params, first.alphas)
        assert first == second
        assert np.array_equal(first.AB, second.AB)
        assert np.array_equal(first.G, second.G)

    def test_mds_property_all_small_codes(self):
        # every full-size square column submatrix of AB is invertible
        for n, k, d, q in DESK_PARAMS:
            if n > 6:
                continue
            code = make_code(n, k, d, q)
            m = code.params.generator_rank
            for cols in itertools.combinations(range(n), m):
                assert rank(code.AB[:, cols], q) == m, (n, k, d, q, cols)

    def test_construction_runs_no_elimination(self, monkeypatch):
        # distinct points make every m columns of AB a Vandermonde matrix,
        # so building a code takes no rank
        calls = []
        core = linalg._rref_rows
        monkeypatch.setattr(linalg, "_rref_rows", lambda *args: calls.append(args) or core(*args))
        for params in DESK_PARAMS:
            QuantumMdsCode(CodeParams(*params))
        assert calls == []

    def test_generator_entries_are_bounded(self, monkeypatch):
        # [[3,1,2]]_3 has a 2 x 4 generator G
        monkeypatch.setattr(code_module, "MAX_CELLS", 8)
        assert QuantumMdsCode(CodeParams(3, 1, 2, 3)).G.size == 8
        monkeypatch.setattr(code_module, "MAX_CELLS", 7)
        with pytest.raises(ValueError, match=re.escape("2 x 4 entries, beyond the 7 guard")):
            QuantumMdsCode(CodeParams(3, 1, 2, 3))


class TestErasureSubmatrices:
    """The erasure blocks decoding inverts, the surviving columns of AB and the
    erased seed block, reached through decoded_fidelity."""

    def test_hand_worked_3_1_2(self):
        code = make_code(3, 1, 2, 3)
        surviving_block, erased_block = erasure_blocks(code, [1, 2])
        assert surviving_block.tolist() == [[0, 1], [1, 1]]
        # bottom d-1 rows of the erased block form the seed-facing square
        assert erased_block.tolist() == [[2], [1]]
        # the step AB_surviving^-1 [E | AB_erased] by hand over GF(3):
        # [[2, 1], [1, 0]] @ [[1, 2], [0, 1]] = [[2, 2], [1, 2]]
        assert inverse_mod(surviving_block, 3).tolist() == [[2, 1], [1, 0]]
        # k = 1: Q1 and Q2 are registers 1 and 2, their partners R and Q3 are 0 and 3
        assert code_module._decoding_step(code, [1, 2], [0, 3], 0b011) == [[2, 2], [1, 2]]

    def test_wrong_size_rejected(self):
        code = make_code(3, 1, 2, 3)
        with pytest.raises(ValueError, match="n-\\(d-1\\)=2"):
            decoded_fidelity(encode_state(code), code, [1])

    def test_out_of_range_rejected(self):
        code = make_code(3, 1, 2, 3)
        with pytest.raises(ValueError, match="1..3"):
            decoded_fidelity(encode_state(code), code, [1, 4])

    def test_duplicates_rejected(self):
        code = make_code(5, 1, 3, 5)
        with pytest.raises(ValueError, match="duplicate"):
            decoded_fidelity(encode_state(code), code, [1, 2, 2])

    @pytest.mark.parametrize(
        "surviving, what, rank_found",
        [([1, 4, 5], "surviving-column block [1, 4, 5]", 2),
         ([1, 2, 3], "erased-column seed block [4, 5]", 1)],
        ids=["surviving", "erased-seed"],
    )
    def test_singular_block_raises_typed_error(self, surviving, what, rank_found):
        # the control repeats Q4's column in Q5
        control = non_mds_control()
        with pytest.raises(SingularMatrixError, match=re.escape(what)) as excinfo:
            decoded_fidelity(encode_state(control), control, surviving)
        assert excinfo.value.rank == rank_found
        assert excinfo.value.size == rank_found + 1
        assert str(excinfo.value) == (
            f"{what} is singular: rank {rank_found} < size {rank_found + 1} (deficit 1)"
        )

    def test_all_blocks_invertible_4_2_2(self):
        code = make_code(4, 2, 2, 5)
        psi = encode_state(code)
        for surviving in itertools.combinations(range(1, 5), 3):
            block, _ = erasure_blocks(code, surviving)
            assert block.shape == (3, 3)
            assert rank(block, 5) == 3
            assert decoded_fidelity(psi, code, surviving) == pytest.approx(1.0, abs=1e-12)


class TestIndexSetCheck:
    @pytest.mark.parametrize(
        "what, formula, size", [("surviving", "n-(d-1)", 3), ("erasure", "d-1", 2)]
    )
    def test_duplicate_range_and_size_errors(self, what, formula, size):
        # n = 5, d = 3
        for indices, message in (
            ([1] * size, f"{what} set has duplicate indices"),
            ([6, *range(2, size + 1)], f"{what} indices must lie in 1..5"),
            ([*range(1, size + 2)], f"{what} set must have exactly {formula}={size} indices"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                _check_index_set(5, indices, what, formula, size)
        assert _check_index_set(5, range(size, 0, -1), what, formula, size) == [*range(1, size + 1)]


class TestValidate:
    @pytest.mark.parametrize("params", [(3, 1, 2, 3), (5, 1, 3, 5), (4, 2, 2, 5)])
    def test_reference_codes_pass(self, params):
        report = validate(make_code(*params))
        assert report.ok
        assert report.details == ()

    def test_check_counts(self):
        import math

        code = make_code(5, 1, 3, 5)
        report = validate(code)
        expected = 4 + math.comb(5, 3) + math.comb(5, 2)
        assert report.title == f"validation of [[5,1,3]]_5 ({expected} checks)"

    def test_report_lines_open_with_the_status_line(self):
        good, bad = validate(make_code(3, 1, 2, 3)), validate(forged_non_mds_code())
        assert good.lines()[0] == f"[ok] {good.title}"
        assert bad.details
        assert bad.lines() == [f"[FAIL] {bad.title}", *("  " + line for line in bad.details)]

    def test_tampered_code_fails_distinctness(self):
        # forge an object with a duplicated evaluation point, bypassing the
        # constructor guard, so the validator's own checks are exercised
        good = make_code(3, 1, 2, 3)
        bad = object.__new__(QuantumMdsCode)
        for attr in ("params", "alphas", "AB", "A", "B", "G"):
            setattr(bad, attr, getattr(good, attr))
        bad.alphas = (0, 1, 1)
        report = validate(bad)
        assert not report.ok
        assert "[FAIL] evaluation points distinct: alphas=[0, 1, 1]" in report.details


def failing_minor_lines(code):
    """The status lines ``validate`` prints for the failing ``per_minor_lines``."""
    return [status_line(False, name) for name, passed in per_minor_lines(code) if not passed]


def validation_title(code):
    """``validate``'s title: four whole-code checks, then one per minor."""
    p = code.params
    return f"validation of [[{p.n},{p.k},{p.d}]]_{p.q} ({4 + len(per_minor_lines(code))} checks)"


def per_minor_lines(code):
    """The minor checks of ``validate``, one ``rank`` elimination per minor."""
    n, d, q, m = code.params.n, code.params.d, code.params.q, code.params.generator_rank
    lines = []
    for name, block, size in (("AB", code.AB, m), ("B", code.B, d - 1)):
        for cols in itertools.combinations(range(n), size):
            passed = rank(block[:, cols], q) == size
            lines.append((f"{name} columns {[c + 1 for c in cols]} invertible", passed))
    return lines


def forged_non_mds_code():
    """A QuantumMdsCode object carrying the non-MDS control's matrices."""
    control = non_mds_control()
    bad = object.__new__(QuantumMdsCode)
    for attr in ("params", "alphas", "AB", "A", "B", "G"):
        setattr(bad, attr, getattr(control, attr))
    return bad


class TestValidateMinorTable:
    """The minor checks are read off rank tables; they must say what
    one elimination per minor says, passes and failures alike."""

    @pytest.mark.parametrize("params", DESK_PARAMS)
    def test_desk_codes_match_per_minor_ranks(self, params):
        code = make_code(*params)
        report = validate(code)
        assert report == Check(True, validation_title(code), ())
        assert failing_minor_lines(code) == []

    def test_repeated_points_fail_the_same_minors(self):
        code = forged_non_mds_code()
        report = validate(code)
        expected = failing_minor_lines(code)
        assert report.details == ("[FAIL] evaluation points distinct: alphas=[0, 1, 2, 3, 3]",
                                  *expected)
        assert report.title == validation_title(code)
        # a minor fails exactly when it holds both copies of the point 3
        assert "[FAIL] AB columns [1, 4, 5] invertible" in expected
        assert "[FAIL] B columns [4, 5] invertible" in expected
        assert len(expected) == 3 + 1
        # a Python bool, not a numpy one
        assert type(report.ok) is bool

    def test_past_the_mask_guard_is_refused(self, monkeypatch):
        # 2^19 column subsets of AB; [[19,1,10]] once took C(19,10) eliminations.
        # The guard speaks before a single minor's group is listed.
        def unlisted(*args):
            raise AssertionError("a group was listed before the guard")

        monkeypatch.setattr(itertools, "combinations", unlisted)
        code = make_code(19, 1, 10, 19)
        with pytest.raises(ValueError, match="2\\^19 column subsets"):
            validate(code)


class TestIndexGroups:
    def test_order_by_size_then_lexicographic(self):
        masks = index_groups(4, range(3))
        assert [group_indices(mask) for mask in masks] == [
            (),
            (1,), (2,), (3,), (4,),
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]
        # sizes are taken in ascending order whatever order they are given in
        assert index_groups(4, [2, 0]).tolist() == [0] + masks[5:].tolist()

    def test_size_zero_is_the_empty_group(self):
        masks = index_groups(5, [0])
        assert masks.tolist() == [0]
        assert group_indices(masks[0]) == ()

    @pytest.mark.parametrize("n", [1, 4, 7, 10])
    def test_masks_are_sums_of_index_bits(self, n):
        masks = index_groups(n, range(n + 1))
        assert masks.dtype == np.int64
        groups = [g for size in range(n + 1) for g in itertools.combinations(range(1, n + 1), size)]
        assert masks.tolist() == [sum(2 ** (i - 1) for i in g) for g in groups]
        # every subset of 1..n exactly once
        assert sorted(masks.tolist()) == list(range(2**n))

    def test_masks_are_read_only_and_built_once(self):
        masks = index_groups(6, [3, 1])
        assert not masks.flags.writeable
        assert index_groups(6, (1, 3)) is masks
        with pytest.raises(ValueError, match="read-only"):
            masks[0] = 0

    def test_size_past_n_lists_nothing(self):
        masks = index_groups(3, [4])
        assert masks.dtype == np.int64
        assert masks.shape == (0,)

    def test_group_indices_round_trip(self):
        for n in range(11):
            for mask in range(2**n):
                indices = group_indices(mask)
                assert sum(2 ** (i - 1) for i in indices) == mask
                assert list(indices) == sorted(set(indices))
                assert all(type(i) is int and 1 <= i <= n for i in indices)
            groups = [g for size in range(n + 1) for g in itertools.combinations(range(1, n + 1), size)]
            assert [group_indices(mask) for mask in index_groups(n, range(n + 1))] == groups


# (k, n) pairs, k + n up to 12, for the layout against bit formulas
LAYOUT_LADDER = [(1, 2), (2, 2), (1, 4), (3, 2), (2, 4), (4, 3), (1, 8), (4, 6), (2, 10)]


class TestSubsetLayout:
    @pytest.mark.parametrize("k, n", LAYOUT_LADDER)
    def test_r_atomic_masks_and_counts_match_bit_formulas(self, k, n):
        # index R * 2^n + qmask holds registers (R ? 2^k - 1 : 0) | qmask << k
        layout = subset_layout(k, n)
        assert layout.full == (2 << n) - 1
        assert layout.parts == tuple((k + i,) for i in range(n)) + (tuple(range(k)),)
        for index in range(layout.full + 1):
            include_R, qmask = divmod(index, 1 << n)
            assert layout.registers[index] == include_R * ((1 << k) - 1) | qmask << k
            assert layout.counts[index] == k * include_R + bin(qmask).count("1")
        assert layout.counts.dtype == np.int8
        assert layout.registers.dtype == np.int64

    @pytest.mark.parametrize("k, n", LAYOUT_LADDER)
    def test_all_register_masks_and_counts_match_bit_formulas(self, k, n):
        # register r is bit r, so each union's register mask is its index
        layout = subset_layout(k, n, split_R=True)
        assert layout.full == (1 << (k + n)) - 1
        assert layout.parts == tuple((r,) for r in range(k + n))
        masks = np.arange(layout.full + 1)
        assert np.array_equal(layout.registers, masks)
        assert layout.counts.tolist() == [bin(mask).count("1") for mask in range(layout.full + 1)]

    @pytest.mark.parametrize("split_R", [False, True])
    @pytest.mark.parametrize("method", ["positions", "labels"])
    def test_mask_outside_the_unions_is_refused(self, method, split_R):
        layout = subset_layout(2, 3, split_R=split_R)
        full = layout.full
        for mask in (-1, full + 1, 2 * full + 1):
            with pytest.raises(ValueError, match=f"union mask {mask} lies outside 0..{full}"):
                getattr(layout, method)(mask)
        assert len(getattr(layout, method)(0)) == 0
        assert len(getattr(layout, method)(full)) == (5 if method == "positions" else len(layout.parts))

    @pytest.mark.parametrize("split_R", [False, True])
    @pytest.mark.parametrize("k, n", [(1, 4), (2, 4), (3, 5)])
    def test_unions_of_one_size_list_their_registers(self, k, n, split_R):
        layout = subset_layout(k, n, split_R=split_R)
        for size in range(k + n + 1):
            masks, positions = layout.of_size(size)
            expected = [m for m in range(layout.full + 1) if layout.counts[m] == size]
            assert masks.tolist() == expected
            assert positions.shape == (len(expected), size)
            for mask, registers in zip(masks.tolist(), positions.tolist()):
                register_mask = int(layout.registers[mask])
                assert registers == [r for r in range(k + n) if register_mask >> r & 1]
                # the complement holds every other register
                assert int(layout.registers[layout.full - mask]) == (1 << (k + n)) - 1 - register_mask

    @pytest.mark.parametrize("split_R", [False, True])
    @pytest.mark.parametrize("k, n", LAYOUT_LADDER)
    def test_positions_and_labels_match_register_masks(self, k, n, split_R):
        layout = subset_layout(k, n, split_R=split_R)
        names = [f"R{i}" for i in range(1, k + 1)] + [f"Q{i}" for i in range(1, n + 1)]
        for mask in range(layout.full + 1):
            register_mask = int(layout.registers[mask])
            registers = [r for r in range(k + n) if register_mask >> r & 1]
            assert layout.positions(mask) == registers
            expected = [names[r] for r in registers]
            if not split_R and mask >> n:
                # R is one part: its k registers carry the one name R
                expected = ["R"] + expected[k:]
            assert list(layout.labels(mask)) == expected

    @pytest.mark.parametrize("parts", [
        ((0, 1), (2,), (3, 4, 5)),
        ((3, 4, 5), (0, 1), (2,)),
        ((2, 5), (0,), (1, 3, 4)),
    ], ids=["in order", "out of order", "interleaved"])
    def test_parts_of_several_registers_match_brute_force(self, parts):
        names = ("A", "B", "C")
        layout = SubsetLayout(parts, names)
        assert layout.full == 7
        unions = []
        for mask in range(8):
            chosen = [j for j in range(3) if mask >> j & 1]
            registers = sorted(r for j in chosen for r in parts[j])
            unions.append(registers)
            assert layout.positions(mask) == registers
            assert layout.registers[mask] == sum(1 << r for r in registers)
            assert layout.counts[mask] == len(registers)
            # part names in the order of each part's first register
            chosen.sort(key=lambda j: min(parts[j]))
            assert layout.labels(mask) == tuple(names[j] for j in chosen)
        for size in range(7):
            masks, positions = layout.of_size(size)
            expected = [mask for mask in range(8) if len(unions[mask]) == size]
            assert masks.tolist() == expected
            assert positions.tolist() == [unions[mask] for mask in expected]
            assert positions.shape == (len(expected), size)

    def test_union_reads_build_no_table(self):
        # 61 coded qudits: a table per layout would hold 2^62 entries
        layout = subset_layout(1, 61)
        mask = 1 << 61 | 1 << 60 | 1
        assert layout.positions(mask) == [0, 1, 61]
        assert layout.labels(mask) == ("R", "Q1", "Q61")
        assert layout.positions(layout.full - mask) == list(range(2, 61))
        assert "registers" not in vars(layout) and "counts" not in vars(layout)

    def test_arrays_are_read_only(self):
        layout = subset_layout(2, 4)
        arrays = (layout.registers, layout.counts, *layout.of_size(3))
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_one_layout_per_shape(self):
        assert subset_layout(2, 4) is subset_layout(2, 4)
        assert subset_layout(2, 4, split_R=True) is subset_layout(2, 4, split_R=True)
        assert subset_layout(2, 4) is not subset_layout(2, 4, split_R=True)
        layout = subset_layout(3, 5)
        assert layout.of_size(2)[0] is layout.of_size(2)[0]


class TestDescriptor:
    def test_round_trip(self):
        code = make_code(4, 2, 2, 5)
        descriptor = to_descriptor(code)
        assert descriptor == {"q": 5, "n": 4, "k": 2, "d": 2, "alphas": [0, 1, 2, 3]}
        again = from_descriptor(json.loads(json.dumps(descriptor)))
        assert again == code

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            from_descriptor({"q": 3, "n": 3})

    def test_non_integer_field_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            from_descriptor({"q": "3", "n": 3, "k": 1, "d": 2})
        # bool is an int subclass; True must not stand in for 1
        with pytest.raises(ValueError, match="'k' must be an integer"):
            from_descriptor({"q": 3, "n": 3, "k": True, "d": 2})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            from_descriptor({"q": 4, "n": 4, "k": 2, "d": 2})

    def test_alphas_optional(self):
        code = from_descriptor({"q": 3, "n": 3, "k": 1, "d": 2})
        assert code.alphas == (0, 1, 2)


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(3) == 3
    assert smallest_prime_at_least(4) == 5
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(1) == 2
