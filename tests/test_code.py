import itertools
import json
import re

import numpy as np
import pytest

from qmds import (
    CodeParams,
    QuantumMdsCode,
    SingularMatrixError,
    erasure_submatrices,
    from_descriptor,
    rank,
    smallest_prime_at_least,
    to_descriptor,
    validate,
)
from qmds import code as code_module, linalg
from qmds.code import _check_index_set, group_indices, index_groups

from conftest import DESK_PARAMS, make_code, non_mds_control


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
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(args) or rref(*args))
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
    def test_hand_worked_3_1_2(self):
        code = make_code(3, 1, 2, 3)
        surviving_block, erased_block = erasure_submatrices(code, [1, 2])
        assert surviving_block.tolist() == [[0, 1], [1, 1]]
        # bottom d-1 rows of the erased block form the seed-facing square
        assert erased_block.tolist() == [[2], [1]]
        assert erased_block[1:].tolist() == [[1]]

    def test_wrong_size_rejected(self):
        code = make_code(3, 1, 2, 3)
        with pytest.raises(ValueError, match="n-\\(d-1\\)=2"):
            erasure_submatrices(code, [1])

    def test_out_of_range_rejected(self):
        code = make_code(3, 1, 2, 3)
        with pytest.raises(ValueError, match="1..3"):
            erasure_submatrices(code, [1, 4])

    def test_duplicates_rejected(self):
        code = make_code(5, 1, 3, 5)
        with pytest.raises(ValueError, match="duplicate"):
            erasure_submatrices(code, [1, 2, 2])

    @pytest.mark.parametrize(
        "surviving, what, rank_found",
        [([1, 4, 5], "surviving-column block [1, 4, 5]", 2),
         ([1, 2, 3], "erased-column seed block [4, 5]", 1)],
        ids=["surviving", "erased-seed"],
    )
    def test_singular_block_raises_typed_error(self, surviving, what, rank_found):
        # the control repeats Q4's column in Q5
        with pytest.raises(SingularMatrixError, match=re.escape(what)) as excinfo:
            erasure_submatrices(non_mds_control(), surviving)
        assert excinfo.value.rank == rank_found
        assert excinfo.value.size == rank_found + 1

    def test_all_blocks_invertible_4_2_2(self):
        code = make_code(4, 2, 2, 5)
        for surviving in itertools.combinations(range(1, 5), 3):
            block, _ = erasure_submatrices(code, surviving)
            assert block.shape == (3, 3)
            assert rank(block, 5) == 3


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
        assert all(r.passed for r in report.results)

    def test_check_counts(self):
        import math

        code = make_code(5, 1, 3, 5)
        report = validate(code)
        expected = 4 + math.comb(5, 3) + math.comb(5, 2)
        assert len(report.results) == expected

    def test_report_lines_open_with_the_status_line(self):
        good, bad = validate(make_code(3, 1, 2, 3)), validate(forged_non_mds_code())
        assert good.lines()[0] == f"[ok] {good.title}"
        assert bad.lines() == [f"[FAIL] {bad.title}", *("  " + r.line() for r in bad.results)]

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
        failing = [r.name for r in report.failures()]
        assert "evaluation points distinct" in failing


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
        assert [(r.name, r.passed) for r in report.results[4:]] == per_minor_lines(code)
        assert report.ok

    def test_repeated_points_fail_the_same_minors(self):
        code = forged_non_mds_code()
        report = validate(code)
        expected = per_minor_lines(code)
        assert [(r.name, r.passed) for r in report.results[4:]] == expected
        failing = [r.name for r in report.failures()]
        # a minor fails exactly when it holds both copies of the point 3
        assert "evaluation points distinct" in failing
        assert "AB columns [1, 4, 5] invertible" in failing
        assert "B columns [4, 5] invertible" in failing
        assert len(failing) == 1 + 3 + 1
        # JSON-ready Python bools, not numpy ones
        assert {type(r.passed) for r in report.results} == {bool}

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
