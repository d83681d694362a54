from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmds import (
    Field,
    MatrixGF,
    SingularMatrixError,
    intersection_dim,
    invert,
    mat_vec,
    rank,
    rref,
)
from qmds.linalg import batched_rank

from conftest import brute_force_subspace_dim, make_code, span_vectors

GF3 = Field(3)


def test_rref_identity_fixed_point():
    m = MatrixGF.identity(2, GF3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == [0, 1]


def test_rref_zero_fixed_point():
    m = MatrixGF.zeros(2, 2, GF3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == []


def test_rref_hand_worked_example():
    # row-reduce [[0,1,2],[1,1,1]] over GF(3) by hand: swap rows, then
    # subtract the second row from the first -> [[1,0,2],[0,1,2]]
    m = MatrixGF([[0, 1, 2], [1, 1, 1]], GF3)
    reduced, pivots = rref(m)
    assert reduced.tolist() == [[1, 0, 2], [0, 1, 2]]
    assert pivots == [0, 1]


def test_rref_pivots_strictly_increasing():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        field = Field(q)
        for _ in range(20):
            shape = rng.integers(1, 6, size=2)
            m = MatrixGF(rng.integers(0, q, size=shape), field)
            _, pivots = rref(m)
            assert pivots == sorted(set(pivots))


def test_rank_examples():
    assert rank(MatrixGF.identity(4, GF3)) == 4
    assert rank(MatrixGF.zeros(3, 5, GF3)) == 0
    vandermonde_rows = MatrixGF([[0, 1, 2], [1, 1, 1]], GF3)
    assert rank(vandermonde_rows) == 2


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(11)
    for q in (2, 3, 5, 7, 11, 13):
        field = Field(q)
        for _ in range(25):
            shape = rng.integers(1, 7, size=2)
            m = MatrixGF(rng.integers(0, q, size=shape), field)
            assert rank(m) == rank(m.transpose())


def test_rank_against_row_space_enumeration():
    # |row space| = q**rank; enumerate it outright for tiny matrices
    rng = np.random.default_rng(13)
    for q in (2, 3):
        field = Field(q)
        for _ in range(10):
            m = MatrixGF(rng.integers(0, q, size=(3, 4)), field)
            row_span = span_vectors(m.transpose())
            assert q ** rank(m) == len(row_span)


def test_invert_identity():
    m = MatrixGF.identity(3, GF3)
    assert invert(m) == m


def test_invert_unipotent_example():
    m = MatrixGF([[1, 1], [0, 1]], GF3)
    assert invert(m).tolist() == [[1, 2], [0, 1]]


def test_invert_round_trip_random():
    rng = np.random.default_rng(17)
    for q in (2, 3, 5, 7):
        field = Field(q)
        identity = MatrixGF.identity(4, field)
        found = 0
        while found < 10:
            m = MatrixGF(rng.integers(0, q, size=(4, 4)), field)
            if rank(m) < 4:
                continue
            found += 1
            assert invert(m) @ m == identity
            assert m @ invert(m) == identity


def test_invert_singular_reports_deficit():
    m = MatrixGF([[1, 2, 0], [2, 4, 0], [0, 0, 1]], Field(5))
    with pytest.raises(SingularMatrixError) as excinfo:
        invert(m)
    assert excinfo.value.size == 3
    assert excinfo.value.rank == 2
    assert "deficit 1" in str(excinfo.value)


def test_invert_requires_square():
    with pytest.raises(ValueError):
        invert(MatrixGF.zeros(2, 3, GF3))


def test_intersection_dim_containment():
    e1 = MatrixGF([[1], [0]], GF3)
    e1e2 = MatrixGF.identity(2, GF3)
    assert intersection_dim(e1, e1e2) == 1


def test_intersection_dim_disjoint_spans():
    e1 = MatrixGF([[1], [0]], GF3)
    e2 = MatrixGF([[0], [1]], GF3)
    assert intersection_dim(e1, e2) == 0


def test_intersection_dim_code_column_example():
    # columns of the [[3,1,2]]_3 joint generator: Q1 against {R, Q2, Q3};
    # ranks are 1, 2 and the stack has rank 2, so the intersection is 1
    code = make_code(3, 1, 2, 3)
    u = code.G.column_submatrix([1])
    v = code.G.column_submatrix([0, 2, 3])
    assert intersection_dim(u, v) == 1


def test_intersection_dim_symmetry_and_self():
    rng = np.random.default_rng(19)
    for q in (2, 3, 5):
        field = Field(q)
        for _ in range(15):
            m = int(rng.integers(1, 5))
            u = MatrixGF(rng.integers(0, q, size=(m, int(rng.integers(1, 4)))), field)
            v = MatrixGF(rng.integers(0, q, size=(m, int(rng.integers(1, 4)))), field)
            assert intersection_dim(u, v) == intersection_dim(v, u)
            assert intersection_dim(u, u) == rank(u)


def test_intersection_dim_against_brute_force_enumeration():
    rng = np.random.default_rng(23)
    for q in (2, 3, 5):
        field = Field(q)
        for _ in range(12):
            m = int(rng.integers(1, 5))
            u = MatrixGF(rng.integers(0, q, size=(m, int(rng.integers(0, 4)))), field)
            v = MatrixGF(rng.integers(0, q, size=(m, int(rng.integers(0, 4)))), field)
            common = span_vectors(u) & span_vectors(v)
            assert intersection_dim(u, v) == brute_force_subspace_dim(len(common), q)


def test_intersection_dim_row_mismatch_rejected():
    with pytest.raises(ValueError):
        intersection_dim(MatrixGF.zeros(2, 1, GF3), MatrixGF.zeros(3, 1, GF3))


def test_mat_vec_identity_and_zero():
    m = MatrixGF.identity(3, GF3)
    assert mat_vec([1, 2, 0], m).tolist() == [1, 2, 0]
    any_m = MatrixGF([[1, 2], [2, 0], [1, 1]], GF3)
    assert mat_vec([0, 0, 0], any_m).tolist() == [0, 0]


def test_mat_vec_hand_worked_example():
    # (1,2) . [[0,1,2],[1,1,1]] = (0+2, 1+2, 2+2) = (2, 0, 1) mod 3
    m = MatrixGF([[0, 1, 2], [1, 1, 1]], GF3)
    assert mat_vec([1, 2], m).tolist() == [2, 0, 1]


def test_mat_vec_length_mismatch_rejected():
    with pytest.raises(ValueError):
        mat_vec([1, 2, 3], MatrixGF.identity(2, GF3))


def test_matrix_entries_reduced_and_immutable():
    m = MatrixGF([[4, -1], [3, 7]], GF3)
    assert m.tolist() == [[1, 2], [0, 1]]
    with pytest.raises(ValueError):
        m.array[0, 0] = 2


def test_matrix_getitem_returns_field_element():
    m = MatrixGF([[1, 2], [0, 1]], GF3)
    element = m[0, 1]
    assert element.value == 2
    assert element.field == GF3


BIG_Q = 2**31 - 1


@lru_cache(maxsize=None)
def field_of(q):
    return Field(q)


def test_products_exact_at_largest_q():
    # residues near 2^31: each product is near 2^62, a plain int64 dot
    # product of two of them would wrap
    rng = np.random.default_rng(7)
    field = field_of(BIG_Q)
    identity = MatrixGF.identity(3, field)
    m = MatrixGF(rng.integers(BIG_Q - 1000, BIG_Q, size=(3, 3)), field)
    assert rank(m) == 3
    assert invert(m) @ m == identity
    x = [BIG_Q - 1, BIG_Q - 2, BIG_Q - 3]
    expected = [sum(a * b for a, b in zip(x, col)) % BIG_Q for col in zip(*m.tolist())]
    assert mat_vec(x, m).tolist() == expected


@st.composite
def low_rank_stacks(draw):
    """(q, stack): B matrices m x w, each a product (m x r)(r x w) mod q, so
    rank <= r with forced dependencies; some columns zeroed like a mask."""
    q = draw(st.sampled_from([2, 3, 5, 7, 13, BIG_Q]))
    count = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    w = draw(st.integers(1, 7))
    r = draw(st.integers(0, min(m, w)))
    entries = st.integers(0, q - 1)
    left = draw(arrays(np.int64, (count, m, r), elements=entries))
    right = draw(arrays(np.int64, (count, r, w), elements=entries))
    keep = draw(arrays(np.int64, (count, 1, w), elements=st.integers(0, 1)))
    # exact object-integer product: int64 would wrap at BIG_Q
    stack = np.zeros((count, m, w), dtype=object)
    for b in range(count):
        stack[b] = left[b].astype(object) @ right[b].astype(object) % q if r else 0
    return q, (stack * keep).astype(np.int64)


@settings(max_examples=150, deadline=None)
@given(low_rank_stacks())
def test_batched_rank_matches_rank(case):
    q, stack = case
    expected = [rank(MatrixGF(matrix, field_of(q))) for matrix in stack]
    assert batched_rank(stack, q).tolist() == expected


def test_batched_rank_against_span_enumeration():
    rng = np.random.default_rng(3)
    stack = rng.integers(0, 3, size=(40, 3, 4))
    stack[::3, 2] = (stack[::3, 0] + 2 * stack[::3, 1]) % 3
    for matrix, r in zip(stack, batched_rank(stack, 3)):
        size = len(span_vectors(MatrixGF(matrix, GF3)))
        assert r == brute_force_subspace_dim(size, 3)


def test_batched_rank_edge_shapes():
    assert batched_rank(np.zeros((0, 3, 4), dtype=np.int64), 5).tolist() == []
    assert batched_rank(np.zeros((2, 0, 4), dtype=np.int64), 5).tolist() == [0, 0]
    assert batched_rank(np.zeros((2, 3, 0), dtype=np.int64), 5).tolist() == [0, 0]
    # entries are reduced mod q first: a multiple of q is zero
    assert batched_rank([[[5, 10], [0, 1]]], 5).tolist() == [1]
    with pytest.raises(ValueError, match="stack"):
        batched_rank(np.zeros((3, 4), dtype=np.int64), 5)
