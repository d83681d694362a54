import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmds import gf, linalg, rank, subset_ranks

from conftest import brute_force_subspace_dim, inverse_mod, make_code, span_vectors


def rref(rows, q):
    """linalg._rref_rows on a copy of ``rows``, entries reduced mod q first."""
    return linalg._rref_rows([[x % q for x in row] for row in np.asarray(rows).tolist()], q)


def test_rref_identity_fixed_point():
    reduced, pivots = rref(np.eye(2, dtype=np.int64), 3)
    assert reduced == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_zero_fixed_point():
    reduced, pivots = rref(np.zeros((2, 2), dtype=np.int64), 3)
    assert reduced == [[0, 0], [0, 0]]
    assert pivots == []


def test_rref_refuses_a_vector():
    # rank row-reduces 2-D arrays only
    with pytest.raises(ValueError, match="2-dimensional, got ndim=1"):
        rank(np.arange(3), 5)


def test_rref_hand_worked_example():
    # row-reduce [[0,1,2],[1,1,1]] over GF(3) by hand: swap rows, then
    # subtract the second row from the first -> [[1,0,2],[0,1,2]]
    reduced, pivots = rref([[0, 1, 2], [1, 1, 1]], 3)
    assert reduced == [[1, 0, 2], [0, 1, 2]]
    assert pivots == [0, 1]


def test_rref_pivots_strictly_increasing():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        for _ in range(20):
            shape = rng.integers(1, 6, size=2)
            _, pivots = rref(rng.integers(0, q, size=shape), q)
            assert pivots == sorted(set(pivots))


def test_rank_examples():
    assert rank(np.eye(4, dtype=np.int64), 3) == 4
    assert rank(np.zeros((3, 5), dtype=np.int64), 3) == 0
    assert rank([[0, 1, 2], [1, 1, 1]], 3) == 2


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(11)
    for q in (2, 3, 5, 7, 11, 13):
        for _ in range(25):
            m = rng.integers(0, q, size=rng.integers(1, 7, size=2))
            assert rank(m, q) == rank(m.T, q)


def test_rank_against_row_space_enumeration():
    # |row space| = q**rank; enumerate it outright for tiny matrices
    rng = np.random.default_rng(13)
    for q in (2, 3):
        for _ in range(10):
            m = rng.integers(0, q, size=(3, 4))
            assert q ** rank(m, q) == len(span_vectors(m.T, q))


def intersection_dim(u, v, q):
    """dim(span u n span v) by the rank identity rank u + rank v - rank [u|v]."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return rank(u, q) + rank(v, q) - rank(np.hstack([u, v]), q)


def test_intersection_dim_code_column_example():
    # columns of the [[3,1,2]]_3 joint generator: Q1 against {R, Q2, Q3};
    # ranks are 1, 2 and the stack has rank 2, so the intersection is 1
    code = make_code(3, 1, 2, 3)
    assert intersection_dim(code.G[:, [1]], code.G[:, [0, 2, 3]], 3) == 1


def test_intersection_dim_against_brute_force_enumeration():
    rng = np.random.default_rng(23)
    for q in (2, 3, 5):
        for _ in range(12):
            m = int(rng.integers(1, 5))
            u = rng.integers(0, q, size=(m, int(rng.integers(0, 4))))
            v = rng.integers(0, q, size=(m, int(rng.integers(0, 4))))
            common = span_vectors(u, q) & span_vectors(v, q)
            assert intersection_dim(u, v, q) == brute_force_subspace_dim(len(common), q)


def test_matrix_entries_reduced_and_immutable():
    # entries are reduced mod q on entry, and the input is never written
    a = np.array([[4, -1], [3, 7]], dtype=np.int64)
    a.flags.writeable = False
    assert rank(a[:1], 3) == 1
    assert rank([[3, 6], [0, 9]], 3) == 0
    assert rank(a, 3) == 2
    assert a.tolist() == [[4, -1], [3, 7]]


# the test-local inverse is the reference the decoding-step tests trust


def test_invert_identity():
    assert inverse_mod(np.eye(3, dtype=np.int64), 3).tolist() == np.eye(3).tolist()


def test_invert_unipotent_example():
    assert inverse_mod([[1, 1], [0, 1]], 3).tolist() == [[1, 2], [0, 1]]


def test_invert_round_trip_random():
    rng = np.random.default_rng(17)
    for q in (2, 3, 5, 7):
        identity = np.eye(4, dtype=np.int64)
        found = 0
        while found < 10:
            m = rng.integers(0, q, size=(4, 4))
            if rank(m, q) < 4:
                with pytest.raises(ValueError, match="singular"):
                    inverse_mod(m, q)
                continue
            found += 1
            assert np.array_equal(inverse_mod(m, q) @ m % q, identity)
            assert np.array_equal(m @ inverse_mod(m, q) % q, identity)


BIG_Q = 2**31 - 1


def test_products_exact_at_largest_q():
    # residues near 2^31: each product is near 2^62, so the check multiplies
    # as Python integers, which a plain int64 dot product would wrap
    rng = np.random.default_rng(7)
    m = rng.integers(BIG_Q - 1000, BIG_Q, size=(3, 3))
    assert rank(m, BIG_Q) == 3
    # the RREF of [m | I] is [I | m^-1]
    reduced, pivots = rref(np.hstack((m, np.eye(3, dtype=np.int64))), BIG_Q)
    assert pivots == [0, 1, 2]
    inverse = np.array([row[3:] for row in reduced], dtype=object)
    product = inverse @ m.astype(object) % BIG_Q
    assert product.tolist() == np.eye(3, dtype=np.int64).tolist()


def union_columns(parts, mask):
    """Columns of the union of the parts whose bits are set in mask."""
    return sorted(c for j, part in enumerate(parts) if mask >> j & 1 for c in part)


def ranks_by_slicing(G, q, parts):
    """The reference table: rank of the sliced columns of every union of parts."""
    return [rank(G[:, union_columns(parts, mask)], q) for mask in range(1 << len(parts))]


@st.composite
def partitioned_low_rank(draw):
    """(q, G, parts, budget): G is m x w, a product (m x r)(r x w) mod q, so
    rank <= r with forced dependencies; its columns fall into parts at
    random (some parts empty); budget caps the lattice levels."""
    q = draw(st.sampled_from([2, 3, 5, 7, 13, BIG_Q]))
    m = draw(st.integers(0, 6))
    w = draw(st.integers(0, 8))
    r = draw(st.integers(0, min(m, w)))
    entries = st.integers(0, q - 1)
    left = draw(arrays(np.int64, (m, r), elements=entries))
    right = draw(arrays(np.int64, (r, w), elements=entries))
    # exact object-integer product: int64 would wrap at BIG_Q
    G = (left.astype(object) @ right.astype(object) % q).astype(np.int64)
    count = draw(st.integers(0, 6))
    labels = draw(st.lists(st.integers(0, max(count - 1, 0)), min_size=w, max_size=w))
    parts = [[c for c in range(w) if labels[c] == j] for j in range(count)]
    budget = draw(st.sampled_from([1, 2, 4, linalg.BASIS_BUDGET]))
    return q, G, parts, budget


@settings(max_examples=150, deadline=None)
@given(partitioned_low_rank())
def test_subset_ranks_matches_rank(case):
    q, G, parts, budget = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "BASIS_BUDGET", budget)
        assert subset_ranks(G, q, parts).tolist() == ranks_by_slicing(G, q, parts)


def test_subset_ranks_against_span_enumeration():
    rng = np.random.default_rng(3)
    for trial in range(12):
        G = rng.integers(0, 3, size=(3, 6))
        if trial % 3 == 0:
            G[:, 5] = (G[:, 0] + 2 * G[:, 3]) % 3
        parts = [[0, 4], [1], [2, 5], [3]]
        for mask, r in enumerate(subset_ranks(G, 3, parts)):
            size = len(span_vectors(G[:, union_columns(parts, mask)], 3))
            assert r == brute_force_subspace_dim(size, 3)


def test_subset_ranks_edge_shapes():
    assert subset_ranks(np.zeros((3, 4), dtype=np.int64), 5, []).tolist() == [0]
    assert subset_ranks(np.zeros((0, 4), dtype=np.int64), 5, [[0, 1], [2, 3]]).tolist() == [0] * 4
    assert subset_ranks(np.eye(2, dtype=np.int64), 5, [[], [0, 1]]).tolist() == [0, 0, 2, 2]
    # entries are reduced mod q first: a multiple of q is zero
    assert subset_ranks([[5, 10], [0, 1]], 5, [[0], [1]]).tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError, match="2-dimensional"):
        subset_ranks(np.zeros((2, 3, 4), dtype=np.int64), 5, [[0]])
    # a column index is an int in [0, columns of G): a negative one would
    # rank a column counted from the end, and a bool would be read as a mask
    for bad in ([[-3], [1]], [[-1]], [[3]], [[5]], [[1.5]], [[True]], [[np.float64(1)]]):
        with pytest.raises(ValueError, match="column index .* is not an int in \\[0, 3\\)"):
            subset_ranks(np.eye(2, 3, dtype=np.int64), 5, bad)
    with pytest.raises(ValueError, match="column index"):
        subset_ranks(np.zeros((0, 3), dtype=np.int64), 5, [[3]])
    assert subset_ranks(np.eye(2, 3, dtype=np.int64), 5, [[np.int64(2)], [1]]).tolist() == [0, 0, 1, 1]
    # q outside [2, gf.MAX_Q) is refused: at q = 2^61 - 1 the int64 products
    # would wrap and rank a column and its double as 2; q < 2 is no field
    G = np.random.default_rng(5).integers(2**60, 2**61 - 1, size=(5, 5))
    G[:, 4] = 2 * G[:, 3] % (2**61 - 1)
    for bad in (2**61 - 1, gf.MAX_Q, 1, 0, -7):
        with pytest.raises(ValueError, match=f"modulus q={bad} is outside \\[2, 2147483648\\)"):
            subset_ranks(G, bad, [[c] for c in range(5)])
    for bad in (1, 0, -7):
        with pytest.raises(ValueError, match=f"modulus q={bad} is below 2"):
            rank(G, bad)
    # the edges admitted: the same dependency at q = 2^31 - 1, and q = 2
    H = G % BIG_Q
    H[:, 4] = 2 * H[:, 3] % BIG_Q
    assert subset_ranks(H, BIG_Q, [[3], [4]]).tolist() == [0, 1, 1, 1]
    assert subset_ranks(np.eye(2, dtype=np.int64), 2, [[0], [1]]).tolist() == [0, 1, 1, 2]


@pytest.mark.parametrize("count", [12, 13, 14])
def test_subset_ranks_keeps_the_basis_budget(monkeypatch, count):
    # past BASIS_BUDGET / 2 unions the lattice is filled depth first, so no
    # elimination runs on more than max(1, BASIS_BUDGET // 2) unions at any
    # part count, and the largest on more than half that, where a full-width
    # level would reach 2^(count - 1); part j is still eliminated in 2^j
    # unions, 2^count - 1 in all
    rng = np.random.default_rng(count)
    G = rng.integers(0, 13, size=(4, count + 2))
    G[:, count] = G[:, 1]
    G[:, count + 1] = 0
    parts = [[0, 3, count, count + 1]] + [[c] for c in range(1, count) if c != 3] + [[]]
    expected = ranks_by_slicing(G, 13, parts)
    batches, eliminate = [], linalg._eliminate

    def recording(w, width, q):
        batches.append(w.shape[-1])
        return eliminate(w, width, q)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    for budget in (1, 2, 3, 8, 12, 16):
        monkeypatch.setattr(linalg, "BASIS_BUDGET", budget)
        batches.clear()
        assert subset_ranks(G, 13, parts).tolist() == expected
        assert max(batches) <= max(1, budget // 2) < 2 * max(batches)
        assert sum(batches) == (1 << count) - 1


@pytest.mark.parametrize(
    "q, m", [(BIG_Q, m) for m in range(2, 7)] + [(23, 11), (23, 10), (3, 6)]
)
@pytest.mark.parametrize("budget", [1, linalg.BASIS_BUDGET])
def test_subset_ranks_on_both_sides_of_the_unreduced_bound(monkeypatch, q, m, budget):
    # the name is the bound m (q-1) (2(q-1))^m = 2^63 that entries left
    # unreduced would wrap past: q = 2^31 - 1 with m >= 2 and q = 23 with
    # m = 11 are past it, q = 23 with m = 10 and q = 3 with m = 6 below it.
    # The lattice reduces every entry below q, so each case checks full
    # rank through planted dependencies, with every product near 2^62 at
    # the largest q, filled one union at a time and as one level
    rng = np.random.default_rng(q + m)
    # at q = 2^31 - 1, entries near q make every product near 2^62
    low = q - 1000 if q == BIG_Q else 0
    G = rng.integers(low, q, size=(m, m + 2)).astype(object)
    # a repeated column, a zero column and a combination of two others
    extra = [G[:, 0], 0 * G[:, 0], (G[:, 1] + 2 * G[:, 2]) % q]
    G = np.column_stack([G, *extra]).astype(np.int64)
    w = G.shape[1]
    order = rng.permutation(w - 3).tolist()
    parts = [[w - 3], [w - 2], [w - 1]] + [order[j::5] for j in range(5)]
    monkeypatch.setattr(linalg, "BASIS_BUDGET", budget)
    ranks = subset_ranks(G, q, parts).tolist()
    assert ranks == ranks_by_slicing(G, q, parts)
    assert ranks[-1] == m


@pytest.mark.parametrize("q", [3, 13, 4093, BIG_Q])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("budget", [1, 512, linalg.BASIS_BUDGET])
def test_subset_ranks_skips_kernels_at_full_rank(monkeypatch, q, m, budget):
    # ten parts and m <= 4: most unions of the wide levels already have rank
    # m, so their reduced columns are all zero, which the name's kernels
    # once skipped; part 8 alone spans GF(q)^m, so at budget 512 the child
    # with part 8 waits on the work list at rank m
    rng = np.random.default_rng(10 * q + m)
    low = q - 1000 if q == BIG_Q else 0
    G = rng.integers(low, q, size=(m, 9)).astype(object)
    # a repeated, a zero and a dependent column, and a unit upper triangle
    extra = [G[:, 0], 0 * G[:, 0], (G[:, 1] + 2 * G[:, 2]) % q]
    triangle = np.triu(rng.integers(low, q, size=(m, m)), 1) + np.eye(m, dtype=np.int64)
    G = np.column_stack([G, *extra, triangle]).astype(np.int64)
    parts = [[0], [1, 9], [2], [10], [3], [4, 11], [5], [6], list(range(12, 12 + m)), [7, 8]]
    monkeypatch.setattr(linalg, "BASIS_BUDGET", budget)
    assert subset_ranks(G, q, parts).tolist() == ranks_by_slicing(G, q, parts)


def test_subset_ranks_refuses_ranks_past_int8():
    # m = 127 is the largest rank an int8 table holds
    ranks = subset_ranks(np.eye(127, 2, dtype=np.int64), 5, [[0], [1]])
    assert ranks.dtype == np.int8
    assert ranks.tolist() == [0, 1, 1, 2]
    with pytest.raises(ValueError, match="int8"):
        subset_ranks(np.zeros((128, 2), dtype=np.int64), 5, [[0], [1]])


def test_subset_ranks_admits_exactly_max_masks(monkeypatch):
    # 18 one-column parts give 2^18 = MAX_MASKS masks, the R-atomic table of
    # an n = 17 code; a 19th part is refused before numpy is called at all,
    # so before the root or any table is allocated, and before the modulus
    # is checked, which also happens before numpy is called
    assert 1 << 18 == linalg.MAX_MASKS
    G = np.eye(2, 19, dtype=np.int64)
    ranks = subset_ranks(G[:, :18], 5, [[c] for c in range(18)])
    assert ranks.size == linalg.MAX_MASKS
    assert ranks[[0, 1, 2, 3, -1]].tolist() == [0, 1, 1, 2, 2]

    class Unreachable:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} was called")

    monkeypatch.setattr(linalg, "np", Unreachable())
    with pytest.raises(ValueError, match="2\\^19 column subsets is beyond the 262144-mask guard"):
        subset_ranks(G, 5, [[c] for c in range(19)])
    with pytest.raises(ValueError, match="mask guard"):
        subset_ranks(G, 0, [[c] for c in range(19)])
    with pytest.raises(ValueError, match="modulus q=1 is outside"):
        subset_ranks(G, 1, [[0]])
