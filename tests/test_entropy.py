import itertools
import math
import time
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmds import entropy, linalg
from qmds.code import CodeParams, group_indices, index_groups
from qmds import (
    SubsystemSpec,
    check_decoding_condition,
    check_entropy_inequalities,
    expected_subsystem_entropy,
    extended_profile,
    full_profile,
    decode,
    decode_target,
    decoded_fidelity,
    encode_state,
    partial_trace,
    product_state_checks,
    subsystem_entropy,
    StateVector,
    von_neumann_entropy,
)

from qmds.entropy import INEQUALITY_FAMILIES, EntropyProfile, entropy_table
from qmds.reporting import Check, status_line

from conftest import (
    DESK_PARAMS,
    brute_force_subspace_dim,
    make_code,
    non_mds_control,
    spec_at,
    span_vectors,
)


def rank_identity(code, inside):
    """rank(G_S) + rank(G_{S^c}) - m for 0-based register positions S, by two
    eliminations: a reference beside the rank lattice that the oracle reads."""
    p, g = code.params, code.G
    outside = [r for r in range(p.num_registers) if r not in inside]
    return linalg.rank(g[:, list(inside)], p.q) + linalg.rank(g[:, outside], p.q) - p.generator_rank


class TestSubsystemSpec:
    def test_size_counts_reference_block_as_k(self):
        spec = SubsystemSpec(True, [1, 3])
        assert spec.size(k=2) == 4
        assert spec.size(k=1) == 3
        assert SubsystemSpec(False, []).size(k=5) == 0

    def test_registers_canonical_order(self):
        spec = SubsystemSpec(True, [3, 1])
        assert spec.registers(k=2, n=3) == [0, 1, 2, 4]
        assert SubsystemSpec(False, [2]).registers(k=2, n=2) == [3]

    def test_complement(self):
        spec = SubsystemSpec(True, [1])
        comp = spec.complement(n=3)
        assert comp.include_R is False
        assert comp.q_indices == frozenset({2, 3})
        # an index above n is refused, not dropped from the complement
        with pytest.raises(ValueError, match=r"out of range 1\.\.3: \[5\]"):
            SubsystemSpec(False, [5]).complement(n=3)

    def test_labels(self):
        assert SubsystemSpec(True, [2, 1]).labels() == ("R", "Q1", "Q2")
        assert SubsystemSpec(False, []).labels() == ()

    def test_indices_one_based(self):
        with pytest.raises(ValueError):
            SubsystemSpec(False, [0])

    def test_duplicate_indices_rejected(self):
        # a set would otherwise fold [1, 1] into {1}
        with pytest.raises(ValueError, match=r"duplicate indices: \[1, 1\]"):
            SubsystemSpec(False, [1, 1])

    @pytest.mark.parametrize("flag", ["no", "", 2, -1, 1.0, None], ids=repr)
    def test_include_R_must_be_a_flag(self, flag):
        # bool() would read each of these as a flag
        with pytest.raises(ValueError, match="include_R must be a bool, 0 or 1"):
            SubsystemSpec(flag, [1])

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_, 0, 1, np.int64(1)],
                             ids=repr)
    def test_include_R_flags_accepted(self, flag):
        # divmod of a table index gives the int 0 or 1
        spec = SubsystemSpec(flag, [1])
        assert spec.include_R is bool(flag)

    def test_mask_is_the_table_index(self):
        assert SubsystemSpec(True, [3, 1]).mask(3) == 0b1101
        assert SubsystemSpec(False, []).mask(0) == 0
        with pytest.raises(ValueError, match=r"out of range 1\.\.2: \[3\]"):
            SubsystemSpec(False, [3]).mask(2)

    def test_labels_do_not_depend_on_k_or_n(self):
        spec = SubsystemSpec(True, [4, 2])
        assert spec.labels() == ("R", "Q2", "Q4")
        for k, n in ((2, 4), (1, 5), (3, 9)):
            profile = EntropyProfile(CodeParams(n=n, k=k, d=(n - k) // 2 + 1, q=11), (),
                                     np.zeros(2 << n, dtype=np.int8))
            assert profile.labels(spec.mask(n)) == spec.labels()


class TestOracle:
    def test_single_coded_qudit(self):
        code = make_code(3, 1, 2, 3)
        assert subsystem_entropy(code, SubsystemSpec(False, [1])) == 1

    def test_empty_subsystem(self):
        for code in (make_code(3, 1, 2, 3), make_code(4, 2, 2, 5)):
            assert subsystem_entropy(code, SubsystemSpec(False, [])) == 0

    def test_reference_plus_one(self):
        code = make_code(3, 1, 2, 3)
        assert subsystem_entropy(code, SubsystemSpec(True, [1])) == 2

    def test_full_system_is_pure(self):
        code = make_code(3, 1, 2, 3)
        assert subsystem_entropy(code, SubsystemSpec(True, [1, 2, 3])) == 0

    def test_out_of_range_index_rejected(self):
        code = make_code(3, 1, 2, 3)
        with pytest.raises(ValueError, match="out of range"):
            subsystem_entropy(code, SubsystemSpec(False, [4]))

    def test_rank_deficient_generator_refused(self):
        # a zero row leaves G at rank 1 of m = 2, so H would not be an entropy
        code = make_code(3, 1, 2, 3)
        g = code.G.copy()
        g[1] = 0
        forged = types.SimpleNamespace(params=code.params, G=g)
        with pytest.raises(ValueError, match="generator must have full row rank"):
            entropy_table(forged)

    def test_register_oracle_consistent_with_atomic_specs(self):
        code = make_code(4, 2, 2, 5)
        for inc in (False, True):
            for size in range(5):
                for combo in itertools.combinations(range(1, 5), size):
                    spec = SubsystemSpec(inc, combo)
                    expected = rank_identity(code, spec.registers(2, 4))
                    assert subsystem_entropy(code, spec) == expected


class TestRankIdentityBruteForce:
    """Every entropy equals log_q |span(G_S) n span(G_{S^c})|, by enumeration.

    The spans are listed vector by vector (conftest.span_vectors), so this
    checks the rank identity H(S) = rank(G_S) + rank(G_{S^c}) - m without
    any elimination code.
    """

    def test_every_register_subset(self):
        for params in ((3, 1, 2, 3), (4, 2, 2, 5)):
            code = make_code(*params)
            n, k, q = code.params.n, code.params.k, code.params.q
            table = entropy_table(code)
            register_table = extended_profile(code).register_table
            all_r = (1 << k) - 1
            for regmask in range(1 << (k + n)):
                inside = [r for r in range(k + n) if regmask >> r & 1]
                outside = [r for r in range(k + n) if not regmask >> r & 1]
                common = span_vectors(code.G[:, inside], q) & span_vectors(
                    code.G[:, outside], q
                )
                expected = brute_force_subspace_dim(len(common), q)
                r_bits = regmask & all_r
                if r_bits in (0, all_r):
                    index = (r_bits == all_r) << n | regmask >> k
                    assert table[index] == expected, (params, inside)
                else:
                    assert register_table[regmask] == expected, (params, inside)


class TestExpectedEntropy:
    def test_pyramid_values(self):
        assert expected_subsystem_entropy(2, 1, 2) == 2
        assert expected_subsystem_entropy(0, 3, 4) == 0
        for k, d in ((1, 2), (2, 2), (1, 3), (3, 2)):
            apex = k + d - 1
            assert expected_subsystem_entropy(apex, k, d) == apex

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            expected_subsystem_entropy(5, 1, 2)
        with pytest.raises(ValueError):
            expected_subsystem_entropy(-1, 1, 2)


class TestProfiles:
    def test_profile_3_1_2(self):
        profile = full_profile(make_code(3, 1, 2, 3))
        assert profile.table.size == 16
        assert profile.all_match
        assert profile.csv_rows() == [(0, 0), (1, 1), (2, 2), (3, 1), (4, 0)]

    def test_profile_4_2_2(self):
        profile = full_profile(make_code(4, 2, 2, 5))
        assert profile.table.size == 32
        assert profile.all_match
        sizes = [2 * (mask >> 4) + bin(mask % 16).count("1") for mask in range(32)]
        assert profile.sizes().tolist() == sizes
        assert profile.table.tolist() == [min(size, 6 - size) for size in sizes]

    def test_profile_5_1_3(self):
        profile = full_profile(make_code(5, 1, 3, 5))
        assert profile.table.size == 64
        assert profile.all_match

    def test_entries_sorted_canonically(self):
        # JSON rows follow the table: row i is the subsystem at index i
        profile = full_profile(make_code(3, 1, 2, 3))
        rows = profile.to_dict()["entries"]
        specs = [
            SubsystemSpec("R" in row["subsystem"],
                          [int(lbl[1:]) for lbl in row["subsystem"] if lbl != "R"])
            for row in rows
        ]
        assert [spec.mask(3) for spec in specs] == list(range(16))
        assert [row["entropy"] for row in rows] == profile.table.tolist()
        assert rows[0]["subsystem"] == []
        assert rows[-1]["subsystem"] == ["R", "Q1", "Q2", "Q3"]

    def test_profile_json_shape(self):
        profile = full_profile(make_code(3, 1, 2, 3))
        payload = profile.to_dict()
        assert payload["code"] == {"q": 3, "n": 3, "k": 1, "d": 2, "alphas": [0, 1, 2]}
        entry = payload["entries"][1]
        assert set(entry) == {"subsystem", "size", "entropy", "expected", "match"}
        assert entry["subsystem"] == ["Q1"]
        assert entry["entropy"] == 1

    def test_extended_profile_adds_partial_reference_rows(self):
        code = make_code(4, 2, 2, 5)
        rows = extended_profile(code).to_dict()["entries"]
        base = full_profile(code).to_dict()["entries"]
        assert rows[: len(base)] == base
        extra = rows[len(base) :]
        # one R qudit of two, with every subset of the 4 coded qudits
        assert len(extra) == 2 * 16
        for row in extra:
            assert row["expected"] is None and row["match"] is None
            assert row["subsystem"][0] in ("R1", "R2")
            # reported value must be the rank identity's, nothing else asserted
            registers = registers_of(row["subsystem"], 2)
            assert row["entropy"] == rank_identity(code, registers)

    def test_extended_profile_trivial_for_k1(self):
        code = make_code(3, 1, 2, 3)
        extended = extended_profile(code)
        assert extended.register_table is None
        assert extended.to_dict() == full_profile(code).to_dict()

    def test_extended_profile_ranks_one_table(self, monkeypatch):
        code = make_code(5, 3, 2, 7)
        atomic = entropy_table(code)
        calls = []
        rank_table = entropy.subset_ranks

        def counting(*args):
            calls.append(len(args[2]))
            return rank_table(*args)

        monkeypatch.setattr(entropy, "subset_ranks", counting)
        profile = extended_profile(code)
        # one table over the 8 single registers; the R-atomic one is read off it
        assert calls == [8]
        assert profile.table.tolist() == atomic.tolist()


class TestCharacterization:
    """The size-pyramid formula over every desk-scale code."""

    def test_every_subsystem_matches_formula(self, desk_codes):
        for code in desk_codes:
            profile = full_profile(code)
            assert profile.all_match, f"mismatch for {code}"

    def test_depth_first_lattice_past_2_18_masks(self, monkeypatch):
        # [[20,2,10]]_23 has 2^21 masks at m = 11, past the guard, which is
        # raised here: a lattice of 21 parts, filled depth first from part
        # 10 on, in 2057 eliminations of at most 2^10 unions
        monkeypatch.setattr(linalg, "MAX_MASKS", 1 << 21)
        profile = full_profile(make_code(20, 2, 10, 23))
        assert profile.table.size == 1 << 21
        assert profile.all_match

    def test_purity_complement_symmetry(self, desk_codes):
        for code in desk_codes:
            n = code.params.n
            for inc in (False, True):
                for size in range(n + 1):
                    for combo in itertools.combinations(range(1, n + 1), size):
                        spec = SubsystemSpec(inc, combo)
                        assert subsystem_entropy(code, spec) == subsystem_entropy(
                            code, spec.complement(n)
                        )

    def test_reference_block_maximally_mixed(self, desk_codes):
        for code in desk_codes:
            assert subsystem_entropy(code, SubsystemSpec(True, [])) == code.params.k

    def test_each_coded_qudit_maximally_mixed(self, desk_codes):
        for code in desk_codes:
            for i in range(1, code.params.n + 1):
                assert subsystem_entropy(code, SubsystemSpec(False, [i])) == 1

    def test_k1_codes_are_absolutely_maximally_entangled(self, desk_codes):
        # k = 1: every subsystem of at most half the qudits is maximally mixed
        for code in desk_codes:
            if code.params.k != 1:
                continue
            n = code.params.n
            half = (n + 1) // 2
            for inc in (False, True):
                for size in range(n + 1):
                    for combo in itertools.combinations(range(1, n + 1), size):
                        spec = SubsystemSpec(inc, combo)
                        if spec.size(1) <= half:
                            assert subsystem_entropy(code, spec) == spec.size(1)


class TestChecks:
    def test_decoding_condition_values_3_1_2(self):
        profile = full_profile(make_code(3, 1, 2, 3))
        h = profile.table
        # index R * 2^3 + Q-bitmask; surviving {1,2}: 1 + 2 - 1 = 2 = 2k
        assert h[0b1000] + h[0b0011] - h[0b1011] == 2
        # erasable {3}: 1 + 1 - 2 = 0
        assert h[0b1000] + h[0b0100] - h[0b1100] == 0
        report = check_decoding_condition(profile)
        assert report.ok

    def test_no_leakage_5_1_3(self):
        profile = full_profile(make_code(5, 1, 3, 5))
        h = profile.table
        # index R * 2^5 + Q-bitmask: I(R; Q1 Q2) = 0
        assert h[0b100000] + h[0b000011] - h[0b100011] == 0
        assert check_decoding_condition(profile).ok

    def test_decoding_condition_check_counts(self):
        profile = full_profile(make_code(5, 1, 3, 5))
        report = check_decoding_condition(profile)
        count = math.comb(5, 3) + math.comb(5, 2)
        assert report.title == f"decoding conditions for [[5,1,3]]_5 ({count} checks)"
        assert report.details == ()

    def test_inequalities_pass_on_desk_codes(self, desk_codes):
        for code in desk_codes:
            if code.params.n > 5:
                continue
            report = check_entropy_inequalities(full_profile(code))
            assert report.ok, report.lines()

    def test_inequality_assignment_count(self):
        profile = full_profile(make_code(3, 1, 2, 3))
        report = check_entropy_inequalities(profile)
        assert len(report.details) == 4
        for line in report.details:
            assert "81 assignments" in line

    def test_product_state_identities(self):
        profile_3 = full_profile(make_code(3, 1, 2, 3))
        h3 = profile_3.table
        # Q-bitmask indices: Q1 Q2, Q1, Q2
        assert h3[0b011] == h3[0b001] + h3[0b010] == 2
        assert product_state_checks(profile_3).ok

        profile_4 = full_profile(make_code(4, 2, 2, 5))
        h4 = profile_4.table
        assert h4[0b0111] == 3
        assert h4[0b0111] == h4[0b0011] + h4[0b0100]
        assert product_state_checks(profile_4).ok

    def test_product_state_checks_on_desk_codes(self, desk_codes):
        for code in desk_codes:
            assert product_state_checks(full_profile(code)).ok

    def test_product_pairs_memory_stays_in_chunks_at_n16(self):
        # [[16,2,8]]_17 has 137 x 26333 (K1, K2) cells; one broadcast over
        # all of them would take about 90 MB
        profile = full_profile(make_code(16, 2, 8, 17))
        tracemalloc.start()
        try:
            report = product_state_checks(profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 8 * 2**20, f"product_state_checks peaked at {peak / 2**20:.1f} MB"


def registers_of(labels, k):
    """0-based register positions of a profile row's labels (R, R1..Rk, Q1..Qn)."""
    positions = []
    for lbl in labels:
        if lbl == "R":
            positions += range(k)
        else:
            positions.append(int(lbl[1:]) - 1 + (k if lbl[0] == "Q" else 0))
    return positions


class TestTable:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(DESK_PARAMS), st.data())
    def test_profiles_match_register_oracle(self, params, data):
        n, k, d, q = params
        alphas = data.draw(st.permutations(range(q)))[:n]
        code = make_code(n, k, d, q, alphas)
        profile = extended_profile(code)
        rows = profile.to_dict()["entries"]
        # R in or out, plus every proper nonempty part of R
        assert len(rows) == 2 ** (n + 1) + (2**k - 2) * 2**n
        for row in rows:
            registers = registers_of(row["subsystem"], k)
            assert row["entropy"] == rank_identity(code, registers)
        assert profile.table.tolist() == full_profile(code).table.tolist()

    def test_table_is_indexed_by_spec_mask(self):
        code = make_code(5, 1, 3, 5)
        table = entropy_table(code)
        n = code.params.n
        for mask in range(2 ** (n + 1)):
            spec = spec_at(mask, n)
            assert spec.mask(n) == mask
            assert table[mask] == subsystem_entropy(code, spec)

    def test_basis_budget_does_not_change_table(self, monkeypatch):
        # budgets below the 2^7 unions of the whole lattice fill it depth
        # first, down to one union per elimination
        code = make_code(6, 2, 3, 7, alphas=[6, 0, 3, 1, 5, 2])
        expected = entropy_table(code)
        for budget in (1, 2, 4, 16):
            monkeypatch.setattr(linalg, "BASIS_BUDGET", budget)
            assert entropy_table(code).tolist() == expected.tolist()

    @pytest.mark.parametrize("control", [non_mds_control, lambda: make_code(9, 3, 4, 11)],
                             ids=["non-mds-control", "9-3-4-11"])
    def test_reference_block_at_the_root_gives_the_r_last_table(self, control):
        # the table ranked with R as the last part is already in R * 2^n +
        # Q-bitmask order; the R-first lattice must give it back transposed
        code = control()
        k, n = code.params.k, code.params.n
        r_last = entropy._entropy_table(code, [[k + i] for i in range(n)] + [list(range(k))])
        table = entropy_table(code)
        assert table.dtype == np.int8
        assert table.tolist() == r_last.tolist()

    def test_sizes_are_reference_block_plus_popcount(self):
        for n in range(1, 13):
            for k in range(1, 6):
                if (n - k) % 2 or n - k < 2:
                    continue
                params = CodeParams(n=n, k=k, d=(n - k) // 2 + 1, q=13)
                profile = EntropyProfile(params, (), np.zeros(2 << n, dtype=np.int8))
                sizes = [k * (mask >> n) + bin(mask % (1 << n)).count("1") for mask in range(2 << n)]
                assert profile.sizes().dtype == profile.expected().dtype == np.int8
                assert profile.sizes().tolist() == sizes

    def test_profile_at_n16_within_time_bound(self):
        # the lattice takes about 0.3 s here; eliminating each of the 2^17
        # masks from scratch takes about 4 s and fails the bound
        code = make_code(16, 2, 8, 17)
        start = time.perf_counter()
        profile = full_profile(code)
        elapsed = time.perf_counter() - start
        assert profile.all_match
        assert elapsed < 2.5, f"full_profile on [[16,2,8]]_17 took {elapsed:.2f} s"

    def test_profile_checks_table_length(self):
        code = make_code(3, 1, 2, 3)
        with pytest.raises(ValueError, match="2\\^\\(n\\+1\\)"):
            EntropyProfile(code.params, code.alphas, np.zeros(8, dtype=np.int64))


def brute_force_inequalities(profile):
    """Violation count and first violating assignment per family, by a
    plain loop over itertools.product and a dict of the profile table."""
    n = profile.params.n
    h = {}
    for mask, entropy in enumerate(profile.table.tolist()):
        spec = spec_at(mask, n)
        h[(spec.include_R, spec.q_indices)] = entropy

    def H(*groups):
        return h[(any(g[0] for g in groups), frozenset().union(*(g[1] for g in groups)))]

    found = {name: [] for name in INEQUALITY_FAMILIES}
    for assign in itertools.product((0, 1, 2), repeat=n + 1):
        a, b, c = (
            (assign[0] == g, frozenset(i for i in range(1, n + 1) if assign[i] == g))
            for g in range(3)
        )
        holds = (
            H(a, b) <= H(a) + H(b),
            abs(H(a) - H(b)) <= H(a, b),
            H(a, b) + H(b, c) >= H(a, b, c) + H(b),
            H(a, b) + H(b, c) >= H(a) + H(c),
        )
        for name, ok in zip(INEQUALITY_FAMILIES, holds):
            if not ok:
                found[name].append(assign)
    return {name: (len(v), v[0] if v else None) for name, v in found.items()}


def inequality_lines(expected, total):
    """The status lines of ``brute_force_inequalities``' counts, one per family."""
    lines = []
    for name, (count, first) in expected.items():
        text = f"{name}: {total} assignments, {count} violations"
        if count:
            text += f"; first violating assignment {first}"
        lines.append(status_line(not count, text))
    return tuple(lines)


def fabricated_profile(raise_at, params=(5, 1, 3, 5)):
    """A valid code's profile with the entropy at each (R flag, Q indices)
    raised by one; the result breaks the size-pyramid law."""
    n = params[0]
    profile = full_profile(make_code(*params))
    table = profile.table.copy()
    for include_r, qs in raise_at:
        table[(include_r << n) + sum(1 << (i - 1) for i in qs)] += 1
    return EntropyProfile(profile.params, profile.alphas, table)


def brute_force_product_lines(profile):
    """Status lines of the two product-state checks, by the plain loops over
    itertools.combinations and a dict of the profile table."""
    p = profile.params
    n, k, d = p.n, p.k, p.d
    h = {spec_at(qmask, n).q_indices: int(profile.table[qmask]) for qmask in range(2**n)}

    def H(group):
        return h[frozenset(group)]

    pairs, count = [], 0
    for s1 in range(k + 1):
        for first in itertools.combinations(range(1, n + 1), s1):
            rest = [i for i in range(1, n + 1) if i not in first]
            for s2 in range(d):
                for second in itertools.combinations(rest, s2):
                    count += 1
                    if H(first + second) != H(first) + H(second):
                        pairs.append((first, second, H(first + second), H(first) + H(second)))
    pair_detail = (f"H(K1 u K2) = H(K1)+H(K2) for |K1| <= k, |K2| <= d-1 disjoint: "
                   f"{count} disjoint pairs, {len(pairs)} violations")
    if pairs:
        pair_detail += f"; first: {pairs[0]}"
    sums, count = [], 0
    for size in range(k + 1):
        for group in itertools.combinations(range(1, n + 1), size):
            count += 1
            split = sum(H((i,)) for i in group)
            if H(group) != split:
                sums.append((group, H(group), split))
    sum_detail = f"H(K) = sum_i H(Qi) for |K| <= k: {count} groups, {len(sums)} violations"
    if sums:
        sum_detail += f"; first: {sums[0]}"
    return (status_line(not pairs, pair_detail), status_line(not sums, sum_detail))


class TestNegativeControls:
    @pytest.mark.parametrize(
        "params, raise_at",
        [
            ((6, 2, 3, 7), [(False, (2,)), (False, (1, 3))]),
            ((5, 3, 2, 7), [(False, (4, 5)), (False, (1, 2, 5))]),
            ((5, 1, 3, 5), [(False, (3,))]),
        ],
    )
    def test_product_violations_match_brute_force(self, params, raise_at):
        profile = fabricated_profile(raise_at, params)
        report = product_state_checks(profile)
        assert not report.ok
        assert report.details == brute_force_product_lines(profile)

    @pytest.mark.parametrize("sweep_digits", [8, 3, 2])
    @pytest.mark.parametrize(
        "raise_at",
        [[(False, (1,))], [(True, (2, 3))], [(False, (1, 2)), (True, ())]],
    )
    def test_inequality_violations_match_brute_force(self, monkeypatch, raise_at, sweep_digits):
        monkeypatch.setattr(entropy, "SWEEP_DIGITS", sweep_digits)
        profile = fabricated_profile(raise_at)
        report = check_entropy_inequalities(profile)
        assert not report.ok
        assert report.details == inequality_lines(brute_force_inequalities(profile), 729)

    @pytest.mark.parametrize(
        "params, raise_at, uneven",
        [
            # 3^4 // 22 K2 groups = 3 K1 groups per chunk, 22 K1 groups
            ((6, 2, 3, 7), [(False, (2,)), (False, (1, 3))], 4),
            # 3^3 // 6 = 4 per chunk, 26 K1 groups
            ((5, 3, 2, 7), [(False, (4, 5)), (False, (1, 2, 5))], 3),
            # 3^4 // 16 = 5 per chunk, 6 K1 groups
            ((5, 1, 3, 5), [(False, (3,))], 4),
        ],
    )
    def test_chunked_product_pairs_match_brute_force(self, monkeypatch, params, raise_at, uneven):
        n, k, d, _ = params
        firsts, seconds = index_groups(n, range(k + 1)).size, index_groups(n, range(d)).size
        rows = 3**uneven // seconds
        assert rows > 1 and firsts % rows, "the chunks must split the K1 groups unevenly"
        profile = fabricated_profile(raise_at, params)
        expected = brute_force_product_lines(profile)
        # a bound of 3^0 = 1 cell leaves one K1 group per chunk
        for block_digits in (0, uneven):
            monkeypatch.setattr(entropy, "BLOCK_DIGITS", block_digits)
            assert product_state_checks(profile).details == expected

    @pytest.mark.parametrize("raise_at", [[], [(False, (2, 7)), (False, (5,))]])
    def test_product_chunks_match_one_broadcast(self, monkeypatch, raise_at):
        # 56 K1 groups against 386 K2 groups: 16 K1 groups per chunk of 3^8
        # cells, and one chunk of 3^20
        profile = fabricated_profile(raise_at, params=(10, 2, 5, 11))
        chunked = product_state_checks(profile)
        assert chunked.ok == (not raise_at)
        monkeypatch.setattr(entropy, "BLOCK_DIGITS", 20)
        assert product_state_checks(profile).lines() == chunked.lines()

    def test_raised_single_qudits_break_product_and_pyramid(self):
        profile = fabricated_profile([(False, (2,)), (False, (3,))], params=(6, 2, 3, 7))
        assert [profile.labels(mask) for mask in profile.mismatches()] == [("Q2",), ("Q3",)]
        report = product_state_checks(profile)
        pair, group = report.details
        assert pair.startswith("[FAIL] ") and group.startswith("[FAIL] ")
        # groups run by size, then lexicographically.  K1 = () always holds;
        # the first violation is K1 = (1,), K2 = (2,): H(Q1 Q2) = 2 vs 1 + 2
        assert pair.endswith("violations; first: ((1,), (2,), 2, 3)")
        assert group.endswith("violations; first: ((1, 2), 2, 3)")


# int8 holds every sum and difference of three entries in [-42, 42]; -43,
# 43 and the int8 extremes lie outside that range and make the profile
# store an int64 table
EDGE_ENTRIES = [-42, 42]
WIDE_ENTRIES = [-128, -127, -43, 43, 127]


def drawn_profile(params, wide, data):
    """A valid code's profile with random entries overridden, the int8
    edge entries among them, and the wide ones when ``wide``."""
    profile = full_profile(make_code(*params))
    entries = EDGE_ENTRIES + WIDE_ENTRIES * wide
    values = st.one_of(st.integers(-3, 6), st.sampled_from(entries))
    table = profile.table.copy()
    overrides = data.draw(st.dictionaries(st.integers(0, table.size - 1), values))
    table[list(overrides)] = list(overrides.values())
    return EntropyProfile(profile.params, profile.alphas, table)


def brute_force_decoding_lines(profile):
    """The failure lines of the decoding check, by itertools.combinations
    and Python ints over the profile table."""
    p = profile.params
    n, k, d = p.n, p.k, p.d
    h, r = profile.table.tolist(), 1 << n
    lines = []
    for kind, size, target, expected in (
        ("recovery", n - (d - 1), 2 * k, f"expected 2k = {2 * k}"),
        ("no-leakage", d - 1, 0, "expected 0"),
    ):
        for group in itertools.combinations(range(1, n + 1), size):
            mask = sum(1 << (i - 1) for i in group)
            mutual = h[r] + h[mask] - h[r | mask]
            if mutual != target:
                text = f"{kind} I={list(group)}: I(R;Q_I) = {mutual}: {expected}"
                lines.append(status_line(False, text))
    return tuple(lines)


RANDOM_TABLE_PARAMS = [p for p in DESK_PARAMS if p[0] <= 5]


class TestInequalitySweep:
    @pytest.mark.parametrize("sweep_digits", [1, 2, 3, 8])
    @settings(max_examples=40, deadline=None)
    @given(params=st.sampled_from(RANDOM_TABLE_PARAMS), wide=st.booleans(), data=st.data())
    def test_random_tables_match_brute_force(self, sweep_digits, params, wide, data):
        profile = drawn_profile(params, wide, data)
        expected = brute_force_inequalities(profile)
        with mock.patch.object(entropy, "SWEEP_DIGITS", sweep_digits):
            report = check_entropy_inequalities(profile)
        assert report.details == inequality_lines(expected, 3 ** (params[0] + 1))

    def test_first_violation_past_the_first_block(self, monkeypatch):
        # blocks of 3^2 share the leading four digits; every first violation
        # of this table lies in a later block
        monkeypatch.setattr(entropy, "SWEEP_DIGITS", 2)
        profile = fabricated_profile([(False, (1, 2))])
        expected = brute_force_inequalities(profile)
        firsts = [first for count, first in expected.values() if count]
        assert len(firsts) == 3 and all(first[:4] != (0, 0, 0, 0) for first in firsts)
        assert check_entropy_inequalities(profile).details == inequality_lines(expected, 729)

    def test_default_blocks_find_a_violation_in_the_last_block(self, monkeypatch):
        # at n = 10 the default sweep runs three blocks, one per digit of R;
        # H(Q1 Q2) raised to 3 breaks subadditivity first with R in C
        profile = fabricated_profile([(False, (1, 2))], params=(10, 2, 5, 11))
        report = check_entropy_inequalities(profile)
        first = "first violating assignment (2, 0, 1, 2, 2, 2, 2, 2, 2, 2, 2)"
        assert report.details[0] == (
            f"[FAIL] subadditivity H(AB) <= H(A)+H(B): 177147 assignments, 2 violations; {first}"
        )
        table = profile.table
        # A = {Q1} (bit 0), B = {Q2} (bit 1)
        assert table[0b11] > table[0b01] + table[0b10]
        monkeypatch.setattr(entropy, "SWEEP_DIGITS", 11)
        assert check_entropy_inequalities(profile).lines() == report.lines()


class TestTableWidth:
    """A profile stores its table in int8 only where no sum or difference of
    three entries can wrap, and every suite computes in that dtype."""

    @pytest.mark.parametrize(
        "entries, dtype",
        [([-42, 42], np.int8), ([-43, 0], np.int64), ([0, 43], np.int64), ([0, 127], np.int64)],
    )
    def test_dtype_follows_the_entries(self, entries, dtype):
        profile = full_profile(make_code(3, 1, 2, 3))
        for given_dtype in (np.int8, np.int64):
            table = profile.table.astype(given_dtype)
            table[[1, 2]] = entries
            stored = EntropyProfile(profile.params, profile.alphas, table).table
            assert stored.dtype == dtype
            assert stored.tolist() == table.tolist()

    @pytest.mark.parametrize(
        "table, message",
        [
            # H(Q1) = 1.9 would pass as 1 once cast to an integer table
            (np.where(np.arange(16) == 1, 1.9, 0.0), "must hold integers: got dtype float64"),
            (np.zeros(16, dtype=bool), "must hold integers: got dtype bool"),
            (np.full(16, 2**63, dtype=np.uint64), "must lie within"),
            (np.full(16, -(2**62), dtype=np.int64), "must lie within"),
        ],
        ids=["float", "bool", "past-int64", "past-a-third-of-int64"],
    )
    def test_table_that_cannot_be_held_exactly_is_refused(self, table, message):
        params = make_code(3, 1, 2, 3).params
        with pytest.raises(ValueError, match=message):
            EntropyProfile(params, (), table)

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_table_bound_is_a_third_of_int64_exactly(self, sign):
        # (2^63 - 1) // 3 is held, as int64; one past it is refused
        params = make_code(3, 1, 2, 3).params
        bound = ((1 << 63) - 1) // 3
        table = np.zeros(16, dtype=np.int64)
        table[5] = sign * bound
        stored = EntropyProfile(params, (), table).table
        assert stored.dtype == np.int64
        assert int(stored[5]) == sign * bound
        table[5] += sign
        with pytest.raises(ValueError, match=f"must lie within \\+-{bound}"):
            EntropyProfile(params, (), table)

    def test_wrapped_mutual_information_fails_recovery(self):
        # I(R;Q_I) = 100 + 100 + 58 = 258 on every recovery set, which int8
        # would wrap to 2 = 2k; each no-leakage set gives 100 + 0 - 100 = 0
        profile = full_profile(make_code(3, 1, 2, 3))
        table = profile.table.copy()
        table[0b1000] = 100
        table[index_groups(3, [2])] = 100
        table[index_groups(3, [2]) | 0b1000] = -58
        table[index_groups(3, [1])] = 0
        table[index_groups(3, [1]) | 0b1000] = 100
        report = check_decoding_condition(EntropyProfile(profile.params, profile.alphas, table))
        assert not report.ok
        assert report.details == tuple(
            status_line(False, f"recovery I={group}: I(R;Q_I) = 258: expected 2k = 2")
            for group in ([1, 2], [1, 3], [2, 3])
        )

    def test_wrapped_product_pair_fails(self):
        # H(Q1) + H(Q2) = 200, which int8 would wrap to -56 = H(Q1 Q2)
        profile = full_profile(make_code(3, 1, 2, 3))
        table = profile.table.copy()
        table[[0b001, 0b010, 0b011]] = [100, 100, -56]
        profile = EntropyProfile(profile.params, profile.alphas, table)
        report = product_state_checks(profile)
        assert not report.ok
        assert report.details[0].endswith("violations; first: ((1,), (2,), -56, 200)")
        assert report.details == brute_force_product_lines(profile)

    @settings(max_examples=40, deadline=None)
    @given(params=st.sampled_from(RANDOM_TABLE_PARAMS), wide=st.booleans(), data=st.data())
    def test_random_tables_match_brute_force(self, params, wide, data):
        profile = drawn_profile(params, wide, data)
        assert check_decoding_condition(profile).details == brute_force_decoding_lines(profile)
        assert product_state_checks(profile).details == brute_force_product_lines(profile)


class TestGroupsDecodedWherePrinted:
    """A check reads a group's indices off its mask only for a line that names it."""

    @pytest.mark.parametrize("params", DESK_PARAMS)
    def test_valid_codes_decode_no_mask(self, monkeypatch, params):
        profile = full_profile(make_code(*params))

        def refuse(mask):
            raise AssertionError(f"mask {mask} decoded for no printed line")

        monkeypatch.setattr(entropy, "group_indices", refuse)
        decoding = check_decoding_condition(profile)
        n, k, d, q = params
        count = math.comb(n, d - 1) + math.comb(n, n - d + 1)
        title = f"decoding conditions for [[{n},{k},{d}]]_{q} ({count} checks)"
        assert decoding == Check(True, title, ())
        assert product_state_checks(profile).ok

    def test_negative_control_prints_its_indices(self, monkeypatch):
        profile = fabricated_profile([(False, (2,)), (False, (1, 3))], params=(6, 2, 3, 7))
        decoded = []

        def recording(mask):
            decoded.append(int(mask))
            return group_indices(mask)

        monkeypatch.setattr(entropy, "group_indices", recording)
        decoding = check_decoding_condition(profile)
        assert decoding.details == ("[FAIL] no-leakage I=[1, 3]: I(R;Q_I) = 1: expected 0",)
        assert product_state_checks(profile).details == brute_force_product_lines(profile)
        # the failing erasure set, the first violating pair's two groups and
        # the first violating group
        assert len(decoded) == 4


class TestNonMdsControl:
    """The checkers must fail on a state that breaks the law, not only pass."""

    def test_pyramid_recovery_and_product_checks_fail(self):
        profile = full_profile(non_mds_control())
        assert len(profile.mismatches()) == 10
        assert ("Q4", "Q5") in [profile.labels(mask) for mask in profile.mismatches()]
        decoding = check_decoding_condition(profile)
        assert not decoding.ok
        assert len(decoding.details) == 6
        assert not product_state_checks(profile).ok

    def test_inequalities_still_hold(self):
        # they hold for every quantum state, MDS or not
        report = check_entropy_inequalities(full_profile(non_mds_control()))
        assert report.ok
        assert [line.startswith("[ok] ") for line in report.details] == [True] * 4

    def test_oracles_agree_off_the_diagonal(self, monkeypatch):
        code = non_mds_control()
        profile = full_profile(code)
        general = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            general.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        psi = encode_state(code)
        delta = max(
            abs(von_neumann_entropy(psi, spec_at(mask, 5)) - entropy)
            for mask, entropy in enumerate(profile.table.tolist())
        )
        assert delta < 1e-12
        # four reduced states are not diagonal and take the general solver
        assert len(general) == 4


INDEX_TAKERS = {
    "SubsystemSpec": lambda code, bad: SubsystemSpec(False, [bad]),
    "decode": lambda code, bad: decode(encode_state(code), code, [bad, 2]),
    "decode_target": lambda code, bad: decode_target(code, [bad, 2]),
    "decoded_fidelity": lambda code, bad: decoded_fidelity(encode_state(code), code, [bad, 2]),
}


@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("taker", sorted(INDEX_TAKERS))
def test_index_coercion_rejected(taker, bad):
    # each would otherwise be read as index 1 (or fail with a TypeError)
    with pytest.raises(ValueError, match="integer"):
        INDEX_TAKERS[taker](make_code(3, 1, 2, 3), bad)


# the entry points that take a subsystem spec, each given a code and its
# state; all three read the spec's registers through one range check
SPEC_TAKERS = {
    "subsystem_entropy": lambda code, psi, spec: subsystem_entropy(code, spec),
    "partial_trace": lambda code, psi, spec: partial_trace(psi, spec),
    "von_neumann_entropy": lambda code, psi, spec: von_neumann_entropy(psi, spec),
}
# (reference registers, spec, message) against n = 3 coded qudits
SPEC_REFUSALS = {
    "out of range": (1, SubsystemSpec(False, [4]), r"subsystem indices out of range 1\.\.3: \[4\]"),
    "no reference block": (0, SubsystemSpec(True, [1]), "no reference block but include_R"),
}


@pytest.mark.parametrize("refusal", sorted(SPEC_REFUSALS))
@pytest.mark.parametrize("taker", sorted(SPEC_TAKERS))
def test_spec_refusals_shared(taker, refusal):
    k, spec, message = SPEC_REFUSALS[refusal]
    if k:
        code = make_code(3, 1, 2, 3)
        psi = encode_state(code)
    else:
        # a hand-built state of three qutrits, and a stand-in code of its
        # shape, which no CodeParams admits
        psi = StateVector(3, 3, [[0, 0, 0]], [1.0])
        code = types.SimpleNamespace(params=types.SimpleNamespace(k=0, n=3))
    with pytest.raises(ValueError, match=message):
        SPEC_TAKERS[taker](code, psi, spec)


# masks and indices past the 16-entry table of [[3,1,2]]_3, one per entry
# point that reaches the subset layout; the layout refuses a mask outside
# 0..full, and the spec and the decoder refuse an index above n before
UNION_REFUSALS = {
    "profile labels 16": (lambda code: full_profile(code).labels(16), "union mask 16 lies outside 0..15"),
    "profile labels 17": (lambda code: full_profile(code).labels(17), "union mask 17 lies outside 0..15"),
    "profile labels -1": (lambda code: full_profile(code).labels(-1), "union mask -1 lies outside 0..15"),
    "layout positions -1": (lambda code: entropy.subset_layout(1, 3).positions(-1),
                            "union mask -1 lies outside 0..15"),
    "spec registers": (lambda code: SubsystemSpec(True, [4]).registers(1, 3),
                       r"subsystem indices out of range 1\.\.3: \[4\]"),
    "decode_target": (lambda code: decode_target(code, [2, 4]), r"surviving indices must lie in 1\.\.3"),
}


@pytest.mark.parametrize("refusal", sorted(UNION_REFUSALS))
def test_unions_past_the_table_are_refused(refusal):
    taker, message = UNION_REFUSALS[refusal]
    code = make_code(3, 1, 2, 3)
    with pytest.raises(ValueError, match=message):
        taker(code)
    # the table's last entry still answers
    assert full_profile(code).labels(15) == ("R", "Q1", "Q2", "Q3")
