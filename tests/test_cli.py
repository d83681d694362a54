import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import qmds
from qmds import reporting
from qmds.cli import build_parser, main
from qmds.entropy import (
    check_decoding_condition,
    check_entropy_inequalities,
    full_profile,
    product_state_checks,
)

from conftest import DESK_PARAMS, REFERENCE_PARAMS, make_code, non_mds_control


# the two commands that run the state-vector simulator
SIM_COMMANDS = [["verify", "--oracle", "both"], ["decode-test", "--all"]]


def run_cli(capsys, *argv):
    exit_code = main(list(argv))
    captured = capsys.readouterr()
    return exit_code, captured.out, captured.err


class TestConstruct:
    def test_default_q_is_smallest_prime(self, capsys):
        code_exit, out, _ = run_cli(capsys, "construct", "--n", "3", "--k", "1", "--d", "2")
        assert code_exit == 0
        descriptor = json.loads(out)
        assert descriptor == {"q": 3, "n": 3, "k": 1, "d": 2, "alphas": [0, 1, 2]}

    def test_default_q_skips_composites(self, capsys):
        code_exit, out, _ = run_cli(capsys, "construct", "--n", "4", "--k", "2", "--d", "2")
        assert code_exit == 0
        assert json.loads(out)["q"] == 5

    def test_singleton_violation_exits_2(self, capsys):
        code_exit, _, err = run_cli(capsys, "construct", "--n", "3", "--k", "2", "--d", "2")
        assert code_exit == 2
        assert "k+2(d-1)" in err

    def test_explicit_alphas(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "construct", "--n", "3", "--k", "1", "--d", "2",
            "--q", "7", "--alphas", "2,4,6",
        )
        assert code_exit == 0
        assert json.loads(out)["alphas"] == [2, 4, 6]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        code_exit, out, _ = run_cli(
            capsys, "construct", "--n", "3", "--k", "1", "--d", "2", "--out", str(path)
        )
        assert code_exit == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 3

    def test_output_round_trips_through_code(self, capsys, tmp_path):
        # every key construct writes is one --code accepts
        path = tmp_path / "code.json"
        flags = ["--n", "4", "--k", "2", "--d", "2", "--q", "5", "--alphas", "4,3,2,1"]
        assert run_cli(capsys, "construct", *flags, "--out", str(path))[0] == 0
        from_file = run_cli(capsys, "verify", "--code", str(path), "--oracle", "lemma")
        assert from_file == run_cli(capsys, "verify", *flags, "--oracle", "lemma")
        assert from_file[0] == 0


class TestProfile:
    def test_csv_size_aggregation(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "profile", "--n", "3", "--k", "1", "--d", "2", "--format", "csv"
        )
        assert code_exit == 0
        assert out == "size,entropy\n0,0\n1,1\n2,2\n3,1\n4,0\n"

    def test_json_entries_all_match(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "profile", "--n", "4", "--k", "2", "--d", "2"
        )
        assert code_exit == 0
        payload = json.loads(out)
        assert len(payload["entries"]) == 32
        assert all(entry["match"] for entry in payload["entries"])
        empty = payload["entries"][0]
        assert empty["subsystem"] == [] and empty["size"] == 0 and empty["entropy"] == 0

    def test_extended_reference_rows_have_null_expectation(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "profile", "--n", "4", "--k", "2", "--d", "2", "--extended-R"
        )
        assert code_exit == 0
        payload = json.loads(out)
        partial = [e for e in payload["entries"] if any(
            lbl.startswith("R") and lbl != "R" for lbl in e["subsystem"]
        )]
        assert len(partial) == 32
        assert all(e["expected"] is None and e["match"] is None for e in partial)

    def test_extended_csv_ranks_only_the_atomic_table(self, capsys, monkeypatch):
        # the CSV aggregates R-atomic subsystems, so --extended-R adds
        # nothing to it and the 2^(k+n) register table is not ranked
        import qmds.entropy as entropy

        parts = []
        rank_table = entropy.subset_ranks

        def counting(*args):
            parts.append(len(args[2]))
            return rank_table(*args)

        monkeypatch.setattr(entropy, "subset_ranks", counting)
        argv = ["profile", "--n", "5", "--k", "3", "--d", "2", "--q", "7", "--format", "csv"]
        code_exit, out, _ = run_cli(capsys, *argv, "--extended-R")
        assert code_exit == 0
        assert parts == [6]  # one 2^(n+1) table: Q1..Q5 and R
        assert out == run_cli(capsys, *argv)[1]

    def test_descriptor_file_input(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"q": 5, "n": 5, "k": 1, "d": 3}))
        code_exit, out, _ = run_cli(capsys, "profile", "--code", str(path))
        assert code_exit == 0
        assert len(json.loads(out)["entries"]) == 64

    def test_missing_code_source_exits_2(self, capsys):
        code_exit, _, err = run_cli(capsys, "profile", "--n", "3")
        assert code_exit == 2
        assert "--code" in err

    def test_byte_identical_reruns(self, capsys):
        args = ("profile", "--n", "5", "--k", "1", "--d", "3", "--q", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestVerify:
    @pytest.mark.parametrize("params", REFERENCE_PARAMS)
    def test_smoke_both_oracles(self, capsys, params):
        n, k, d, q = params
        code_exit, out, _ = run_cli(
            capsys, "verify", "--n", str(n), "--k", str(k), "--d", str(d),
            "--q", str(q), "--oracle", "both", "--inequalities",
        )
        assert code_exit == 0
        assert "result: PASS" in out

    def test_reports_oracle_delta(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "verify", "--n", "5", "--k", "1", "--d", "3", "--q", "5",
            "--oracle", "both",
        )
        assert code_exit == 0
        assert "max oracle delta" in out

    def test_lemma_only(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--k", "1", "--d", "2", "--oracle", "lemma"
        )
        assert code_exit == 0
        assert "state-vector" not in out

    def test_q_too_large_for_int64_exits_2(self, capsys):
        code_exit, out, err = run_cli(
            capsys, "verify", "--n", "5", "--k", "1", "--d", "3",
            "--q", "4294967311", "--oracle", "lemma",
        )
        assert code_exit == 2
        assert out == ""
        assert "below 2^31" in err

    def test_largest_accepted_q_passes(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "verify", "--n", "5", "--k", "1", "--d", "3",
            "--q", str(2**31 - 1), "--alphas", "2147483646,1073741824,7,3,2147483638",
            "--oracle", "lemma", "--inequalities",
        )
        assert code_exit == 0
        assert out.endswith("result: PASS\n")

    def test_tampered_descriptor_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"q": 3, "n": 3, "k": 1, "d": 2, "alphas": [0, 1, 1]}
        ))
        code_exit, _, err = run_cli(capsys, "verify", "--code", str(path))
        assert code_exit == 2
        assert "distinct" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code_exit, _, _ = run_cli(capsys, "verify", "--code", str(path))
        assert code_exit == 2

    def test_statevec_memory_guard_exits_2(self, capsys):
        # 13**7 support rows x 14 digits exceed the 2**24-cell guard; the
        # error names the exact oracle as the fallback
        code_exit, _, err = run_cli(
            capsys, "verify", "--n", "13", "--k", "1", "--d", "7", "--q", "13",
            "--oracle", "statevec",
        )
        assert code_exit == 2
        assert "rank-identity" in err

    def test_statevec_guard_runs_before_ranking(self, capsys, monkeypatch):
        # the support guard refuses [[13,1,7]]_13 before the 2^14-mask
        # rank table is built
        import qmds.entropy as entropy

        def forbidden(*args):
            raise AssertionError("ranked a profile the state-vector guard refuses")

        monkeypatch.setattr(entropy, "subset_ranks", forbidden)
        for oracle in ("statevec", "both"):
            code_exit, out, err = run_cli(
                capsys, "verify", "--n", "13", "--k", "1", "--d", "7", "--q", "13",
                "--oracle", oracle,
            )
            assert (code_exit, out) == (2, "")
            assert "rank-identity" in err

    @pytest.mark.parametrize("argv", SIM_COMMANDS, ids=["verify", "decode-test"])
    def test_support_not_basis_size_is_guarded(self, capsys, argv):
        # [[7,3,3]]_7 has 7**10 basis states but 7**5 support rows
        code_exit, out, err = run_cli(
            capsys, argv[0], "--n", "7", "--k", "3", "--d", "3", "--q", "7", *argv[1:]
        )
        assert (code_exit, err) == (0, "")
        assert out.endswith("result: PASS\n")

    @pytest.mark.parametrize("argv", SIM_COMMANDS, ids=["verify", "decode-test"])
    def test_7_1_4_runs_within_10_s(self, capsys, argv):
        # perf regression guard: the dense simulator took 120 s and 15 s
        start = time.perf_counter()
        code_exit, out, _ = run_cli(
            capsys, argv[0], "--n", "7", "--k", "1", "--d", "4", "--q", "7", *argv[1:]
        )
        elapsed = time.perf_counter() - start
        assert code_exit == 0 and out.endswith("result: PASS\n")
        assert elapsed < 10.0

    def test_verification_failure_exits_1(self, capsys, monkeypatch):
        # corrupt one table entry to drive the (otherwise unreachable for
        # valid codes) failure reporting path
        import qmds.cli as cli_module
        from qmds.entropy import full_profile as real_full_profile

        def corrupted(code):
            profile = real_full_profile(code)
            profile.table[0b0001] += 1  # Q1
            return profile

        monkeypatch.setattr(cli_module, "full_profile", corrupted)
        code_exit, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--k", "1", "--d", "2", "--oracle", "lemma"
        )
        assert code_exit == 1
        assert "  mismatch ['Q1']: entropy 2, expected 1\n" in out
        assert "result: FAIL" in out

    @pytest.mark.parametrize("oracle", ["lemma", "statevec", "both"])
    def test_verify_builds_no_subsystem_spec(self, capsys, monkeypatch, oracle):
        # both oracles are mask-indexed tables; no subsystem object is built
        from qmds.entropy import SubsystemSpec

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"SubsystemSpec built on the {oracle} path")

        monkeypatch.setattr(SubsystemSpec, "__init__", refuse)
        code_exit, out, _ = run_cli(
            capsys, "verify", "--n", "5", "--k", "1", "--d", "3", "--q", "5",
            "--oracle", oracle, "--inequalities",
        )
        assert code_exit == 0
        assert out.endswith("result: PASS\n")

    def test_each_smaller_side_is_reduced_once(self, capsys, monkeypatch):
        # 6 registers: the 41 subsystems of 1..3 registers are reduced, in
        # batches by register count, and the 22 larger ones read their
        # complement's entry
        from qmds import sim

        reduced, tables = [], []
        diagonals, reduce, entropy_table = sim._diagonal_entropies, sim._reduce, sim.entropy_table

        def batched(q, registers, weights, kept):
            reduced.extend(map(tuple, kept.tolist()))
            return diagonals(q, registers, weights, kept)

        def per_mask(psi, positions):
            reduced.append(tuple(positions))
            return reduce(psi, positions)

        def recording(psi):
            tables.append(entropy_table(psi))
            return tables[-1]

        monkeypatch.setattr(sim, "_diagonal_entropies", batched)
        monkeypatch.setattr(sim, "_reduce", per_mask)
        monkeypatch.setattr(sim, "entropy_table", recording)
        code_exit, out, _ = run_cli(
            capsys, "verify", "--n", "5", "--k", "1", "--d", "3", "--q", "7",
            "--oracle", "both",
        )
        assert code_exit == 0 and out.endswith("result: PASS\n")
        assert len(reduced) == 41
        assert len(set(reduced)) == 41
        assert all(1 <= len(positions) <= 3 for positions in reduced)
        # mask bit 5 is R (register 0) and bit i - 1 is Qi (register i)
        (table,) = tables
        larger = [mask for mask in range(64) if mask.bit_count() > 3]
        assert len(larger) == 22
        for mask in larger:
            positions = tuple(r for r, bit in enumerate([5, 0, 1, 2, 3, 4]) if mask >> bit & 1)
            assert positions not in reduced
            assert table[mask] == table[63 - mask]

    @pytest.mark.parametrize("oracle", ["both", "statevec"])
    def test_non_mds_control_failure_lines(self, capsys, monkeypatch, oracle):
        # the state-vector failure lines and the max delta of a code that
        # breaks the law, pinned byte for byte
        import qmds.cli as cli_module

        monkeypatch.setattr(cli_module, "_load_code", lambda args: non_mds_control())
        code_exit, out, err = run_cli(capsys, "verify", "--oracle", oracle)
        assert (code_exit, err) == (1, "")
        golden = GOLDEN / f"verify_non_mds_control_{oracle}.txt"
        assert out == golden.read_text(encoding="utf-8")


    @pytest.mark.parametrize("params", DESK_PARAMS, ids=str)
    def test_suite_blocks_are_the_report_lines(self, capsys, params):
        flags = [f"--{name}={value}" for name, value in zip("nkdq", params)]
        code_exit, out, _ = run_cli(capsys, "verify", *flags, "--oracle", "lemma", "--inequalities")
        profile = full_profile(make_code(*params))
        blocks = check_entropy_inequalities(profile).lines() + product_state_checks(profile).lines()
        assert code_exit == 0
        assert out.splitlines()[-1 - len(blocks):] == [*blocks, "result: PASS"]


class TestDecodingSummary:
    """verify prints the decoding check count and formats only failing checks."""

    def test_passing_checks_build_no_result(self, capsys, monkeypatch):
        built = []
        check_result = reporting.CheckResult

        def counting(*args, **kwargs):
            built.append(args)
            return check_result(*args, **kwargs)

        monkeypatch.setattr(reporting, "CheckResult", counting)
        code_exit, out, _ = run_cli(
            capsys, "verify", "--n", "10", "--k", "2", "--d", "5", "--q", "11", "--oracle", "lemma"
        )
        assert code_exit == 0
        # C(10, 6) recovery sets and C(10, 4) erasure sets
        assert "[ok] decoding conditions for [[10,2,5]]_11 (420 checks)\n" in out
        assert built == []

    @pytest.mark.parametrize(
        "params, raise_at",
        [
            (None, []),
            ((5, 1, 3, 5), [0b100000]),  # H(R)
            ((5, 1, 3, 5), [0b000001, 0b100110]),  # H(Q1), H(R Q2 Q3)
            ((6, 2, 3, 7), [0b000101, 0b1011000]),  # H(Q1 Q3), H(R Q4 Q5)
        ],
        ids=["non-mds-control", "R", "Q1-and-RQ2Q3", "Q1Q3-and-RQ4Q5"],
    )
    def test_failure_lines_match_the_full_report(self, capsys, monkeypatch, params, raise_at):
        import qmds.cli as cli_module

        code = non_mds_control() if params is None else qmds.QuantumMdsCode(
            qmds.CodeParams(*params)
        )
        profile = full_profile(code)
        for mask in raise_at:
            profile.table[mask] += 1
        monkeypatch.setattr(cli_module, "_load_code", lambda args: code)
        monkeypatch.setattr(cli_module, "full_profile", lambda code: profile)
        code_exit, out, _ = run_cli(capsys, "verify", "--oracle", "lemma")
        report = check_decoding_condition(profile)
        assert code_exit == 1 and report.failures()
        lines = out.splitlines()
        header = lines.index(f"[FAIL] {report.title} ({len(report.results)} checks)")
        failures = lines[header + 1 : header + 1 + len(report.failures())]
        assert failures == ["  " + result.line() for result in report.failures()]
        assert lines[header + 1 + len(failures)] == "result: FAIL"


class TestCoercedInputRejected:
    """Input that is not exactly an integer (list) exits 2 instead of running."""

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            ({"q": 3, "n": 3, "k": 1, "d": 2, "alphas": [0, 1.7, 2]}, "integer"),
            ({"q": 3, "n": 3, "k": 1, "d": 2, "alphas": ["0", "1", "2"]}, "integer"),
            ({"q": 3, "n": 3, "k": 1, "d": 2, "alphas": [False, True, 2]}, "bool"),
            ({"q": 3, "n": 3, "k": True, "d": 2}, "'k' must be an integer"),
            ({"q": 5, "n": 4, "k": 2, "d": 2, "alpha": [4, 3, 2, 1]}, "unknown keys: ['alpha']"),
        ],
        ids=["float-alpha", "string-alphas", "bool-alphas", "bool-k", "misspelt-key"],
    )
    def test_descriptor_exits_2(self, capsys, tmp_path, descriptor, message):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(descriptor))
        code_exit, out, err = run_cli(capsys, "verify", "--code", str(path))
        assert code_exit == 2
        assert out == ""
        assert message in err

    def test_code_file_with_parameter_flags_exits_2(self, capsys, tmp_path):
        # the flags would otherwise be dropped and the file's code verified
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"q": 5, "n": 4, "k": 2, "d": 2}))
        code_exit, out, err = run_cli(
            capsys, "verify", "--code", str(path), "--n", "9", "--k", "1", "--d", "5",
            "--q", "11", "--alphas", "1,2,3", "--oracle", "lemma",
        )
        assert (code_exit, out) == (2, "")
        assert err == "error: --code cannot be combined with --n, --k, --d, --q, --alphas\n"
        code_exit, _, err = run_cli(capsys, "decode-test", "--code", str(path), "--q", "5", "--all")
        assert code_exit == 2 and "--q" in err

    @pytest.mark.parametrize("command", ["construct", "verify"])
    def test_empty_alphas_field_exits_2(self, capsys, command):
        code_exit, out, err = run_cli(
            capsys, command, "--n", "3", "--k", "1", "--d", "2", "--alphas", "0,,1,2"
        )
        assert code_exit == 2
        assert out == ""
        assert "--alphas" in err

    def test_empty_erasures_field_exits_2(self, capsys):
        code_exit, out, err = run_cli(
            capsys, "decode-test", "--n", "5", "--k", "1", "--d", "3", "--q", "5",
            "--erasures", "2,,4",
        )
        assert code_exit == 2
        assert out == ""
        assert "--erasures" in err


class TestDigitDtypeEdges:
    """q = 251 is the largest prime with uint8 digits, q = 257 the smallest with uint16."""

    @pytest.mark.parametrize("q", [251, 257])
    @pytest.mark.parametrize("argv", SIM_COMMANDS, ids=["verify", "decode-test"])
    def test_simulator_passes(self, capsys, q, argv):
        code_exit, out, err = run_cli(
            capsys, argv[0], "--n", "3", "--k", "1", "--d", "2", "--q", str(q), *argv[1:]
        )
        assert (code_exit, err) == (0, "")
        assert out.endswith("result: PASS\n")


class TestWorkGuard:
    def test_profile_past_the_mask_guard_exits_2(self, capsys):
        # 2^19 R-atomic subsystems; refused before the rank table exists
        code_exit, out, err = run_cli(
            capsys, "verify", "--n", "18", "--k", "2", "--d", "9", "--q", "19",
            "--oracle", "lemma",
        )
        assert code_exit == 2
        assert out == ""
        assert "2^19" in err and "guard" in err

    def test_only_the_extended_table_trips(self, capsys):
        # 2^12 R-atomic subsystems are fine; splitting R needs 2^20 masks
        argv = ["profile", "--n", "11", "--k", "9", "--d", "2", "--q", "11"]
        code_exit, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code_exit == 0
        assert out.startswith("size,entropy\n0,0\n")
        code_exit, out, err = run_cli(capsys, *argv, "--extended-R")
        assert code_exit == 2
        assert out == ""
        assert "2^20" in err

    def test_large_code_is_refused_at_once(self, capsys):
        # construction takes no rank, so the mask guard is reached at once
        start = time.perf_counter()
        code_exit, out, err = run_cli(
            capsys, "verify", "--n", "801", "--k", "1", "--d", "401", "--oracle", "lemma"
        )
        assert (code_exit, out) == (2, "")
        assert "guard" in err
        assert time.perf_counter() - start < 3

    def test_oversize_generator_exits_2(self, capsys):
        code_exit, out, err = run_cli(capsys, "construct", "--n", "6001", "--k", "1", "--d", "3001")
        assert (code_exit, out) == (2, "")
        assert "3001 x 6002 entries" in err


class TestDecodeTest:
    def test_all_patterns_3_1_2(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "decode-test", "--n", "3", "--k", "1", "--d", "2", "--all"
        )
        assert code_exit == 0
        lines = [line for line in out.splitlines() if line.startswith("erasures")]
        assert len(lines) == 3
        assert all("fidelity 1.000000000000" in line for line in lines)

    def test_all_patterns_4_2_2(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "decode-test", "--n", "4", "--k", "2", "--d", "2", "--all"
        )
        assert code_exit == 0
        assert out.count("fidelity") == 4

    def test_single_pattern(self, capsys):
        code_exit, out, _ = run_cli(
            capsys, "decode-test", "--n", "5", "--k", "1", "--d", "3", "--q", "5",
            "--erasures", "2,4",
        )
        assert code_exit == 0
        assert "erasures [2, 4]" in out

    def test_wrong_erasure_size_exits_2(self, capsys):
        code_exit, _, err = run_cli(
            capsys, "decode-test", "--n", "3", "--k", "1", "--d", "2",
            "--erasures", "1,2",
        )
        assert code_exit == 2
        assert "d-1=1" in err

    def test_support_guard_runs_before_patterns_are_listed(self, capsys, monkeypatch):
        # [[23,1,12]]_23 has C(23,11) = 1352078 patterns; the support guard
        # refuses the code before one of them is listed
        import itertools

        listed = []
        combinations = itertools.combinations

        def counting(*args):
            for pattern in combinations(*args):
                listed.append(pattern)
                yield pattern

        monkeypatch.setattr(itertools, "combinations", counting)
        code_exit, out, err = run_cli(
            capsys, "decode-test", "--n", "23", "--k", "1", "--d", "12", "--all"
        )
        assert (code_exit, out) == (2, "")
        assert "state vector support of 23^12 rows" in err
        assert listed == []

    def test_requires_pattern_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decode-test", "--n", "3", "--k", "1", "--d", "2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("n,k,d,q", [(5, 1, 3, 5), (3, 1, 2, 3), (4, 2, 2, 5)])
    def test_undecoded_state_fails_every_pattern(self, capsys, monkeypatch, n, k, d, q):
        from qmds import sim

        monkeypatch.setattr(sim, "decode", lambda psi, code, surviving: psi)
        code_exit, out, _ = run_cli(
            capsys, "decode-test", "--n", str(n), "--k", str(k), "--d", str(d),
            "--q", str(q), "--all",
        )
        *patterns, verdict = out.splitlines()
        assert code_exit == 1
        assert verdict == "result: FAIL"
        assert len(patterns) == math.comb(n, d - 1)
        assert all(line.endswith("[FAIL]") for line in patterns)

    def test_decode_without_its_second_step_fails(self, capsys, monkeypatch):
        from qmds import sim
        from qmds.code import erasure_submatrices
        from qmds.linalg import invert

        def step_one_only(code, surviving, values):
            ab_s, _ = erasure_submatrices(code, surviving)
            return values @ invert(ab_s, code.params.q) % code.params.q

        monkeypatch.setattr(sim, "_decode_block", step_one_only)
        code_exit, out, _ = run_cli(
            capsys, "decode-test", "--n", "3", "--k", "1", "--d", "2", "--all"
        )
        # one of the three patterns still decodes, so only the verdict is pinned
        assert code_exit == 1
        assert out.splitlines()[-1] == "result: FAIL"

    @pytest.mark.parametrize("params", DESK_PARAMS, ids=str)
    def test_fidelity_lines_match_the_listed_target(self, capsys, params):
        from qmds import sim

        n, k, d, q = params
        code = make_code(*params)
        psi = sim.encode_state(code)
        expected = []
        for erased in itertools.combinations(range(1, n + 1), d - 1):
            surviving = [i for i in range(1, n + 1) if i not in erased]
            f = sim.fidelity(sim.decode(psi, code, surviving), sim.decode_target(code, surviving))
            expected.append(f"erasures {list(erased)}: fidelity {f:.12f} [ok]")
        code_exit, out, _ = run_cli(
            capsys, "decode-test", "--n", str(n), "--k", str(k), "--d", str(d),
            "--q", str(q), "--all",
        )
        assert code_exit == 0
        assert out.splitlines() == expected + ["result: PASS"]

    def test_each_pattern_eliminates_two_blocks(self, capsys, monkeypatch):
        # per pattern, one elimination of [AB_surviving | E | AB_erased] and
        # the rank of the erased seed block; the rest is construction
        from qmds import linalg

        calls = []
        rref = linalg.rref

        def counting(*args, **kwargs):
            calls.append(args)
            return rref(*args, **kwargs)

        monkeypatch.setattr(linalg, "rref", counting)
        make_code(5, 1, 3, 11)
        construction = len(calls)
        calls.clear()
        code_exit, out, _ = run_cli(
            capsys, "decode-test", "--n", "5", "--k", "1", "--d", "3", "--q", "11", "--all"
        )
        assert code_exit == 0
        assert out.count("[ok]") == math.comb(5, 2)
        assert len(calls) == construction + 2 * math.comb(5, 2)

    @pytest.mark.parametrize(
        "argv, golden",
        [(["--all"], "all"), (["--erasures", "4,5"], "erasures_4_5")],
        ids=["all", "erasures-4-5"],
    )
    def test_singular_blocks_fail_their_patterns(self, capsys, monkeypatch, argv, golden):
        # the control repeats Q4's column in Q5: a pattern whose surviving
        # block or erased seed block is singular fails, and the rest run
        import qmds.cli as cli_module

        monkeypatch.setattr(cli_module, "_load_code", lambda args: non_mds_control())
        code_exit, out, err = run_cli(capsys, "decode-test", *argv)
        assert (code_exit, err) == (1, "")
        expected = GOLDEN / f"decode_test_non_mds_control_{golden}.txt"
        assert out == expected.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "erasures, message",
        [("4,6", "1..5"), ("4,4", "duplicate"), ("3,4,5", "d-1=2")],
        ids=["out-of-range", "duplicate", "wrong-size"],
    )
    def test_bad_patterns_on_a_singular_code_exit_2(self, capsys, monkeypatch, erasures, message):
        import qmds.cli as cli_module

        monkeypatch.setattr(cli_module, "_load_code", lambda args: non_mds_control())
        code_exit, out, err = run_cli(capsys, "decode-test", "--erasures", erasures)
        assert (code_exit, out) == (2, "")
        assert message in err


class TestFigure:
    def test_k1_d2_rows(self, capsys):
        code_exit, out, _ = run_cli(capsys, "figure", "--k", "1", "--d", "2")
        assert code_exit == 0
        assert out == "size,entropy\n0,0\n1,1\n2,2\n3,1\n4,0\n"

    def test_apex_and_endpoints(self, capsys):
        code_exit, out, _ = run_cli(capsys, "figure", "--k", "3", "--d", "4")
        assert code_exit == 0
        rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
        apex = 3 + 4 - 1
        assert rows[0] == (0, 0)
        assert rows[-1] == (2 * apex, 0)
        assert (apex, apex) in rows

    def test_bad_params_exit_2(self, capsys):
        assert run_cli(capsys, "figure", "--k", "0", "--d", "2")[0] == 2
        assert run_cli(capsys, "figure", "--k", "1", "--d", "1")[0] == 2

    def test_oversize_exits_2_before_any_row(self, capsys, monkeypatch):
        import qmds.cli as cli_module

        def no_row(*args):
            raise AssertionError("a figure row was computed")

        monkeypatch.setattr(cli_module, "expected_subsystem_entropy", no_row)
        # 2(k + d - 1) + 1 = 2^24 + 1 rows
        code_exit, out, err = run_cli(capsys, "figure", "--k", str(2**23 - 1), "--d", "2")
        assert (code_exit, out) == (2, "")
        assert "16777217 rows" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "figure.csv"
        code_exit, _, _ = run_cli(
            capsys, "figure", "--k", "1", "--d", "2", "--out", str(path)
        )
        assert code_exit == 0
        assert path.read_text().splitlines()[1] == "0,0"

    @pytest.mark.parametrize("chunk_rows", [1, 3, 13, 14])
    def test_chunked_csv_is_one_text(self, capsys, monkeypatch, chunk_rows):
        # 2(3 + 4 - 1) + 1 = 13 rows, in chunks that split them evenly or not
        import qmds.cli as cli_module

        monkeypatch.setattr(cli_module, "CSV_CHUNK_ROWS", chunk_rows)
        code_exit, out, _ = run_cli(capsys, "figure", "--k", "3", "--d", "4")
        assert code_exit == 0
        rows = [f"{s},{min(s, 12 - s)}\n" for s in range(13)]
        assert out == "size,entropy\n" + "".join(rows)

    def test_long_figure_is_written_in_chunks(self, tmp_path):
        # 1000003 rows: built as one list of tuples and one string, they
        # peaked at about 190 MB of Python allocations
        path = tmp_path / "figure.csv"
        tracemalloc.start()
        try:
            code_exit = main(["figure", "--k", "500000", "--d", "2", "--out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code_exit == 0
        assert peak < 8 * 2**20, f"figure peaked at {peak / 2**20:.1f} MB"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 1000003
        assert lines[:3] == ["size,entropy", "0,0", "1,1"]
        assert lines[1 + 500001] == "500001,500001"
        assert lines[-1] == "1000002,0"


class TestExitCodeContract:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_file_exits_2(self, capsys):
        code_exit, _, _ = run_cli(capsys, "profile", "--code", "/nonexistent.json")
        assert code_exit == 2

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        import qmds.cli as cli_module

        def exhausted(code):
            raise MemoryError("cannot allocate the rank table")

        monkeypatch.setattr(cli_module, "full_profile", exhausted)
        code_exit, out, err = run_cli(capsys, "profile", "--n", "3", "--k", "1", "--d", "2")
        assert code_exit == 2
        assert out == ""
        assert err == "error: out of memory: cannot allocate the rank table\n"


GOLDEN = Path(__file__).resolve().parent / "data"
CODE_ARGS = {
    "4_2_2_5": ["--n", "4", "--k", "2", "--d", "2", "--q", "5"],
    "5_1_3_5": ["--n", "5", "--k", "1", "--d", "3", "--q", "5"],
}
GOLDEN_RUNS = {
    f"profile_{code}{suffix}": ["profile", *args, *extra]
    for code, args in CODE_ARGS.items()
    for suffix, extra in (
        (".json", []),
        (".csv", ["--format", "csv"]),
        ("_extended_R.json", ["--extended-R"]),
    )
}
GOLDEN_RUNS["verify_4_2_2_5_both_inequalities.txt"] = [
    "verify", *CODE_ARGS["4_2_2_5"], "--oracle", "both", "--inequalities"
]


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_output_matches_golden_file(capsys, golden):
    # stdout pinned byte for byte to the captures in tests/data/
    code_exit, out, err = run_cli(capsys, *GOLDEN_RUNS[golden])
    assert (code_exit, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(qmds.__file__).resolve().parents[1]))
    argv = ["figure", "--k", "1", "--d", "2"]
    done = subprocess.run(
        [sys.executable, "-m", "qmds", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == run_cli(capsys, *argv)[1]
