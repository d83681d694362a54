"""Tests of the benchmark's own parts: the gate, the op generator, the tracer.

The gate must count fabricated bad outputs as failures.  Nothing here
imports qmds, so these tests pin no detail of the program.
"""

import itertools
import math
import random
import sys
import types

import pytest

import gate
import run
import tracer
import workloads

LEMMA = ["verify", "--n", "3", "--k", "1", "--d", "2", "--q", "3", "--alphas", "2,0,1",
         "--oracle", "lemma", "--inequalities"]
BOTH = ["verify", "--n", "4", "--k", "2", "--d", "2", "--q", "5", "--alphas", "4,1,0,3",
        "--oracle", "both"]
ERASE = ["decode-test", "--n", "5", "--k", "1", "--d", "3", "--q", "5", "--alphas",
         "3,1,4,0,2", "--erasures", "4,2"]
ALL = ["decode-test", "--n", "5", "--k", "1", "--d", "3", "--q", "5", "--alphas",
       "3,1,4,0,2", "--all"]


def verify_text(n, k, d, q, oracle, inequalities, delta="4.441e-16"):
    subs, checks = 2 ** (n + 1), math.comb(n, d - 1) + math.comb(n, n - d + 1)
    lines = [f"verify [[{n},{k},{d}]]_{q} (oracle: {oracle})"]
    if oracle in ("lemma", "both"):
        lines.append(f"[ok] rank-identity profile matches min(size, {k + n} - size) "
                     f"on {subs} subsystems")
    if oracle == "both":
        lines.append(f"[ok] state-vector entropies within 1e-09 of the rank oracle on {subs} "
                     f"subsystems (max oracle delta {delta})")
    lines.append(f"[ok] decoding conditions for [[{n},{k},{d}]]_{q} ({checks} checks)")
    if inequalities:
        lines.append(f"[ok] entropy inequalities for [[{n},{k},{d}]]_{q}")
        lines += [f"  [ok] {family}: {3 ** (n + 1)} assignments, 0 violations"
                  for family in gate.FAMILIES]
    return "\n".join(lines + ["result: PASS"]) + "\n"


def decode_text(patterns, fidelity="1.000000000000"):
    lines = [f"erasures {p}: fidelity {fidelity} [ok]" for p in patterns]
    return "\n".join(lines + ["result: PASS"]) + "\n"


GOOD = [
    (LEMMA, verify_text(3, 1, 2, 3, "lemma", True)),
    (BOTH, verify_text(4, 2, 2, 5, "both", False)),
    (ERASE, decode_text([[2, 4]])),
    (ALL, decode_text([list(c) for c in itertools.combinations(range(1, 6), 2)])),
]


@pytest.mark.parametrize("argv, text", GOOD, ids=["lemma", "both", "erasures", "all"])
def test_good_output_passes(argv, text):
    verdict = gate.check(argv, 0, text)
    assert verdict.ok, verdict.problems


def test_parses_delta_and_fidelities():
    assert gate.check(BOTH, 0, GOOD[1][1]).max_delta == pytest.approx(4.441e-16)
    assert gate.check(ALL, 0, GOOD[3][1]).fidelities == [1.0] * 10


@pytest.mark.parametrize("argv, text, exit_code", [
    pytest.param(LEMMA, GOOD[0][1].replace("[ok] decoding", "[FAIL] decoding"), 0,
                 id="fail-line-with-pass-verdict"),
    pytest.param(LEMMA, GOOD[0][1].replace("81 assignments", "80 assignments", 1), 0,
                 id="short-assignment-count"),
    pytest.param(LEMMA, GOOD[0][1].replace("  [ok] triangle", "  [ok] other"), 0,
                 id="missing-inequality-family"),
    pytest.param(BOTH, verify_text(4, 2, 2, 5, "both", False, delta="2.000e-09"), 0,
                 id="large-delta"),
    pytest.param(BOTH, verify_text(4, 2, 2, 5, "both", False, delta="nan"), 0,
                 id="nan-delta"),
    pytest.param(BOTH, GOOD[1][1].replace("on 32 subsystems", "on 16 subsystems"), 0,
                 id="short-subsystem-count"),
    pytest.param(BOTH, GOOD[1][1].replace("(8 checks)", "(4 checks)"), 0,
                 id="short-decoding-checks"),
    pytest.param(BOTH, GOOD[1][1], 1, id="exit-code-1"),
    pytest.param(BOTH, GOOD[1][1].replace("result: PASS\n", ""), 0, id="no-verdict"),
    pytest.param(ERASE, decode_text([[2, 4]], fidelity="0.999999999990"), 0,
                 id="low-fidelity"),
    pytest.param(ERASE, decode_text([[2, 4]], fidelity="nan"), 0, id="nan-fidelity"),
    pytest.param(ALL, decode_text(list(map(list, itertools.combinations(range(1, 6), 2)))[:9]),
                 0, id="skipped-pattern"),
    pytest.param(ERASE, decode_text([[2, 5]]), 0, id="wrong-pattern"),
])
def test_bad_output_fails(argv, text, exit_code):
    assert not gate.check(argv, exit_code, text).ok


def test_rounds_are_seeded():
    def first(workload, seed, count=4):
        gen = workloads.rounds(workload, seed)
        return [next(gen) for _ in range(count)]

    for name in workloads.WORKLOADS:
        assert first(name, 7) == first(name, 7)
        assert first(name, 7) != first(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_inputs_are_valid(name):
    for batch in itertools.islice(workloads.rounds(name, 3), 20):
        for argv, group in zip(batch, workloads.WORKLOADS[name]):
            alphas = [int(a) for a in gate._flag(argv, "--alphas").split(",")]
            assert len(set(alphas)) == group.n and all(0 <= a < group.q for a in alphas)
            if "--erasures" in argv:
                erased = [int(i) for i in gate._flag(argv, "--erasures").split(",")]
                assert len(set(erased)) == group.d - 1
                assert all(1 <= i <= group.n for i in erased)


def test_code_latencies_skip_warm_up_and_keep_faster_half():
    seconds = {0: [9.0, 1.0, 3.0, 2.0, 8.0], 1: [5.0, 4.0]}
    ops = [{"group": g, "seconds": s, "problems": []}
           for g, times in seconds.items() for s in times]
    # code 1: warm-up 9.0 dropped, faster half of [1, 2, 3, 8] is [1, 2];
    # code 2: warm-up 5.0 dropped, one timed op left
    assert run.code_latencies(ops) == [1.5, 4.0]


def test_end_to_end_scales_times_by_the_reference_kernel(monkeypatch):
    monkeypatch.setattr(run.reference, "NOMINAL_S", {"python": 1.0, "blas": 1.0})
    # the Python kernel ran at half the nominal speed in the faster half
    ops = [{"group": g, "seconds": s, "reference_s": r, "problems": []}
           for g, times in enumerate([[9.0, 2.0], [9.0, 4.0], [9.0, 6.0]])
           for s, r in zip(times, [2.0, 3.0 if g else 2.0])]
    record = {"workload": "exact", "ops": ops, "setup_failures": [], "peak_rss_kb": 2048,
              "probe_setup_s": [0.2, 0.6, 0.6], "probe_python_s": [2.0, 3.0, 2.0]}
    metrics = run.end_to_end(record)
    assert metrics["mid_op_s"] == 2.0
    assert metrics["ops_per_s"] == pytest.approx(3 / 6)
    # set-up probes scaled one by one: 0.1, 0.2, 0.3
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert (metrics["peak_rss_mb"], metrics["pass_ratio"]) == (2, 1)


def test_group_argv_modes():
    rng = random.Random(0)
    assert workloads.Group(3, 1, 2, 3, "all").argv(rng)[-1] == "--all"
    assert workloads.Group(3, 1, 2, 3, "lemma").argv(rng)[-3:] == [
        "--oracle", "lemma", "--inequalities"]


@pytest.fixture
def fake_qmds(monkeypatch):
    """Stand-in modules with the attribute names the tracer wraps."""
    linalg = types.ModuleType("qmds.linalg")
    linalg.rank = lambda m: len(m)
    cli = types.ModuleType("qmds.cli")
    cli.full_profile = lambda code: types.SimpleNamespace(
        entries=[linalg.rank([1, 2]) for _ in range(code)])
    package = types.ModuleType("qmds")
    for name, module in (("qmds", package), ("qmds.cli", cli), ("qmds.linalg", linalg)):
        monkeypatch.setitem(sys.modules, name, module)
    for module_name in ("qmds.code", "qmds.entropy", "qmds.sim"):
        monkeypatch.delitem(sys.modules, module_name, raising=False)
    return cli, linalg


def test_tracer_spans_aggregates_and_restore(fake_qmds):
    cli, linalg = fake_qmds
    originals = (cli.full_profile, linalg.rank)
    trace = tracer.Tracer()
    trace.install()
    with trace.op_span(0):
        cli.full_profile(3)
    trace.uninstall()
    assert (cli.full_profile, linalg.rank) == originals

    op, profile = trace.spans
    assert (op["name"], op["parent"], op["op"]) == ("cli.main", None, 0)
    assert (profile["name"], profile["parent"], profile["op"]) == (
        "entropy.full_profile", 0, 0)
    assert profile["agg"]["linalg.rank"][0] == 3
    assert profile["counters"] == {"subsystems": 3}
    for span in trace.spans:
        assert 0 <= span["self"] <= span["end"] - span["start"]

    metrics = tracer.layer_metrics(trace.spans, ops=1)
    assert metrics["linalg.rank_calls"] == 3
    assert metrics["entropy.rank_calls_per_subsystem"] == 1.0
    assert metrics["sim.entropy_calls"] == 0
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers == pytest.approx(metrics["trace.op_s"])
