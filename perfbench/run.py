"""qmds benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 34 --trace 0

Each run starts one fresh worker process (one client, closed loop) that
sets up and runs the workload's ops through ``qmds.cli.main`` for
``--seconds``; between rounds it times set-up in a few fresh set-up-only
processes, one at a time.  Latencies are reported per code of the mix, as
the mean of the faster half of its ops.  End-to-end times are scaled to a
fixed host speed by a reference kernel (``reference.py``) timed before
each op and after each set-up, so a slow spell of the shared host that
covers the whole run does not move them.  Every op is checked by
the gate in ``gate.py``.  The output lists the environment, the
seed and every generated argv, then every metric by name with its unit;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``).  The full record, spans included, is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 12
RUN_BUDGET_S = 170  # a run must end within 180 s
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "mid_op_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "1",
}
PER_LAYER = {
    "linalg.rank_calls": "count",
    "linalg.rank_s": "s",
    "entropy.rank_calls_per_subsystem": "1",
    "entropy.profile_s": "s",
    "entropy.profile_self_s": "s",
    "entropy.subsystems": "count",
    "entropy.inequalities_s": "s",
    "entropy.inequality_assignments": "count",
    "entropy.decoding_check_s": "s",
    "entropy.product_checks_s": "s",
    "sim.entropy_calls": "count",
    "sim.entropy_s": "s",
    "sim.trace_self_s": "s",
    "sim.max_reduced_dim": "count",
    "sim.trace_flops_computed": "flop",
    "sim.eigen_calls": "count",
    "sim.eigen_s": "s",
    "sim.encode_s": "s",
    "sim.amplitudes": "count",
    "sim.state_bytes_computed": "B",
    "sim.decode_s": "s",
    "sim.decode_target_s": "s",
    "sim.fidelity_s": "s",
    "linalg.invert_calls": "count",
    "code.construct_calls": "count",
    "code.construct_s": "s",
    "trace.op_s": "s",
    "cli.self_s": "s",
    "code.self_s": "s",
    "entropy.self_s": "s",
    "linalg.self_s": "s",
    "sim.self_s": "s",
    "sim.max_oracle_delta": "1",
    "sim.min_fidelity": "1",
    "trace.overhead_ratio": "1",
}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--src", os.path.join(ROOT, "src"), *args]
    # a session of its own, so a timeout also ends the worker's set-up probe
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result: {' '.join(args)}")
    return json.loads(lines[-1])


def _source_identity() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def failures(record: dict) -> tuple[int, int]:
    """Failed and attempted ops, the warm-up ops of every process included."""
    failed = sum(1 for op in record["ops"] if op["problems"])
    warmups = len(record["setup_failures"])
    return failed + warmups, len(record["ops"]) + warmups


def faster_half_mean(values: list[float]) -> float:
    """Mean of the faster half: the host's slow spells only ever add time."""
    faster = sorted(values)[:(len(values) + 1) // 2]
    return sum(faster) / len(faster)


def code_latencies(ops: list[dict]) -> list[float]:
    """Each code's faster-half mean latency, in mix order, in wall seconds.

    The first op of each code in the process is its warm-up and is not
    timed.
    """
    latencies = []
    for group in sorted({op["group"] for op in ops}):
        times = [op["seconds"] for op in ops if op["group"] == group]
        latencies.append(faster_half_mean(times[1:] if len(times) > 1 else times))
    return latencies


def host_scale(record: dict) -> float:
    """Nominal over measured time of the workload's reference kernel in this run."""
    kernel = workloads.REFERENCE[record["workload"]]
    measured = faster_half_mean([op["reference_s"] for op in record["ops"]])
    return reference.NOMINAL_S[kernel] / measured


def scaled_setup_s(record: dict) -> float:
    """Median set-up time, each probe scaled by the Python kernel timed after it."""
    nominal = reference.NOMINAL_S["python"]
    return statistics.median(
        seconds * nominal / python_s
        for seconds, python_s in zip(record["probe_setup_s"], record["probe_python_s"]))


def end_to_end(record: dict) -> dict[str, float]:
    """The end-to-end metrics; times are scaled to the nominal host speed."""
    failed, attempted = failures(record)
    scale = host_scale(record)
    latencies = [seconds * scale for seconds in code_latencies(record["ops"])]
    return {
        "setup_s": scaled_setup_s(record),
        # one round of the mix, each code at its typical latency
        "ops_per_s": len(latencies) / sum(latencies),
        # the middle code of the 1:1:1 mix, the one the median op falls in
        "mid_op_s": latencies[len(latencies) // 2],
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
        "pass_ratio": 1 - failed / attempted,
    }


def latency_summary(record: dict) -> str:
    """Each code's scaled typical latency, and its unscaled median and 90th
    percentile with the op count."""
    ops, parts = record["ops"], []
    typical = [seconds * host_scale(record) for seconds in code_latencies(ops)]
    for group in sorted({op["group"] for op in ops}):
        times = [op["seconds"] for op in ops if op["group"] == group]
        p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
        parts.append(f"code{group + 1} typical {typical[group]:.4f} s scaled, unscaled "
                     f"p50 {statistics.median(times):.4f} s p90 {p90:.4f} s over {len(times)} ops")
    return "; ".join(parts)


def per_layer(record: dict) -> dict[str, float]:
    traced = [op for op in record["ops"] if op["traced"]]
    plain = [op for op in record["ops"] if not op["traced"]]
    metrics = tracer.layer_metrics(record["spans"], len(traced))
    deltas = [op["max_delta"] for op in record["ops"] if op["max_delta"] is not None]
    fidelities = [f for op in record["ops"] for f in op["fidelities"]]
    metrics["sim.max_oracle_delta"] = max(deltas, default=0.0)
    metrics["sim.min_fidelity"] = min(fidelities, default=0.0)
    metrics["trace.overhead_ratio"] = (
        sum(op["seconds"] for op in plain) / sum(op["seconds"] for op in traced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one qmds benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qmds", "cli.py")):
        print(f"error: no qmds sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        record = _worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--probes", str(SETUP_PROBES)],
            min(args.seconds + 120, RUN_BUDGET_S),
        )
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, source=_source_identity(),
                  setup_samples_s=record["probe_setup_s"] + [record["setup_s"]])
    ops = record["ops"]
    failed, attempted = failures(record)

    env = record["env"]
    print(f"source {record['source']}")
    print(f"env python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"blas {env['blas']['library']} threads {env['blas']['threads']} "
          f"({env['blas']['config']})")
    print(f"workload {args.workload}, seed {args.seed}, {len(record['round_s'])} rounds, "
          f"{len(ops)} ops, {failed} failed")
    for op in ops:
        status = "ok" if not op["problems"] else "FAIL " + "; ".join(op["problems"])
        trace_tag = " traced" if op["traced"] else ""
        print(f"op {op['id']}{trace_tag} {op['seconds']:.4f} s {status}: "
              f"qmds {' '.join(op['argv'])}")
    for argv in record["setup_failures"]:
        print(f"set-up op FAIL: qmds {' '.join(argv)}")

    if args.trace:
        values = per_layer(record)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = end_to_end(record)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"info fail_ratio = {1 - metrics['pass_ratio']['value']:.6g} 1 "
              f"over {attempted} ops")
        kernel = workloads.REFERENCE[args.workload]
        print(f"info unscaled: setup median {statistics.median(record['setup_samples_s']):.4f} s, "
              f"{len(ops) / record['timed_s']:.4f} ops/s over {record['timed_s']:.1f} s; "
              f"{kernel} kernel x{host_scale(record):.4f} to nominal speed")
        print(f"info latency {latency_summary(record)}")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({**record, "metrics": metrics}, handle)
    print(f"record {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
