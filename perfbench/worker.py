"""One benchmark worker: a fresh process that sets up, then runs a closed loop.

Set-up is ``import qmds`` plus one warm-up op of each CLI command on
[[3,1,2]]_3; it is timed from the start of this module's own work, before
numpy or qmds is imported.  The loop then runs whole rounds of the
workload, one op at a time (one client), for about ``--seconds``.
With ``--trace 1`` each round runs twice, first untraced and then traced
with the same argvs, so the tracing overhead is measured on paired ops.
Just before each op, the workload's reference kernel (``reference.py``) is
timed once, outside the op's time.  Between rounds, ``--probes``
set-up-only copies of this worker run one at a time, spread evenly over
the loop, so the set-up samples see the same spells of the shared host as
the ops do; each also times the Python kernel after its set-up.  The loop
waits for each probe and its time is not counted in ``--seconds``.  The
result is printed as one JSON object on stdout.

Run by ``run.py``; by hand: ``python3 perfbench/worker.py --src src
--workload exact --seed 1 --seconds 5 --trace 0 --probes 2``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _blas() -> dict:
    """The BLAS library numpy loaded and its thread count, read via ctypes."""
    info = {"library": None, "config": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        return info
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is None:
                continue
            get_threads.restype = ctypes.c_int
            info.update(library=os.path.basename(path), threads=get_threads())
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                info["config"] = get_config().decode()
            return info
    return info


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _run_op(cli, argv: list[str]) -> tuple[object, str, float]:
    """Run one CLI op in-process with stdout captured; return code, text, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


PROBE_TIMEOUT_S = 30


def _probe(src: str) -> dict:
    """Time set-up in a fresh set-up-only copy of this worker and wait for it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--src", src, "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the qmds package")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, default=0,
                        help="set-up-only probes to run between rounds")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; report its time and the Python kernel's")
    args = parser.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import qmds.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"qmds was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    setup_failures = [
        argv for argv in workloads.WARMUP if _run_op(cli, argv)[0] != 0
    ]
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "setup_failures": setup_failures}
    if args.setup_only:
        python = reference.timer("python")
        python()  # warm-up
        result["python_s"] = min(python(), python())
        print(json.dumps(result))
        return 0

    kernel = reference.timer(workloads.REFERENCE[args.workload])
    kernel()  # warm-up
    trace = tracer.Tracer() if args.trace else None
    ops = []

    def run(group, argv, traced):
        op_id = len(ops)
        reference_s = kernel()
        if traced:
            trace.install()
            try:
                with trace.op_span(op_id):
                    code, text, elapsed = _run_op(cli, argv)
            finally:
                trace.uninstall()
        else:
            code, text, elapsed = _run_op(cli, argv)
        verdict = gate.check(argv, code, text)
        ops.append({"id": op_id, "group": group, "argv": argv, "seconds": elapsed,
                    "traced": traced, "reference_s": reference_s, "problems": verdict.problems,
                    "max_delta": verdict.max_delta, "fidelities": verdict.fidelities})

    probes = []

    def probe():
        nonlocal probe_s
        probe_start = time.perf_counter()
        probes.append(_probe(src))
        probe_s += time.perf_counter() - probe_start

    # Whole rounds only, so every code group gets the same number of ops; stop
    # at the round boundary nearest to --seconds.  Probe i runs at the first
    # round boundary after i/probes of --seconds; any left over run at the end.
    rounds = workloads.rounds(args.workload, args.seed)
    round_s = []
    probe_s = 0.0
    start = time.perf_counter()
    while True:
        if len(probes) < args.probes and (
                time.perf_counter() - start - probe_s
                >= len(probes) * args.seconds / args.probes):
            probe()
        round_start = time.perf_counter()
        batch = next(rounds)
        for group, argv in enumerate(batch):
            run(group, argv, False)
        if trace is not None:
            for group, argv in enumerate(batch):
                run(group, argv, True)
        now = time.perf_counter()
        round_s.append(now - round_start)
        if now - start - probe_s + round_s[-1] / 2 >= args.seconds:
            break
    timed_s = now - start - probe_s
    while len(probes) < args.probes:
        probe()
    result.update(
        timed_s=timed_s,
        round_s=round_s,
        probe_setup_s=[p["setup_s"] for p in probes],
        probe_python_s=[p["python_s"] for p in probes],
        setup_failures=setup_failures + [a for p in probes for a in p["setup_failures"]],
        ops=ops,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        env=_environment(),
        spans=trace.spans if trace is not None else [],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
