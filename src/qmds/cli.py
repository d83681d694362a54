"""Command-line front end.

Subcommands: construct, profile, verify, decode-test, figure.
Exit codes: 0 success, 1 verification failure, 2 invalid input or out of memory.
All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .code import (
    QuantumMdsCode,
    _check_cells,
    _check_index_set,
    _check_k_d,
    from_descriptor,
    group_indices,
    index_groups,
    smallest_prime_at_least,
    to_descriptor,
)
from .entropy import (
    check_decoding_condition,
    check_entropy_inequalities,
    expected_subsystem_entropy,
    extended_profile,
    full_profile,
    product_state_checks,
)
from .linalg import SingularMatrixError
from .reporting import Check
from . import sim

FIDELITY_TOL = 1e-12
ORACLE_TOL = 1e-9
# CSV rows joined into one string per write, so a long figure is never
# held whole
CSV_CHUNK_ROWS = 1 << 14


def _emit(text: str | Iterable[str], out_path: str | None) -> None:
    """Write ``text``, a string or an iterable of strings, to ``out_path`` or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _parse_int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers; an empty field is an error, not skipped."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers: {text!r}")


def _add_code_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--code", metavar="PATH", help="JSON code descriptor file")
    parser.add_argument("--n", type=int, help="code length (coded qudits)")
    parser.add_argument("--k", type=int, help="source qudits")
    parser.add_argument("--d", type=int, help="minimum distance")
    parser.add_argument("--q", type=int, help="prime field modulus (default: smallest prime >= n)")
    parser.add_argument("--alphas", help="comma-separated distinct evaluation points")


def _load_code(args) -> QuantumMdsCode:
    """The code of ``--code PATH`` or of the parameter flags, both read by ``from_descriptor``."""
    flags = {name: getattr(args, name) for name in ("n", "k", "d", "q", "alphas")
             if getattr(args, name) is not None}
    if args.code is not None:
        if flags:
            raise ValueError(f"--code cannot be combined with {', '.join('--' + f for f in flags)}")
        with open(args.code, "r", encoding="utf-8") as handle:
            return from_descriptor(json.load(handle))
    if args.n is None or args.k is None or args.d is None:
        raise ValueError("provide either --code PATH or all of --n, --k, --d")
    if args.q is None:
        flags["q"] = smallest_prime_at_least(args.n)
    if args.alphas is not None:
        flags["alphas"] = _parse_int_list(args.alphas, "--alphas")
    return from_descriptor(flags)


def _csv_chunks(columns: Iterable[tuple[Iterable[int], Iterable[int]]]) -> Iterator[str]:
    """The CSV of ``(sizes, entropies)`` column pairs: its header, then one string per pair."""
    yield "size,entropy\n"
    for sizes, entropies in columns:
        yield "".join([f"{s},{h}\n" for s, h in zip(sizes, entropies)])


def cmd_construct(args) -> int:
    code = _load_code(args)
    _emit(json.dumps(to_descriptor(code), indent=2) + "\n", args.out)
    return 0


def cmd_profile(args) -> int:
    code = _load_code(args)
    # the CSV aggregates R-atomic subsystems only, so --extended-R adds nothing to it
    if args.format == "csv":
        sizes, entropies = zip(*full_profile(code).csv_rows())
        _emit(_csv_chunks([(sizes, entropies)]), args.out)
    else:
        profile = extended_profile(code) if args.extended_r else full_profile(code)
        _emit(json.dumps(profile.to_dict(), indent=2) + "\n", args.out)
    return 0


def _verdict(lines: list[str], ok: bool, out_path: str | None) -> int:
    """Emit ``lines`` and the ``result: PASS|FAIL`` line; the exit code, 0 or 1."""
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    _emit("\n".join(lines) + "\n", out_path)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    code = _load_code(args)
    p = code.params
    # encoding runs the state vector's support guard, so a code it refuses
    # exits before any ranking
    simulate = args.oracle in ("statevec", "both")
    psi = sim.encode_state(code) if simulate else None
    profile = full_profile(code)
    table = profile.table
    checks = []
    if args.oracle in ("lemma", "both"):
        masks = profile.mismatches()
        # the pyramid's values are read only to print a mismatch
        expected = profile.expected() if masks else None
        mismatches = tuple(
            f"mismatch {list(profile.labels(mask))}: entropy {table[mask]}, "
            f"expected {expected[mask]}"
            for mask in masks
        )
        checks.append(Check(
            not mismatches,
            f"rank-identity profile matches min(size, {p.num_registers} - size) "
            f"on {table.size} subsystems",
            mismatches,
        ))

    if simulate:
        # in "both" mode the reference is the other oracle (agreement check);
        # alone, the state vector is compared against the pyramid formula
        against = "rank oracle" if args.oracle == "both" else "expected"
        references = table if args.oracle == "both" else profile.expected()
        values = sim.entropy_table(psi)
        deltas = np.abs(values - references)
        bad = tuple(
            f"{list(profile.labels(mask))}: statevec {float(values[mask])!r} "
            f"vs {against} {references[mask]}"
            for mask in np.flatnonzero(deltas > ORACLE_TOL)
        )
        checks.append(Check(
            not bad,
            f"state-vector entropies within {ORACLE_TOL} of the {against} on "
            f"{table.size} subsystems (max oracle delta {deltas.max():.3e})",
            bad,
        ))

    checks.append(check_decoding_condition(profile))
    if args.inequalities:
        checks += [check_entropy_inequalities(profile), product_state_checks(profile)]

    lines = [f"verify [[{p.n},{p.k},{p.d}]]_{p.q} (oracle: {args.oracle})"]
    for check in checks:
        lines += check.lines()
    return _verdict(lines, all(check.ok for check in checks), args.out)


def cmd_decode_test(args) -> int:
    code = _load_code(args)
    p = code.params
    if not args.all:
        erased = _parse_int_list(args.erasures, "--erasures")
        erased = _check_index_set(p.n, erased, "erasure", "d-1", p.d - 1)

    # encoding runs the support guard before any pattern is listed
    psi = sim.encode_state(code)
    patterns = map(group_indices, index_groups(p.n, [p.d - 1])) if args.all else [erased]
    lines = []
    all_ok = True
    for erased in patterns:
        surviving = [i for i in range(1, p.n + 1) if i not in erased]
        try:
            f = sim.decoded_fidelity(psi, code, surviving)
        except SingularMatrixError as exc:
            # a generator that cannot decode this pattern fails it
            all_ok = False
            lines.append(f"erasures {list(erased)}: {exc} [FAIL]")
            continue
        ok = f >= 1.0 - FIDELITY_TOL
        all_ok &= ok
        lines.append(
            f"erasures {list(erased)}: fidelity {f:.12f} [{'ok' if ok else 'FAIL'}]"
        )
    return _verdict(lines, all_ok, args.out)


def cmd_figure(args) -> int:
    _check_k_d(args.k, args.d)
    rows = 2 * (args.k + args.d - 1) + 1
    _check_cells("figure", rows, unit="rows")
    starts = range(0, rows, CSV_CHUNK_ROWS)
    sizes = (np.arange(start, min(start + CSV_CHUNK_ROWS, rows)) for start in starts)
    columns = ((s.tolist(), expected_subsystem_entropy(s, args.k, args.d).tolist()) for s in sizes)
    _emit(_csv_chunks(columns), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmds",
        description=(
            "Vandermonde [[n,k,d]]_q quantum MDS codes: construction, exact "
            "subsystem-entropy profiles, two independent entropy oracles, and "
            "erasure-decoding tests."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser(
        "construct", help="build a code and emit its JSON descriptor"
    )
    p_construct.add_argument("--n", type=int, required=True)
    p_construct.add_argument("--k", type=int, required=True)
    p_construct.add_argument("--d", type=int, required=True)
    p_construct.add_argument("--q", type=int)
    p_construct.add_argument("--alphas")
    p_construct.add_argument("--out")
    p_construct.set_defaults(func=cmd_construct, code=None)

    p_profile = sub.add_parser(
        "profile", help="entropy of every subsystem via the exact rank oracle"
    )
    _add_code_source(p_profile)
    p_profile.add_argument("--format", choices=("json", "csv"), default="json")
    p_profile.add_argument(
        "--extended-R",
        dest="extended_r",
        action="store_true",
        help="also report subsets splitting the reference block (no expected value)",
    )
    p_profile.add_argument("--out")
    p_profile.set_defaults(func=cmd_profile)

    p_verify = sub.add_parser(
        "verify", help="check the entropy characterization and decoding conditions"
    )
    _add_code_source(p_verify)
    p_verify.add_argument(
        "--oracle",
        choices=("lemma", "statevec", "both"),
        default="both",
        help="lemma = exact rank-identity oracle, statevec = brute-force simulation",
    )
    p_verify.add_argument(
        "--inequalities",
        action="store_true",
        help="also run the entropy-inequality and product-state suites",
    )
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_decode = sub.add_parser(
        "decode-test", help="simulate erasure decoding and report fidelities"
    )
    _add_code_source(p_decode)
    group = p_decode.add_mutually_exclusive_group(required=True)
    group.add_argument("--erasures", help="comma-separated erased qudit indices (size d-1)")
    group.add_argument("--all", action="store_true", help="every erasure pattern of size d-1")
    p_decode.add_argument("--out")
    p_decode.set_defaults(func=cmd_decode_test)

    p_figure = sub.add_parser(
        "figure", help="CSV of (size, expected entropy) from the pyramid formula"
    )
    p_figure.add_argument("--k", type=int, required=True)
    p_figure.add_argument("--d", type=int, required=True)
    p_figure.add_argument("--out")
    p_figure.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
