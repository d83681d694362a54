"""Outside-in tracing of qmds: spans around the module attributes callers use.

The benchmark wraps public functions at the attributes their callers look
up (``qmds.cli.full_profile``, ``qmds.entropy.rank``, ``qmds.sim.decode``,
...), so the program itself runs unmodified.  A span records its name,
start, end, parent, op id and self time (duration minus the time covered by
its child calls).  Calls too frequent to keep one span each (GF(q) ranks,
about 8k per [[10,2,5]] op) are aggregated as count, total and self time
under their nearest enclosing span.  Spans stay in memory until the run
ends.  A target the program no longer has is skipped, so the trace
survives refactors; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, attribute, span name, aggregated).  The span name's prefix is
# the layer, the module that defines the function.
TARGETS = (
    ("qmds.cli", "QuantumMdsCode", "code.construct", False),
    ("qmds.cli", "full_profile", "entropy.full_profile", False),
    ("qmds.cli", "check_decoding_condition", "entropy.check_decoding_condition", False),
    ("qmds.cli", "check_entropy_inequalities", "entropy.check_entropy_inequalities", False),
    ("qmds.cli", "product_state_checks", "entropy.product_state_checks", False),
    ("qmds.code", "rank", "linalg.rank", True),
    ("qmds.entropy", "rank", "linalg.rank", True),
    ("qmds.entropy", "intersection_dim", "linalg.intersection_dim", True),
    ("qmds.linalg", "rank", "linalg.rank", True),
    ("qmds.sim", "encode_state", "sim.encode_state", False),
    ("qmds.sim", "von_neumann_entropy", "sim.von_neumann_entropy", False),
    ("qmds.sim", "hermitian_eigenvalues", "sim.hermitian_eigenvalues", False),
    ("qmds.sim", "decode", "sim.decode", False),
    ("qmds.sim", "decode_target", "sim.decode_target", False),
    ("qmds.sim", "fidelity", "sim.fidelity", False),
    ("qmds.sim", "invert", "linalg.invert", False),
)
OP_SPAN = "cli.main"
LAYERS = ("cli", "code", "entropy", "linalg", "sim")


def _trace_flops(args, result) -> dict:
    """Dense partial-trace cost 8 * d_keep^2 * d_env of the smaller side."""
    psi, sub = args[0], args[1]
    size = sub.size(psi.num_ref)
    keep = min(size, psi.num_registers - size)
    if keep == 0:
        return {"trace_flops": 0}
    return {"trace_flops": 8 * psi.q ** (2 * keep) * psi.q ** (psi.num_registers - keep)}


# Counters read from a traced call's arguments and result.
OBSERVERS = {
    "entropy.full_profile": lambda args, r: {"subsystems": len(r.entries)},
    "entropy.check_entropy_inequalities":
        lambda args, r: {"assignments": int(r.results[0].detail.split()[0])},
    "sim.encode_state": lambda args, r: {"amplitudes": r.amplitudes.size,
                                         "state_bytes": r.amplitudes.nbytes},
    "sim.von_neumann_entropy": _trace_flops,
    "sim.hermitian_eigenvalues": lambda args, r: {"reduced_dim": len(r)},
}


class _Frame:
    __slots__ = ("name", "start", "child_s", "span")

    def __init__(self, name, start, span):
        self.name, self.start, self.child_s, self.span = name, start, 0.0, span


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[_Frame] = []
        self._installed: list[tuple] = []
        self._epoch = time.perf_counter()
        self._op: int | None = None

    def install(self) -> None:
        for module_name, attr, name, aggregated in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, name, aggregated))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """The root span of one op, around its ``cli.main`` call."""
        self._op = op_id
        frame = self._enter(OP_SPAN, False)
        try:
            yield
        finally:
            self._exit(frame)
            self._op = None

    def _wrap(self, fn, name: str, aggregated: bool):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            frame = self._enter(name, aggregated)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if observe is not None:
                try:
                    frame.span["counters"] = observe(args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass
            return result

        return traced

    def _enter(self, name: str, aggregated: bool) -> _Frame:
        span = None
        if not aggregated:
            parent = next((f.span for f in reversed(self._stack) if f.span), None)
            span = {"id": len(self.spans), "name": name, "op": self._op,
                    "parent": parent["id"] if parent else None}
            self.spans.append(span)
        frame = _Frame(name, time.perf_counter(), span)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self_s = duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.span is not None:
            frame.span.update(start=frame.start - self._epoch, end=end - self._epoch,
                              self=self_s)
            return
        owner = next((f.span for f in reversed(self._stack) if f.span), None)
        if owner is not None:
            agg = owner.setdefault("agg", {}).setdefault(frame.name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_s


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-op per-layer metrics from the spans of ``ops`` traced ops."""
    count = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counters = defaultdict(int)
    max_dim = 0
    profile_ranks = 0
    for span in spans:
        name = span["name"]
        count[name] += 1
        total[name] += span["end"] - span["start"]
        self_s[name] += span["self"]
        for key, value in span.get("counters", {}).items():
            counters[key] += value
            if key == "reduced_dim":
                max_dim = max(max_dim, value)
        for agg_name, (calls, agg_total, agg_self) in span.get("agg", {}).items():
            count[agg_name] += calls
            total[agg_name] += agg_total
            self_s[agg_name] += agg_self
            if name == "entropy.full_profile" and agg_name == "linalg.rank":
                profile_ranks += calls

    def per_op(value):
        return value / ops

    metrics = {
        "linalg.rank_calls": per_op(count["linalg.rank"]),
        "linalg.rank_s": per_op(total["linalg.rank"]),
        "entropy.rank_calls_per_subsystem":
            profile_ranks / counters["subsystems"] if counters["subsystems"] else 0.0,
        "entropy.profile_s": per_op(total["entropy.full_profile"]),
        "entropy.profile_self_s": per_op(self_s["entropy.full_profile"]),
        "entropy.subsystems": per_op(counters["subsystems"]),
        "entropy.inequalities_s": per_op(total["entropy.check_entropy_inequalities"]),
        "entropy.inequality_assignments": per_op(counters["assignments"]),
        "entropy.decoding_check_s": per_op(total["entropy.check_decoding_condition"]),
        "entropy.product_checks_s": per_op(total["entropy.product_state_checks"]),
        "sim.entropy_calls": per_op(count["sim.von_neumann_entropy"]),
        "sim.entropy_s": per_op(total["sim.von_neumann_entropy"]),
        "sim.trace_self_s": per_op(self_s["sim.von_neumann_entropy"]),
        "sim.max_reduced_dim": max_dim,
        "sim.trace_flops_computed": per_op(counters["trace_flops"]),
        "sim.eigen_calls": per_op(count["sim.hermitian_eigenvalues"]),
        "sim.eigen_s": per_op(total["sim.hermitian_eigenvalues"]),
        "sim.encode_s": per_op(total["sim.encode_state"]),
        "sim.amplitudes": per_op(counters["amplitudes"]),
        "sim.state_bytes_computed": per_op(counters["state_bytes"]),
        "sim.decode_s": per_op(total["sim.decode"]),
        "sim.decode_target_s": per_op(total["sim.decode_target"]),
        "sim.fidelity_s": per_op(total["sim.fidelity"]),
        "linalg.invert_calls": per_op(count["linalg.invert"]),
        "code.construct_calls": per_op(count["code.construct"]),
        "code.construct_s": per_op(total["code.construct"]),
        "trace.op_s": per_op(total[OP_SPAN]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_op(
            sum(v for name, v in self_s.items() if name.split(".")[0] == layer))
    return metrics
