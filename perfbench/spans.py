"""Spans around the calls into each lipkl module, and the per-layer metrics.

The tracer replaces a function at the place where its caller looks it up
(``lipkl.core.transport_simplex`` and so on), so the library's own code is
unchanged. Each span records its name, the module whose name was replaced
(``site``), start, end, parent span, thread and the benchmark op it belongs
to. Spans nest per thread: a pool worker's spans are roots on their own
thread. They stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lp_info(args, kwargs, result) -> dict:
    return {"cells": int(args[0].size) * int(args[1].size)}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations)}


# (module, name looked up there, span name, info extractor)
PATCHES = [
    ("lipkl.core", "transport_simplex", "divergences.transport_simplex", _lp_info),
    ("lipkl.divergences", "transport_simplex", "divergences.transport_simplex", _lp_info),
    ("lipkl.asymptotics", "divergence", "core.divergence", _iterations),
    ("lipkl.markov_uq", "divergence", "core.divergence", _iterations),
    ("lipkl.markov_uq", "invert_risk_map", "markov_uq.invert_risk_map", _iterations),
    ("lipkl.markov_uq", "stationary_distribution", "markov_uq.stationary_distribution", None),
    ("lipkl.measures", "lipschitz_violation", "measures.lipschitz_violation", None),
    ("lipkl.asymptotics", "metric_cost", "measures.metric_cost", None),
    ("lipkl.cli", "metric_cost", "measures.metric_cost", None),
    ("lipkl.cli", "entropy_limit_sweep", "asymptotics.entropy_limit_sweep", None),
]

# Info extractors for the benchmark's own op calls, by span name.
ENTRY_INFO = {"core.divergence": _iterations}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, site: str, fn, args=(), kwargs=None, info=None):
        kwargs = kwargs or {}
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = Span(sid, name, site, start, time.perf_counter(), parent,
                        threading.get_ident(), self.op)
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def wrap(self, name: str, site: str, fn, info=None):
        def traced(*args, **kwargs):
            return self.call(name, site, fn, args, kwargs, info)
        return traced

    def install(self) -> None:
        for module_name, attr, span_name, info in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            site = module_name.split(".")[-1]
            setattr(module, attr, self.wrap(span_name, site, original, info))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the time the span's children (same thread) cover."""
    out = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (counts and busy seconds)."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def busy(name, where=lambda s: True):
        return sum(s.duration for s in named[name] if where(s))

    def ratio(a, b):
        return a / b if b else 0.0

    lp = named["divergences.transport_simplex"]
    solves = named["core.divergence"]
    lp_in_solves = sum(1 for s in lp if s.parent is not None
                       and by_id[s.parent].name == "core.divergence")
    sweep_solves = [s for s in solves if s.site == "asymptotics"]
    row_solves = [s for s in solves if s.site == "markov_uq"]
    newton = busy("markov_uq.invert_risk_map")
    stationary = busy("markov_uq.stationary_distribution")
    bound_wall = busy("markov_uq.ergodic_bound")
    row_s = sum(s.duration for s in row_solves)
    lp_s = sum(s.duration for s in lp)
    return {
        "divergences.lp_calls": len(lp),
        "divergences.lp_s": lp_s,
        "divergences.lp_cells": sum(s.info["cells"] for s in lp),
        "divergences.lp_s_per_call": ratio(lp_s, len(lp)),
        "core.solves": len(solves),
        "core.iterations": sum(s.info["iterations"] for s in solves),
        "core.self_s": sum(own[s.sid] for s in solves),
        "core.lp_calls_per_solve": ratio(lp_in_solves, len(solves)),
        "measures.cost_s": busy("measures.metric_cost"),
        "measures.lip_checks": len(named["measures.lipschitz_violation"]),
        "measures.lip_s": busy("measures.lipschitz_violation"),
        "asymptotics.iterations_per_solve": ratio(
            sum(s.info["iterations"] for s in sweep_solves), len(sweep_solves)),
        "asymptotics.self_s": sum(own[s.sid] for s in spans if s.name.startswith("asymptotics.")),
        "markov_uq.newton_s": newton,
        "markov_uq.newton_iters": sum(s.info["iterations"]
                                      for s in named["markov_uq.invert_risk_map"]),
        "markov_uq.stationary_s": stationary,
        "markov_uq.row_solves": len(row_solves),
        "markov_uq.row_s": row_s,
        "markov_uq.row_parallelism": ratio(row_s, bound_wall - newton - stationary),
        "cli.self_s": sum(own[s.sid] for s in named["cli.main"]),
    }


def accounting_errors(spans: list[Span], op_walls: dict[int, float], slack: float) -> list[str]:
    """Check that the spans of each op close on the op's measured wall time.

    Per op, the self times of the spans on the op's own thread must sum to
    the root span's duration, and that duration must sit inside the op's
    wall time measured around the traced call, short of it by no more than
    ``slack`` of the wall (the measured tracing overhead) plus 1 ms. Every
    span, pool workers' included, must lie inside its op's root span.
    """
    own = self_times(spans)
    errors = []
    by_op = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    if set(by_op) != set(op_walls):
        errors.append(f"ops with spans {sorted(by_op, key=str)} != ops run {sorted(op_walls)}")
    for op, wall in op_walls.items():
        group = by_op.get(op, [])
        roots = [s for s in group if s.parent is None]
        if not roots:
            errors.append(f"op {op}: no spans")
            continue
        root = min(roots, key=lambda s: s.start)
        on_thread = [s for s in group if s.thread == root.thread]
        total_self = sum(own[s.sid] for s in on_thread)
        if abs(total_self - root.duration) > 1e-9 * max(1.0, root.duration):
            errors.append(f"op {op}: self times sum to {total_self!r}, root lasts {root.duration!r}")
        if any(own[s.sid] < -1e-9 for s in group):
            errors.append(f"op {op}: a span's children outlast it")
        if not (0.0 <= wall - root.duration <= slack * wall + 1e-3):
            errors.append(f"op {op}: root span {root.duration!r} s against wall {wall!r} s")
        if any(s.start < root.start or s.end > root.end for s in group):
            errors.append(f"op {op}: a span lies outside the op")
    return errors
