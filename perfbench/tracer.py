"""Spans around the package's public functions, recorded from outside it.

The package binds names with ``from .fair import ...``, so a function is
wrapped at every module that imports it, not only where it is defined. Each
call records a span: name, start, end, parent and thread id. Parents come
from a per-thread stack, so spans that worker threads of the trial pool open
are roots of their own thread and self time never goes negative.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import threading
import time

# (module, attribute, span name); a span's layer is the text before its first dot
SITES = (
    ("poa", "sample_instance", "market.sample"),
    ("online", "sample_instance", "market.sample"),
    ("poa", "solve_fair", "fair.solve"),
    ("online", "solve_fair", "fair.solve"),
    ("selfish", "solve_fair", "fair.solve"),
    ("experiment", "solve_fair", "fair.solve"),
    ("fair", "best_matching", "fair.assign"),
    ("selfish", "best_matching", "fair.assign"),
    ("fair", "max_weight_assignment", "fair.mwa"),
    ("selfish", "max_weight_assignment", "fair.mwa"),
    ("experiment", "max_weight_assignment", "fair.mwa"),
    ("returns", "eval_q", "returns.eval"),
    ("returns", "eval_q_prime", "returns.eval"),
    ("poa", "solve_selfish", "selfish.solve"),
    ("online", "solve_selfish", "selfish.solve"),
    ("cli", "solve_selfish", "selfish.solve"),
    ("selfish", "_local_fw", "selfish.local_fw"),
    ("experiment", "solve_selfish_integral", "selfish.integral"),
    ("poa", "theorem1_bound", "poa.bound"),
    ("poa", "empirical_poa", "poa.empirical"),
    ("poa", "competition_sweep", "poa.sweep"),
    ("online", "online_poa_empirical", "online.empirical"),
    ("online", "greedy_online", "online.greedy"),
    ("experiment", "run_batch", "experiment.batch"),
    ("experiment", "run_study", "experiment.study"),
    ("experiment", "assign_round", "experiment.assign"),
    ("poa", "write_trials_csv", "cli.artifact"),
    ("poa", "write_summary_json", "cli.artifact"),
    ("poa", "write_sweep_csv", "cli.artifact"),
    ("online", "write_online_csv", "cli.artifact"),
    ("experiment", "write_metrics_csv", "cli.artifact"),
    ("experiment", "write_round_log_csv", "cli.artifact"),
    ("svgplot", "plot_lines", "cli.artifact"),
)

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 50.0)
ALPHA_KEYS = ("0", "0.25", "0.5", "0.75")

# spans whose arguments and result the checks need
CAPTURED = {"selfish.solve", "selfish.local_fw", "fair.solve", "poa.bound",
            "online.greedy", "experiment.study"}


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "tid", "call", "child_ns")

    def __init__(self, name, site, start, parent, tid):
        self.name = name
        self.site = site
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.call = None  # (args, kwargs, result) for CAPTURED spans
        self.child_ns = 0

    @property
    def dur_ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, site: str):
        spans, clock, get_ident = self.spans, time.perf_counter_ns, threading.get_ident
        capture = name in CAPTURED
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(name, site, 0, stack[-1] if stack else None, get_ident())
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if capture:
                span.call = (args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name in SITES:
            mod = getattr(self.package, mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, mod_name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def finish(self) -> None:
        """Charge each span's duration to its parent's child time."""
        for s in self.spans:
            if s.parent is not None:
                s.parent.child_ns += s.dur_ns

    def write(self, path) -> None:
        index = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                parent = index[id(s.parent)] if s.parent is not None else None
                fh.write(json.dumps([k, s.name, s.site, s.start, s.end, parent, s.tid]))
                fh.write("\n")


def ancestor(span: Span, names) -> Span | None:
    """Nearest enclosing span, in the same thread, whose name is in ``names``."""
    p = span.parent
    while p is not None and p.name not in names:
        p = p.parent
    return p


def _percentile(sorted_vals, level: float) -> float:
    k = max(0, -(-len(sorted_vals) * level // 100) - 1)
    return sorted_vals[int(k)]


def layer_metrics(spans, pkg) -> dict[str, float]:
    """Per-layer busy time, self time and counts of one traced pass."""
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def pick(name, pred=None):
        return [s for s in by.get(name, ()) if pred is None or pred(s)]

    def busy(name, pred=None):
        outer = [s for s in pick(name, pred) if ancestor(s, (name,)) is None]
        return sum(s.dur_ns for s in outer) / 1e9

    def self_time(names):
        return sum(s.dur_ns - s.child_ns for n in names for s in by.get(n, ())) / 1e9

    def layer_self(layer):
        return self_time([n for n in by if n.split(".", 1)[0] == layer])

    solves = pick("selfish.solve")
    sols = [s.call[2] for s in solves]
    iters = [sol.iterations for sol in sols]
    durs = sorted(s.dur_ns / 1e6 for s in solves)
    tail = next((lv for lv in TAIL_LEVELS if len(durs) * (1 - lv / 100) >= 10), 50.0)
    oracle = pick("fair.assign", lambda s: s.site == "selfish")

    cap = getattr(pkg.selfish, "MAX_ITERS", math.inf)
    caps = sum(1 for sol in sols if sol.mode == "concave-exact" and sol.iterations >= cap)
    starts = pick("selfish.local_fw")
    if starts:
        param = inspect.signature(pkg.selfish._local_fw).parameters.get("iters")
        for s in starts:
            args, kwargs, (_, _, it) = s.call
            cap = kwargs.get("iters", args[4] if len(args) > 4 else param.default)
            caps += it == cap

    m = {
        "market.sample_s": busy("market.sample"),
        "market.sample_calls": len(pick("market.sample")),
        "fair.solve_s": busy("fair.solve"),
        "fair.solve_calls": len(pick("fair.solve")),
        "fair.assign_s": busy("fair.assign"),
        "fair.assign_calls": len(pick("fair.assign")),
        "fair.duals_s": self_time(["fair.mwa"]),
        "returns.eval_s": busy("returns.eval"),
        "returns.eval_calls": len(pick("returns.eval")),
        "selfish.solve_s": busy("selfish.solve"),
        "selfish.solve_calls": len(solves),
        "selfish.self_s": layer_self("selfish"),
        "selfish.solve_p50_ms": _percentile(durs, 50.0) if durs else 0.0,
        "selfish.solve_tail_ms": _percentile(durs, tail) if durs else 0.0,
        "selfish.solve_tail_pct": tail,
        "selfish.fw_iters_mean": statistics.fmean(iters) if iters else 0.0,
        "selfish.fw_iters_max": max(iters, default=0),
        "selfish.oracle_calls": len(oracle),
        "selfish.oracle_s": sum(s.dur_ns for s in oracle) / 1e9,
        "selfish.cert_s": busy("fair.mwa", lambda s: s.parent is not None
                               and s.parent.name == "selfish.solve"),
        "selfish.cap_hits": caps,
        "selfish.fw_gap_max": max((sol.fw_gap for sol in sols), default=0.0),
        "selfish.integral_s": busy("selfish.integral"),
        "selfish.integral_calls": len(pick("selfish.integral")),
        "poa.self_s": layer_self("poa"),
        "poa.bound_s": busy("poa.bound"),
        "online.greedy_s": busy("online.greedy"),
        "online.greedy_calls": len(pick("online.greedy")),
        "experiment.study_s": busy("experiment.study"),
        "experiment.self_s": layer_self("experiment"),
        "experiment.assign_s": busy("experiment.assign"),
        "experiment.assign_calls": len(pick("experiment.assign")),
        "cli.self_s": layer_self("cli"),
        "cli.artifact_s": busy("cli.artifact"),
        "trace.spans": len(spans),
    }
    oracle_by_solve: dict[int, int] = {}
    for s in oracle:
        solve = ancestor(s, ("selfish.solve",))
        if solve is not None:
            oracle_by_solve[id(solve)] = oracle_by_solve.get(id(solve), 0) + 1
    for key in ALPHA_KEYS:
        mine = [s for s in solves if f"{s.call[0][1][0].alpha:g}" == key]
        its = [s.call[2].iterations for s in mine]
        m[f"selfish.fw_iters_mean.a{key}"] = statistics.fmean(its) if its else 0.0
        m[f"selfish.fw_iters_max.a{key}"] = max(its, default=0)
        m[f"selfish.oracle_calls.a{key}"] = sum(oracle_by_solve.get(id(s), 0) for s in mine)
    return m
