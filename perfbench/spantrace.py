"""Span tracing from outside the program, for the benchmark's traced runs.

Wrappers are installed at the names callers look functions up by (module
attributes and the `LinearProgram.matrix` class attribute), record one span
per call with its thread, and are removed again after the run. A symbol that
no longer exists is reported as an absent layer instead of failing the run.

Self time of a span is its duration minus the union of its child spans'
intervals, so overlapping children on two sweep threads are not counted
twice. A span that starts on a thread with no open span (a thread-pool
worker) is the child of the innermost open span on the main thread.

Stdlib only, so that importing it does not disturb what is measured.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, layer): the names the program's callers use.
# The LinearProgram.matrix method is handled separately (it is a class
# attribute of a class found in ccsplan.lp).
WRAPPED = (
    ("ccsplan.cli", "main", "cli"),
    ("ccsplan.dataio", "load", "dataio.load"),
    ("ccsplan.dataio", "validate_instance", "domain.validate"),
    ("ccsplan.engine", "run_all", "engine.run_all"),
    ("ccsplan.engine", "run_scenario", "engine.run_scenario"),
    ("ccsplan.engine", "sweep", "engine.sweep"),
    ("ccsplan.engine", "assemble", "builder.assemble"),
    ("ccsplan.engine", "extract_plan", "builder.extract_plan"),
    ("ccsplan.engine", "solve", "simplex.solve"),
    ("ccsplan.simplex", "check_solution", "lp.check_solution"),
    ("ccsplan.dataio", "write_results", "dataio.write_results"),
    ("ccsplan.analytics", "cashflow", "analytics"),
    ("ccsplan.analytics", "contribution_shares", "analytics"),
    ("ccsplan.analytics", "payback_year", "analytics"),
    ("ccsplan.analytics", "trade_matrix", "analytics"),
    ("ccsplan.analytics", "reduction_percentage", "analytics"),
)
MATRIX = ("ccsplan.lp", "LinearProgram", "matrix", "lp.matrix")


@dataclass
class Span:
    layer: str
    thread: int
    start: float
    end: float = 0.0
    parent: int = -1  # index into the span list, -1 for a root
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans from installed wrappers; one instance per traced run."""

    def __init__(self, capture_lps: bool = False):
        self.spans: list = []
        self.absent: list = []
        self.captured_lps: list = []
        self.capture_lps = capture_lps
        self._stacks: dict = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._undo: list = []

    # -- recording -------------------------------------------------------
    def _open(self, layer: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if tid != self._main and main else -1
            self.spans.append(Span(layer, tid, 0.0, parent=parent))
            k = len(self.spans) - 1
            stack.append(k)
        self.spans[k].start = time.perf_counter()
        return k

    def _close(self, k: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[k].end = end
            self._stacks[self.spans[k].thread].pop()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(k)
            self._observe(layer, k, args, out)
            return out

        return wrapper

    def _observe(self, layer: str, k: int, args, out) -> None:
        """Counts read from a layer's own arguments and results."""
        info = self.spans[k].info
        if layer == "simplex.solve":
            iters = getattr(out, "iterations", None)
            if isinstance(iters, int):
                info["iters"] = iters
            if self.capture_lps and args:
                self.captured_lps.append((k, args[0]))
        elif layer == "engine.run_scenario":
            stats = getattr(out, "solve_stats", None)
            if isinstance(stats, dict) and isinstance(stats.get("stage1_iterations"), int):
                info["stage1_iters"] = stats["stage1_iterations"]

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        def patch(owner, attr, layer, label):
            orig = getattr(owner, attr, None)
            if not callable(orig):
                self.absent.append(label)
                return
            setattr(owner, attr, self.wrap(layer, orig))
            self._undo.append((owner, attr, orig))

        for mod_name, attr, layer in WRAPPED:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            patch(mod, attr, layer, f"{mod_name}.{attr}")
        mod_name, cls_name, attr, layer = MATRIX
        try:
            cls = getattr(importlib.import_module(mod_name), cls_name)
        except (ImportError, AttributeError):
            self.absent.append(f"{mod_name}.{cls_name}.{attr}")
        else:
            # only a method defined on the class itself; never a dataclass field
            if callable(cls.__dict__.get(attr)):
                patch(cls, attr, layer, f"{mod_name}.{cls_name}.{attr}")
            else:
                self.absent.append(f"{mod_name}.{cls_name}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# -- analysis ----------------------------------------------------------------
def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    children: dict = {}
    for k, sp in enumerate(spans):
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [
        (sp.end - sp.start) - union_length(children.get(k, ()), sp.start, sp.end)
        for k, sp in enumerate(spans)
    ]


def _has_ancestor_of_layer(spans, k: int) -> bool:
    layer = spans[k].layer
    p = spans[k].parent
    while p >= 0:
        if spans[p].layer == layer:
            return True
        p = spans[p].parent
    return False


@dataclass
class LayerStats:
    calls: int = 0
    incl_s: float = 0.0  # outermost spans of the layer only, so recursion is not counted twice
    self_s: float = 0.0


def layer_stats(spans) -> dict:
    selfs = self_times(spans)
    out: dict = {}
    for k, sp in enumerate(spans):
        st = out.setdefault(sp.layer, LayerStats())
        st.calls += 1
        st.self_s += selfs[k]
        if not _has_ancestor_of_layer(spans, k):
            st.incl_s += sp.end - sp.start
    return out


def unattributed(spans, wall: float, main: int) -> float:
    """`wall` minus what the span tree accounts for: the self times of the
    main thread's spans plus the union of the worker threads' root spans.
    About 0 when spans nest properly; broken parentage shows up here."""
    selfs = self_times(spans)
    main_self = sum(s for sp, s in zip(spans, selfs) if sp.thread == main)
    worker_roots = [
        (sp.start, sp.end)
        for sp in spans
        if sp.thread != main and (sp.parent < 0 or spans[sp.parent].thread != sp.thread)
    ]
    return wall - main_self - union_length(worker_roots, float("-inf"), float("inf"))


def queue_wait(spans) -> float:
    """Summed wait of sweep points: start of each run_scenario span under an
    engine.sweep span, minus the start of that sweep."""
    total = 0.0
    for sp in spans:
        if sp.layer != "engine.run_scenario":
            continue
        p = sp.parent
        while p >= 0 and spans[p].layer != "engine.sweep":
            p = spans[p].parent
        if p >= 0:
            total += sp.start - spans[p].start
    return total


def per_span_cost(n: int = 5000) -> float:
    """Seconds one wrapped call adds, measured on a no-op function."""
    def noop():
        return None

    t = Tracer()
    wrapped = t.wrap("calibrate", noop)
    samples = []
    for _ in range(5):
        t.spans.clear()
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / n)
    return max(statistics.median(samples), 0.0)


def metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer metric values (name -> number) from one traced execution."""
    spans = tracer.spans
    st = layer_stats(spans)

    def get(layer):
        return st.get(layer, LayerStats())

    solve = get("simplex.solve")
    iters = sum(sp.info.get("iters", 0) for sp in spans)
    attributed = sum(s.self_s for s in st.values())
    return {
        "simplex.solve.self_s": solve.self_s,
        "simplex.solve.calls": solve.calls,
        "simplex.iters": iters,
        "simplex.ms_per_iter": 1e3 * solve.incl_s / iters if iters else 0.0,
        "simplex.self_share": solve.self_s / attributed if attributed else 0.0,
        "engine.stage1_iters": sum(sp.info.get("stage1_iters", 0) for sp in spans),
        "engine.run_scenario.self_s": get("engine.run_scenario").self_s,
        "engine.sweep.self_s": get("engine.sweep").self_s,
        "engine.sweep.queue_wait_s": queue_wait(spans),
        "builder.assemble.s": get("builder.assemble").incl_s,
        "builder.assemble.calls": get("builder.assemble").calls,
        "builder.extract_plan.s": get("builder.extract_plan").incl_s,
        "lp.matrix.s": get("lp.matrix").incl_s,
        "lp.check_solution.s": get("lp.check_solution").incl_s,
        "analytics.s": get("analytics").incl_s,
        "dataio.write_results.self_s": get("dataio.write_results").self_s,
        "dataio.load.s": get("dataio.load").incl_s,
        "domain.validate.s": get("domain.validate").incl_s,
        "cli.self_s": get("cli").self_s,
        "trace.unattributed_s": unattributed(spans, wall, tracer._main),
        "trace.overhead_frac": len(spans) * per_span_cost() / wall if wall > 0 else 0.0,
        "trace.absent_layers": len(tracer.absent),
    }


def table(tracer: Tracer) -> list:
    """Rows (layer, calls, inclusive s, self s, self share) for printing."""
    st = layer_stats(tracer.spans)
    total = sum(s.self_s for s in st.values()) or 1.0
    rows = [(name, s.calls, s.incl_s, s.self_s, s.self_s / total) for name, s in st.items()]
    return sorted(rows, key=lambda r: -r[3])
