"""Span tracing for the benchmark's traced run.

The tracer wraps the module attributes through which each layer of
fujitalab is called, records one span per call in memory, and turns the
spans into per-layer metrics once the traced job has ended.  Nothing in the
package itself is edited: ``install`` swaps attributes and ``uninstall``
puts the originals back.
"""
from __future__ import annotations

import csv
import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    cpu: float      # time.thread_time() spent inside the span
    parent: int     # sid of the enclosing span in the same thread, 0 if none
    thread: int
    item: str       # benchmark item the span belongs to
    data: object    # per-layer payload (matrix key, lattice points, status)


# Layer name -> [(module path, attribute)].  Each attribute is the one the
# calling layer looks up at call time, so replacing it intercepts the call.
TARGETS: Dict[str, List[tuple]] = {
    "cli.run": [("fujitalab.cli", "cmd_run")],
    "cli.scan": [("fujitalab.cli", "cmd_scan")],
    "cli.scan.point": [("fujitalab.cli", "_scan_point")],
    "cli.scan.workers": [("fujitalab.cli", "_thread_count")],
    "solver.run": [("fujitalab", "run"), ("fujitalab.solver", "run"),
                   ("fujitalab.cli", "run")],
    "solver.step": [("fujitalab.solver", "_step")],
    "operators.rhs": [("fujitalab.solver", "rhs")],
    "solver.solve": [("fujitalab.solver", "solve_banded")],
    "solver.monitor": [("fujitalab.solver", "_record")],
    "solver.kaplan": [("fujitalab.solver", "kaplan_functional")],
    "solver.detect": [("fujitalab.solver", "detect_blowup")],
    "operators.eigenpair": [("fujitalab.solver", "principal_eigenpair")],
    "certificates.gaussian": [("fujitalab", "gaussian_certificate"),
                              ("fujitalab.cli", "gaussian_certificate")],
    "certificates.residual": [("fujitalab.certificates", "supersolution_residual")],
    "certificates.domination": [("fujitalab", "gaussian_supersolution"),
                                ("fujitalab.cli", "gaussian_supersolution")],
}

# Layers reported with calls, busy_s, wait_s and self_s.
LAYERS = ["operators.rhs", "operators.eigenpair", "solver.run", "solver.step",
          "solver.solve", "solver.monitor", "solver.kaplan", "solver.detect",
          "certificates.gaussian", "certificates.residual",
          "certificates.domination", "cli.run"]


def _payload(name: str) -> Optional[Callable]:
    """What a span of this layer keeps besides its times (computed after the
    span is closed, so it is not counted in the span's own duration)."""
    if name == "solver.solve":
        # within one run the matrix is I - theta*dt*A for a fixed A, so its
        # first two banded columns already tell distinct matrices apart
        return lambda args, result: args[1][:, :2].tobytes()
    if name == "certificates.residual":
        return lambda args, result: len(args[1]) * len(args[2].nodes)
    if name == "solver.run":
        return lambda args, result: result.status.value
    if name == "cli.scan.workers":
        return lambda args, result: result
    return None


class Tracer:
    def __init__(self) -> None:
        self._raw: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[tuple] = []
        self.item = ""   # set by the benchmark before each item it drives

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = [(0, self.item, threading.get_ident())]
            return local.stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        payload = _payload(name)
        scan_point = name == "cli.scan.point"
        record = self._raw.append
        ids = self._ids
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, item, thread = stack[-1]
            if parent == 0:
                item = self.item
            if scan_point:
                item = f"p={args[1]!r},q={args[2]!r}"
            sid = next(ids)
            stack.append((sid, item, thread))
            t0 = clock()
            c0 = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = cpu_clock()
                t1 = clock()
                stack.pop()
            record((sid, name, t0, t1, c1 - c0, parent, thread, item,
                    payload(args, result) if payload else None))
            return result

        traced.__bench_traced__ = True
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    @property
    def spans(self) -> List[Span]:
        return [Span(*raw) for raw in self._raw]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["sid", "name", "start", "end", "cpu", "parent",
                          "thread", "item"])
            for s in map(Span._make, self._raw):
                out.writerow([s.sid, s.name, repr(s.start), repr(s.end),
                              repr(s.cpu), s.parent, s.thread, s.item])


def traced_attributes() -> List[str]:
    """Every patched attribute that currently holds a tracing wrapper."""
    found = []
    for targets in TARGETS.values():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            if getattr(getattr(module, attr), "__bench_traced__", False):
                found.append(f"{module_name}.{attr}")
    return found


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer counts and times from the spans of one traced job."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    child_wall: Dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        child_wall[s.parent] += s.end - s.start

    m: Dict[str, float] = {}
    for name in LAYERS:
        group = by_name[name]
        wall = sum(s.end - s.start for s in group)
        busy = sum(s.cpu for s in group)
        calls_key = "solver.step.attempts" if name == "solver.step" else f"{name}.calls"
        m[calls_key] = len(group)
        m[f"{name}.busy_s"] = busy
        m[f"{name}.wait_s"] = wall - busy
        m[f"{name}.self_s"] = wall - sum(child_wall[s.sid] for s in group)

    steps = by_name["solver.step"]
    m["solver.step.us_per_attempt"] = (
        1e6 * sum(s.end - s.start for s in steps) / len(steps) if steps else 0.0)

    # distinct matrices are counted per solver.run, the scope a per-run
    # factorization cache could reuse them in
    parent_of = {s.sid: s.parent for s in spans}
    run_ids = {s.sid for s in by_name["solver.run"]}
    keys = defaultdict(set)
    for s in by_name["solver.solve"]:
        anc = s.parent
        while anc and anc not in run_ids:
            anc = parent_of.get(anc, 0)
        keys[anc].add(s.data)
    solves = len(by_name["solver.solve"])
    distinct = sum(len(v) for v in keys.values())
    m["solver.solve.repeat_frac"] = 1.0 - distinct / solves if solves else 0.0
    m["certificates.residual.points"] = sum(s.data for s in by_name["certificates.residual"])

    statuses = Counter(s.data for s in by_name["solver.run"])
    m["solver.status.blowup"] = statuses["BlowUp"]
    m["solver.status.stall"] = statuses["StepFloorStall"]
    m["solver.status.horizon"] = statuses["ReachedHorizon"]

    points = by_name["cli.scan.point"]
    scan_wall = sum(s.end - s.start for s in by_name["cli.scan"])
    workers = max((s.data for s in by_name["cli.scan.workers"]), default=0)
    busy = sum(s.cpu for s in points)
    m["cli.scan.points"] = len(points)
    m["cli.scan.workers"] = workers
    m["cli.scan.busy_s"] = busy
    m["cli.scan.wait_s"] = sum(s.end - s.start for s in points) - busy
    m["cli.scan.parallel_efficiency"] = (
        busy / (scan_wall * workers) if scan_wall and workers else 0.0)
    return m
