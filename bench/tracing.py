"""Spans around the calls into each dcflow layer, installed from outside.

The tracer replaces module attributes at every site where a layer's public
function is looked up (``cli``, ``flow``, ``schemes``, ``analysis``) with a
wrapper that records a span, and :meth:`Tracer.uninstall` restores the
originals.  Problem oracles are counted by wrapping the callables of what
``build_problem`` returns via ``dataclasses.replace``.  Nothing inside the
package changes.

Spans stay in memory until the caller writes them out.  Each thread has its
own span stack, so the members that ``EtaSweep`` and ``DecompositionCompare``
run in a thread pool are seen, and a span opened on a pool thread with an
empty stack is parented to the job span open at that moment (the benchmark
runs one job at a time).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

__all__ = ["SITES", "ORACLES", "Span", "Tracer", "busy_seconds", "self_times"]

# layer group -> (module, attribute) of every site where the function is looked up
SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.run": (("cli", "run_experiment"),),
    "problems.build": (("cli", "build_problem"),),
    "cli.write": (("cli", "write_iterate_csv"), ("cli", "write_flow_csv"), ("cli", "_write_csv")),
    "schemes.run": (("schemes", "run_scheme"), ("cli", "run_scheme")),
    "flow.integrate": (("flow", "integrate_flow"), ("cli", "integrate_flow")),
    "flow.interp": (("flow", "dual_euler_interpolant"),),
    "analysis.energy": (("analysis", "energy_residuals"),),
    "analysis.probe": (
        ("analysis", "metric_bounds_on_box"),
        ("analysis", "local_exp_certificate"),
        ("analysis", "estimate_metric_pl_constant"),
    ),
    "analysis.local": (("analysis", "linearize_at"), ("analysis", "measure_local_contraction")),
    "core.invert": (
        ("core", "invert_grad_g"),
        ("flow", "invert_grad_g"),
        ("schemes", "invert_grad_g"),
        ("analysis", "invert_grad_g"),
    ),
}

ORACLES = ("g_value", "h_value", "g_grad", "h_grad", "g_hess", "h_hess")

# wrapped function -> (counter, amount read from its arguments and result),
# added after the call's span has closed
_TALLIES: dict[str, tuple[str, Callable]] = {
    "run_scheme": ("schemes.iters", lambda args, result: result.n_points - 1),
    "integrate_flow": ("flow.samples", lambda args, result: result.n_samples),
    "energy_residuals": ("energy.samples", lambda args, result: len(result)),
    "_write_csv": ("cli.bytes", lambda args, result: os.path.getsize(args[0])),
}


@dataclasses.dataclass(slots=True)
class Span:
    id: int
    group: str
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = float("nan")
    outer: bool = True  # no enclosing span of the same group on this thread


class _ThreadState:
    __slots__ = ("stack", "depth", "counts", "oracle_s")

    def __init__(self):
        self.stack: list[Span] = []
        self.depth: defaultdict = defaultdict(int)
        self.counts: defaultdict = defaultdict(int)
        self.oracle_s = 0.0


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children on other threads may overlap each other and may outlast the
    parent; only the union of their intervals inside the parent counts.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((c.start, c.end) for c in children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def busy_seconds(spans: list[Span], group: str) -> float:
    """Summed duration of a group's outermost spans; exceeds wall time when
    spans on different threads overlap."""
    return sum((s.end - s.start for s in spans if s.group == group and s.outer), 0.0)


class Tracer:
    """Records spans and counters while installed; see the module docstring.

    Counters (per thread, merged by :meth:`counts`):

    - ``<group>.calls``: calls into each group.
    - ``<oracle>`` (``g_value`` ... ``h_hess``) and ``oracle.calls``: every
      oracle call, by oracle and in total.
    - ``invert.<oracle>``: oracle calls made inside an inversion span.
    - ``schemes.invert`` / ``flow.invert``: inversions inside ``run_scheme``
      / ``integrate_flow`` spans.
    - ``probe.points``: ``g_hess`` calls inside box-probe spans.
    - ``schemes.iters``, ``flow.samples``, ``energy.samples``,
      ``cli.bytes``: read from return values and written files.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._job: Optional[Span] = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every site in ``modules`` (name -> dcflow submodule)."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrapped: dict[int, Callable] = {}
        try:
            for group, sites in SITES.items():
                for mod_name, attr in sites:
                    module = modules[mod_name]
                    original = getattr(module, attr)
                    if id(original) not in wrapped:
                        wrapped[id(original)] = self._wrap(group, attr, original)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped[id(original)])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def _open(self, st: _ThreadState, group: str, name: str) -> Span:
        if st.stack:
            parent = st.stack[-1].id
        else:
            parent = None if self._job is None else self._job.id
        span = Span(
            next(self._ids), group, name, parent, threading.get_ident(), 0.0,
            outer=st.depth[group] == 0,
        )
        st.stack.append(span)
        st.depth[group] += 1
        st.counts[group + ".calls"] += 1
        if group == "core.invert":
            if st.depth["schemes.run"]:
                st.counts["schemes.invert"] += 1
            if st.depth["flow.integrate"]:
                st.counts["flow.invert"] += 1
        elif group == "cli.run":
            self._job = span
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, st: _ThreadState, span: Span) -> None:
        span.end = time.perf_counter()
        st.stack.pop()
        st.depth[span.group] -= 1
        if span is self._job:
            self._job = None

    def _wrap(self, group: str, name: str, fn: Callable) -> Callable:
        tally = _TALLIES.get(name)
        builds = group == "problems.build"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            span = self._open(st, group, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(st, span)
            if tally is not None:
                st.counts[tally[0]] += tally[1](args, result)
            return self._wrap_oracles(result) if builds else result

        return wrapper

    def _wrap_oracles(self, problem):
        return dataclasses.replace(
            problem, **{name: self._oracle(name, getattr(problem, name)) for name in ORACLES}
        )

    def _oracle(self, name: str, fn: Callable) -> Callable:
        invert_key = "invert." + name
        is_hess = name == "g_hess"
        perf_counter = time.perf_counter

        def oracle(x):
            st = self._state()
            t0 = perf_counter()
            result = fn(x)
            st.oracle_s += perf_counter() - t0
            counts = st.counts
            counts[name] += 1
            if st.depth["core.invert"]:
                counts[invert_key] += 1
            if is_hess and st.depth["analysis.probe"]:
                counts["probe.points"] += 1
            return result

        return oracle

    # -- results -----------------------------------------------------------

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for st in self._states:
                total.update(st.counts)
        total["oracle.calls"] = sum(total[name] for name in ORACLES)
        return total

    def oracle_seconds(self) -> float:
        with self._lock:
            return sum(st.oracle_s for st in self._states)
