"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of ``dcboost`` at their module
or class attribute while it is active, and restores every attribute when it
exits, so untraced passes never run through a wrapper and ``src/`` is never
edited.  Each wrapped call records one span: name, start, end, parent span
and trace id.  A ``solve`` call starts a new trace id, so all spans of one
solve share an id.  Spans live in flat arrays in memory and are written out
once, at the end of the run.

Counters that only a return value can give (line-search outcomes, inner
iterations) are recorded by per-target hooks at the same boundaries.

A wrapped call costs a few microseconds more than a plain one.
:func:`span_cost` measures that cost on an empty function, so per-layer
times can be corrected for the tracer's own work (see ``layers.py``).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

_MISSING = object()


class Target(NamedTuple):
    """One attribute to wrap: ``owner`` is a module path or ``module:Class``."""

    owner: str
    attr: str
    name: str | Callable  # span name, or a function of (args, kwargs)
    hook: Callable | None = None
    new_trace: bool = False


def _cfg_of(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["cfg"]


def _solve_name(args, kwargs):
    return "dc_core.solve." + _cfg_of(args, kwargs).variant.value


def _solve_hook(tracer, sid, args, kwargs, result):
    layer = type(args[0]).__module__.rpartition(".")[2]
    tracer.solves.append((sid, layer))


def _line_search_hook(boosted_above):
    def hook(tracer, sid, args, kwargs, result):
        lam, backtracks = result
        tracer.counters["ls.calls"] += 1
        tracer.counters["ls.backtracks"] += backtracks
        if lam > boosted_above:
            tracer.counters["ls.accepted"] += 1
        if lam == 0.0:
            # bdca/nmbdca exhausted the ladder; solve falls back to y
            tracer.counters["ls.failures"] += 1
    return hook


def _tv_prox_hook(tracer, sid, args, kwargs, result):
    tracer.counters["tv.inner_iters"] += result.iters
    if not result.converged:
        tracer.counters["tv.inner_unconverged"] += 1
    tracer.last_tv_prox_call = (args, kwargs)


# The layer boundaries of dcboost.  Names imported into another module with
# ``from ... import`` are separate bindings, so each binding a workload or the
# library calls through is listed.  Targets missing from the library (after an
# API change) are skipped and reported, never invented.
TARGETS = (
    # dc_core: the outer loop and the three line searches
    Target("dcboost.dc_core", "solve", _solve_name, _solve_hook, True),
    Target("dcboost.toy_problems", "solve", _solve_name, _solve_hook, True),
    Target("dcboost.cli", "solve", _solve_name, _solve_hook, True),
    Target("dcboost.dc_core", "ibdca_line_search", "dc_core.linesearch.ibdca",
           _line_search_hook(1.0)),
    Target("dcboost.dc_core", "bdca_line_search", "dc_core.linesearch.bdca",
           _line_search_hook(0.0)),
    Target("dcboost.dc_core", "nmbdca_line_search",
           "dc_core.linesearch.nmbdca", _line_search_hook(0.0)),
    # toy_problems: closed-form evaluators and the basin experiment
    Target("dcboost.toy_problems:QuadL1Problem", "phi", "toy_problems.phi"),
    Target("dcboost.toy_problems:ScadSeparableProblem", "phi",
           "toy_problems.phi"),
    Target("dcboost.toy_problems:QuadL1Problem", "solve_subproblem_with_info",
           "toy_problems.subproblem"),
    Target("dcboost.toy_problems:ScadSeparableProblem",
           "solve_subproblem_with_info", "toy_problems.subproblem"),
    Target("dcboost.toy_problems", "basin_experiment", "toy_problems.basin"),
    # tv_cauchy: operators, the TV prox inner loop, energy and phi
    Target("dcboost.tv_cauchy:CauchyModel", "phi", "tv_cauchy.phi"),
    Target("dcboost.tv_cauchy:CauchyModel", "solve_subproblem_with_info",
           "tv_cauchy.subproblem"),
    Target("dcboost.tv_cauchy", "tv_prox", "tv_cauchy.tv_prox",
           _tv_prox_hook),
    Target("dcboost.tv_cauchy", "grad", "tv_cauchy.grad"),
    Target("dcboost.tv_cauchy", "div", "tv_cauchy.div"),
    Target("dcboost.tv_cauchy", "energy", "tv_cauchy.energy"),
    # imaging: noise synthesis, metrics, PGM I/O
    Target("dcboost.imaging", "add_cauchy_noise", "imaging.noise"),
    Target("dcboost.cli", "add_cauchy_noise", "imaging.noise"),
    Target("dcboost.imaging", "psnr", "imaging.psnr"),
    Target("dcboost.cli", "psnr", "imaging.psnr"),
    Target("dcboost.imaging", "write_pgm", "imaging.write_pgm"),
    Target("dcboost.cli", "write_pgm", "imaging.write_pgm"),
    Target("dcboost.cli", "make_squares_image", "imaging.squares"),
    Target("dcboost.cli", "quantize_u8", "imaging.quantize"),
    # cli: argument handling, trace streaming, manifest
    Target("dcboost.cli", "main", "cli.main", None, True),
    Target("dcboost.cli:_TraceStream", "__call__", "cli.trace_stream"),
    Target("dcboost.cli", "trace_row", "cli.trace_row"),
)


def _resolve_owner(spec):
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _lookup(owner, attr):
    """The callable an attribute lookup on ``owner`` finds, or _MISSING."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        return _MISSING
    return vars(owner).get(attr, _MISSING)


class Tracer:
    """Records spans while active (``with tracer:``); inactive otherwise."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._stack = []
        self._saved = []
        self.missing = []
        self.reset()

    def reset(self):
        """Forget all spans and counters (between traced passes)."""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace_id = array("i")
        self.counters = Counter()
        self.solves = []  # (span id, model's module) per solve
        self.last_tv_prox_call = None
        self._next_trace = 0

    # -- span recording ---------------------------------------------------

    def _open(self, name, new_trace):
        ids = self._name_ids
        nid = ids.get(name)
        if nid is None:
            nid = ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        parent = stack[-1] if stack else -1
        if new_trace or parent < 0:
            tid = self._next_trace
            self._next_trace += 1
        else:
            tid = self.trace_id[parent]
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.trace_id.append(tid)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name):
        """A span around benchmark code (a pass, input generation)."""
        sid = self._open(name, True)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, target):
        tracer = self
        name, hook, new_trace = target.name, target.hook, target.new_trace
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(namer(args, kwargs) if namer else name,
                               new_trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(tracer, sid, args, kwargs, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already active")
        self.missing = []
        try:
            for target in TARGETS:
                owner = _resolve_owner(target.owner)
                fn = _lookup(owner, target.attr)
                if fn is _MISSING:
                    self.missing.append(f"{target.owner}.{target.attr}")
                    continue
                self._saved.append(
                    (owner, target.attr, vars(owner).get(target.attr, _MISSING)))
                setattr(owner, target.attr, self._wrap(fn, target))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._stack.clear()

    # -- reading spans ----------------------------------------------------

    def columns(self):
        """The spans as numpy arrays (copies: a buffer exported from an
        ``array`` would block further appends)."""
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "parent": np.array(self.parent, dtype=np.int32),
                "trace_id": np.array(self.trace_id, dtype=np.int32)}

    def total(self, name):
        """Summed duration of the spans called ``name``."""
        if name not in self._name_ids:
            return 0.0
        cols = self.columns()
        mask = cols["name_id"] == self._name_ids[name]
        return float((cols["end"][mask] - cols["start"][mask]).sum())

    def dump(self, path):
        """Write the recorded spans as a numpy ``.npz`` archive."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.columns())


def self_times(start, end, parent):
    """Per span: its duration minus the part of it its children cover.

    Children are the spans whose ``parent`` is the span's index (-1 for a
    root).  Overlapping children are counted once, and child time outside
    the parent's interval is ignored.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    lo = np.maximum(start[child], start[p])
    hi = np.minimum(end[child], end[p])
    keep = hi > lo
    p, lo, hi = p[keep], lo[keep], hi[keep]
    covered = np.zeros(len(start))
    if p.size:
        # integer nanoseconds, so the per-parent running maximum below is exact
        t0 = start.min()
        lo = np.rint((lo - t0) * 1e9).astype(np.int64)
        hi = np.rint((hi - t0) * 1e9).astype(np.int64)
        order = np.lexsort((lo, p))
        p, lo, hi = p[order], lo[order], hi[order]
        # running max of child ends within each parent: offset every parent's
        # group above all earlier groups so one accumulate never crosses groups
        group = np.concatenate(([0], np.cumsum(p[1:] != p[:-1])))
        width = int(hi.max()) + 1
        reach = np.maximum.accumulate(group * width + hi)
        before = np.concatenate(([-1], reach[:-1] - group[1:] * width))
        new = np.clip(hi - np.maximum(lo, before), 0, None)
        covered = np.bincount(p, weights=new, minlength=len(start)) / 1e9
    return end - start - covered


def descendant_counts(parent):
    """Per span: the number of spans nested below it, at any depth."""
    parent = np.asarray(parent, dtype=np.int64)
    count = np.zeros(len(parent), dtype=np.int64)
    ancestor = parent.copy()
    while True:
        live = np.flatnonzero(ancestor >= 0)
        if not live.size:
            return count
        count += np.bincount(ancestor[live], minlength=len(parent))
        ancestor[live] = parent[ancestor[live]]


class SpanCost(NamedTuple):
    """What one wrapped call adds to a plain call, in seconds: ``outside``
    lies outside the span and lands in the parent's self time, ``inside``
    lies within the span's own interval."""

    outside: float
    inside: float

    @property
    def total(self):
        return self.outside + self.inside


CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 5


def span_cost():
    """Measure the tracer's cost per span on an empty method.

    The method is wrapped at its class attribute as :class:`Tracer` wraps a
    target without a hook, and called as ``obj.method(x)`` with a parent span
    open, as the models' ``phi`` is called in a traced pass.  Each of
    CALIBRATION_REPEATS repeats times CALIBRATION_CALLS wrapped and as many
    plain calls, and each part of the cost is the median over the repeats.
    """
    class Plain:
        def method(self, x):
            return x

    class Wrapped(Plain):
        pass

    tracer = Tracer()
    Wrapped.method = tracer._wrap(Plain.method, Target("", "", "calibration"))
    plain, wrapped = Plain(), Wrapped()
    outside, inside = [], []
    with tracer.region("calibration"):
        for _ in range(CALIBRATION_REPEATS):
            first = len(tracer.start)
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                wrapped.method(None)
            t1 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                plain.method(None)
            t2 = time.perf_counter()
            n = CALIBRATION_CALLS
            spans = (sum(tracer.end[first:]) - sum(tracer.start[first:])) / n
            outside.append((t1 - t0) / n - spans)
            inside.append(spans - (t2 - t1) / n)
    return SpanCost(outside=max(statistics.median(outside), 0.0),
                    inside=max(statistics.median(inside), 0.0))
