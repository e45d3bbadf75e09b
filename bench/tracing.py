"""Span tracing installed from outside the package.

``Tracer.run()`` replaces a fixed set of public entry points with wrappers
for the length of one grid. Each wrapper records a span per call: name,
layer, start and end (``perf_counter_ns``), the span that caused it, and the
grid run it belongs to. The grid itself is the root span. Every original
attribute is restored when the grid returns, and spans stay in memory until
``write()``. A layer's self time is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from stochfw import cli, estimators, solver
from stochfw.objectives import Objective

LAYERS = ("data", "objectives", "estimators", "constraints", "metrics", "solver", "cli")


def _solve_counts(args, result):
    cfg = args[0]
    return {"algorithm": cfg.algorithm, "K": cfg.K, "sfo": result.sfo_total}


def _emit_counts(args, result):
    return {"rows": len(args[0].rows)}


# (owner, attribute, layer, counts taken from the call's arguments and result)
_TARGETS = [
    (cli, "parse_libsvm", "data", None),
    (cli, "solve", "solver", _solve_counts),
    (cli, "emit_csv", "cli", _emit_counts),
    (Objective, "loss_full", "objectives", None),
    (Objective, "grad_full", "objectives", None),
    (Objective, "grad_batch", "objectives", None),
    (estimators.FullGradEstimator, "update", "estimators", None),
    (estimators.SarahEstimator, "update", "estimators", None),
    (estimators.SagaSarahEstimator, "update", "estimators", None),
    (estimators.MomentumEstimator, "update", "estimators", None),
    (solver, "lmo", "constraints", None),
    (solver, "fw_gap", "metrics", None),
]


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "run", "counts")

    def __init__(self, name, layer, parent, run):
        self.name, self.layer, self.parent, self.run = name, layer, parent, run
        self.start = self.end = 0
        self.counts = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._root = None
        self._saved = []

    def _wrap(self, fn, name, layer, counts):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            # pool threads start with an empty stack: their parent is the grid
            span = Span(name, layer, stack[-1] if stack else tracer._root, tracer._root.run)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    def _install(self):
        for owner, attr, layer, counts in _TARGETS:
            owned = attr in vars(owner)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn, owned))
            name = f"{getattr(owner, '__name__', owner)}.{attr}".replace("stochfw.", "")
            setattr(owner, attr, self._wrap(fn, name, layer, counts))

    def _uninstall(self):
        while self._saved:
            owner, attr, fn, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)

    def run(self, run, fn):
        """Call ``fn()`` traced, under a root span (layer cli) tagged ``run``."""
        self._root = root = Span("cli.main", "cli", None, run)
        self.spans.append(root)
        self._install()
        root.start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            root.end = time.perf_counter_ns()
            self._uninstall()
            self._root = None

    def write(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write("id,parent,run,name,layer,start_ns,end_ns\n")
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else ids[id(s.parent)]
                fh.write(f"{i},{parent},{s.run},{s.name},{s.layer},{s.start},{s.end}\n")


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time in ns of every span, keyed by ``id(span)``."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {id(s): (s.end - s.start) - _covered(children[id(s)], s.start, s.end) for s in spans}
