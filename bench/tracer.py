"""Span tracing from outside the package.

A `Tracer` replaces public functions at the module bindings a workload
calls through with thin wrappers.  Each call records a span (name, start,
end, parent span, thread, plus attributes read from the arguments and the
result) in memory; nothing is written until the benchmark ends.  A binding
that does not exist is recorded in `missing` instead of raising, so the
benchmark keeps running when the package renames or removes a name.

Parents: a span's parent is the innermost open span on its own thread.  A
call on a worker thread with no open span of its own gets the innermost
open span of the thread that installed the tracer, which is the call that
handed the work to the pool (e.g. `sweep_scaling` and its two pool
threads).
"""

import functools
import importlib
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _segments(args, kwargs, result):
    return {"segments": int(len(result))}


def _sharp(args, kwargs, result):
    eps = args[0] if args else kwargs.get("eps")
    return {
        "eps": float(eps),
        "n_candidates": int(getattr(result, "n_candidates", 0)),
        "n_jumps": int(result.profile.n_jumps),
        "converged": bool(result.converged),
    }


def _emitted(args, kwargs, result):
    return {"bytes": int(sum(os.path.getsize(p) for p in result))}


def _restarts(args, kwargs, result):
    _, rows = result
    return {"finals": [float(r["final_total"]) for r in rows]}


def _minimized(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _period(args, kwargs, result):
    return {"ratio": float(result.ratio)}


# (module, attribute, span name, annotate): the bindings the three
# workloads call each layer through.
BINDINGS = [
    ("mspl.sharp", "weighted_square_integrals", "core.wsi", _segments),
    ("mspl.diffuse", "weighted_square_integrals", "core.wsi", _segments),
    ("mspl.sharp", "optimize_sharp", "sharp.optimize", _sharp),
    ("mspl.reports", "optimize_sharp", "sharp.optimize", _sharp),
    ("mspl.cli", "optimize_sharp", "sharp.optimize", _sharp),
    ("mspl", "sweep_scaling", "reports.sweep", None),
    ("mspl", "emit_sweep", "reports.emit", _emitted),
    ("mspl", "minimize_with_restarts", "diffuse.restarts", _restarts),
    ("mspl.diffuse", "minimize_diffuse", "diffuse.minimize", _minimized),
    # called once per energy/gradient evaluation of the diffuse objective
    ("mspl.diffuse", "double_well_prime", "diffuse.kernel", None),
    ("mspl.diffuse", "smoothed_graded_init", "diffuse.init", None),
    ("mspl.diffuse", "build_smoothed", "diffuse.init", None),
    ("mspl.asymptotics", "period_law_profile", "asymptotics.period_law_profile", None),
    ("mspl", "extract_period", "asymptotics.extract_period", _period),
    ("mspl.cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        try:
            return self._home_stack[-1]
        except IndexError:
            return None

    def _wrap(self, module: str, attr: str, name: str, annotate) -> None:
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = {}
                if annotate is not None and result is not None:
                    try:
                        attrs = annotate(args, kwargs, result)
                    except (AttributeError, KeyError, TypeError, ValueError, OSError):
                        attrs = {"annotate_failed": True}
                tracer.spans.append(
                    Span(sid, name, t0, t1, parent, threading.get_ident(), attrs)
                )

        setattr(mod, attr, wrapper)
        self._patched.append((mod, attr, fn))
        self.wrapped.add(name)

    @contextmanager
    def installed(self, bindings=BINDINGS):
        """Wrap every binding for the duration of the block."""
        self._local.stack = self._home_stack
        for binding in bindings:
            self._wrap(*binding)
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(self._patched):
                setattr(mod, attr, fn)
            self._patched.clear()

    def named(self, name: str) -> list[Span] | None:
        """Spans of one name; None when no binding of that name could be
        wrapped, so a metric read from it is missing rather than zero."""
        if name not in self.wrapped:
            return None
        return [s for s in self.spans if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_time(span: Span, kids: dict[int, list[Span]]) -> float:
    """Duration minus the part of it covered by the span's children,
    which may overlap when they ran on several threads."""
    return span.duration - covered(
        [(k.start, k.end) for k in kids.get(span.sid, ())], span.start, span.end
    )
