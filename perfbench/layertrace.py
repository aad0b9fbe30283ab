"""Outside-in span tracer for the package's layers.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` by timing wrappers.  It patches every ``matabound`` module
attribute bound to the original object, so names imported into other
modules (``interval.fit_family``, ``interval.model_weights``,
``mcverify.solve_interval``, ``coverage.delta_u`` as ``_solve_grid``
looks it up) are wrapped too.  Wrappers return results unchanged.

A span records its name, parent span, start, end, the exception type it
ended with (if any) and counts; the benchmark opens its own spans around
passes and ops with ``Tracer.span``.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        """[id, parent, name, start, end, error, counts] for the result file."""
        return [self.id, self.parent, self.name, self.start, self.end, self.error, self.counts]


def _delta_u_points(args, result) -> dict:
    return {"points": int(np.broadcast(*args[:3]).size)}


def _models(args, result) -> dict:
    return {"models": len(result)}


def _reps(args, result) -> dict:
    return {"reps": int(args[0].reps)}


# (span name, module, attribute path, counter)
TARGETS = (
    ("coverage.delta_u", "matabound.coverage", "delta_u", _delta_u_points),
    ("coverage.coverage_probability", "matabound.coverage", "coverage_probability", None),
    ("coverage.grid_build", "matabound.coverage", "CoverageGrid.__init__", None),
    ("coverage.coverage_at", "matabound.coverage", "CoverageGrid.coverage_at", None),
    ("bound.upper_bound", "matabound.bound", "upper_bound", None),
    ("linreg.problem_init", "matabound.linreg", "RegressionProblem.__init__", None),
    ("linreg.fit_family", "matabound.linreg", "fit_family", _models),
    ("weights.model_weights", "matabound.weights", "model_weights", None),
    ("interval.solve_interval", "matabound.interval", "solve_interval", None),
    ("mcverify.simulate_coverage", "matabound.mcverify", "simulate_coverage", _reps),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **counts):
        s = self._open(name)
        s.counts.update(counts)
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            self._close(s)

    def wrap(self, fn, name: str, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                s.error = type(exc).__name__
                raise
            finally:
                tracer._close(s)
            if counter is not None:
                s.counts.update(counter(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; raises if one is missing."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "matabound" or key.startswith("matabound.")]
        for name, module, path, counter in TARGETS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, counter)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


def descendants(spans: list[Span], root: int) -> list[Span]:
    """Spans under ``root`` (ids grow in opening order, so one forward scan)."""
    inside = {root}
    out = []
    for s in spans:
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out
