"""Spans around the kforcing functions, recorded from the benchmark's side.

A span records its name, start, end, parent span and thread.  Calls inside
the package are caught by wrapping the module attribute under the name its
caller looks up (``kforcing.greedy.closure`` is the closure the greedy
constructor calls), so no package code changes.  The benchmark's own calls
look their functions up on the package modules when they run, so inside
`Tracer.installed` they go through the same wrappers and outside it they
pay nothing.  A span opened on a worker thread with no open
span of its own takes the main thread's innermost open span as its parent,
which is how the verify pool's rows hang under ``verify.run_corpus``.

Per-layer metrics are computed from the spans of one pass; a layer's self
time is its span's duration minus the union of its child spans' intervals.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict | None = None


def _exact_attrs(result, exc):
    if exc is None:
        return {"subsets": result.subsets_tested, "truncated": 0}
    if hasattr(exc, "no_set_of_size_le"):
        return {"subsets": exc.subsets_tested, "truncated": 1}
    return None


def _closure_attrs(result, exc):
    return None if exc else {"rounds": result.rounds, "events": len(result.events)}


def _greedy_attrs(result, exc):
    if exc:
        return None
    return {
        "augmentations": sum(len(r.augmentations) for r in result),
        "set_size": sum(len(r.forcing_set) for r in result),
    }


def _corpus_attrs(result, exc):
    return None if exc else {"rows": len(result.rows)}


RECORDERS = {
    "exact.exact_f_k": _exact_attrs,
    "forcing.closure": _closure_attrs,
    "greedy.greedy_per_component": _greedy_attrs,
    "verify.run_corpus": _corpus_attrs,
}

# Names wrapped while a tracer is installed: (module, attribute, span name).
PACKAGE_CALLS = (
    ("kforcing.verify", "generate", "generators.generate"),
    ("kforcing.verify", "exact_f_k", "exact.exact_f_k"),
    ("kforcing.verify", "greedy_per_component", "greedy.greedy_per_component"),
    ("kforcing.verify", "all_bounds", "bounds.all_bounds"),
    ("kforcing.greedy", "closure", "forcing.closure"),
    ("kforcing.greedy", "connected_components", "graph.connected_components"),
    ("kforcing.forcing", "closure", "forcing.closure"),
    ("kforcing.graph", "connected_components", "graph.connected_components"),
    ("kforcing.bounds", "is_k_connected", "graph.is_k_connected"),
    # The benchmark's own entry points.
    ("kforcing.generators", "generate", "generators.generate"),
    ("kforcing.exact", "exact_f_k", "exact.exact_f_k"),
    ("kforcing.forcing", "is_k_forcing_set", "forcing.is_k_forcing_set"),
    ("kforcing.greedy", "greedy_per_component", "greedy.greedy_per_component"),
    ("kforcing.bounds", "all_bounds", "bounds.all_bounds"),
    ("kforcing.verify", "run_corpus", "verify.run_corpus"),
    ("kforcing.verify", "report_csv", "verify.report_csv"),
    ("kforcing.verify", "report_json", "verify.report_json"),
)


def _lookup(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):
        raise LookupError(f"traced name {module_name}.{attr} not found")
    return module, getattr(module, attr)


class Tracer:
    """Records spans while `active`; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def wrap(self, name: str, fn):
        record = RECORDERS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            span = Span(next(self._ids), name, parent, ident, time.perf_counter())
            stack.append(span.id)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if record is not None:
                    span.attrs = record(result, exc)
                self.spans.append(span)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every package-internal call site while the block runs.

        A name that is missing is an error, raised before anything is wrapped.
        """
        found = [(*_lookup(mod, attr), attr, span) for mod, attr, span in PACKAGE_CALLS]
        try:
            for module, fn, attr, span in found:
                setattr(module, attr, self.wrap(span, fn))
            yield
        finally:
            self.active = False
            for module, fn, attr, _ in reversed(found):
                setattr(module, attr, fn)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the part of span's interval that the union of kids covers."""
    total = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer time and work of one pass (or one set-up) from its spans."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_time(name):
        return sum(s.end - s.start - _covered(s, children[s.id]) for s in by_name[name])

    def attr(name, key):
        return sum(s.attrs[key] for s in by_name[name] if s.attrs)

    solve_s = total("exact.exact_f_k")
    subsets = attr("exact.exact_f_k", "subsets")
    return {
        "generators.generate_s": total("generators.generate"),
        "generators.graphs": len(by_name["generators.generate"]),
        "exact.solve_s": solve_s,
        "exact.calls": len(by_name["exact.exact_f_k"]),
        "exact.subsets_tested": subsets,
        "exact.subsets_per_s": subsets / solve_s if solve_s > 0 else 0.0,
        "exact.truncated": attr("exact.exact_f_k", "truncated"),
        "forcing.closure_s": total("forcing.closure"),
        "forcing.closure_calls": len(by_name["forcing.closure"]),
        "forcing.rounds": attr("forcing.closure", "rounds"),
        "forcing.events": attr("forcing.closure", "events"),
        "forcing.is_k_forcing_set_s": total("forcing.is_k_forcing_set"),
        "greedy.construct_s": total("greedy.greedy_per_component"),
        "greedy.self_s": self_time("greedy.greedy_per_component"),
        "greedy.augmentations": attr("greedy.greedy_per_component", "augmentations"),
        "greedy.set_size": attr("greedy.greedy_per_component", "set_size"),
        "bounds.all_bounds_s": total("bounds.all_bounds"),
        "bounds.self_s": self_time("bounds.all_bounds"),
        "graph.is_k_connected_s": total("graph.is_k_connected"),
        "graph.is_k_connected_calls": len(by_name["graph.is_k_connected"]),
        "graph.components_s": total("graph.connected_components"),
        "verify.run_corpus_s": total("verify.run_corpus"),
        "verify.self_s": self_time("verify.run_corpus"),
        "verify.render_s": total("verify.report_csv") + total("verify.report_json"),
        "verify.rows": attr("verify.run_corpus", "rows"),
    }
