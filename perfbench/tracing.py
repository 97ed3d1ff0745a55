"""Span tracing of shapeforge's layers from outside the program.

``Tracer.install`` wraps every public callable of each layer module: the
module's public functions and the public methods of its classes, arithmetic
operators such as ``Poly.__mul__`` included.  A function is replaced in
every shapeforge namespace that imported it by name, so a call from one
layer into another (``asymptotics`` calling its imported ``find_zeta``, or
``cli`` calling ``compatible_counts``) passes through the wrapper.

A call that crosses into a layer opens a span with a name, start, end and
the id of the span that caused it; a call from a layer into itself is
counted but adds no span, so its time stays in the caller's span.  The
benchmark opens one root span per operation; calls outside one, such as
those that check an output, are not traced.  Spans are kept in flat
arrays and written out after the run; a layer's self time is the duration
of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("poly", "series", "counting", "asymptotics", "structures", "paths", "cli")
ROOT = "bench"

# operators that do work on the library's values; other dunders are plumbing
_OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__eq__",
))


class LayerStats:
    """Counters kept at a layer's public boundary."""

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.mul_calls = 0
        self.max_terms = 0
        self.max_order = 0
        self.max_result_bits = 0
        self.timed_s: dict = {}  # inclusive time of selected callables
        self.work: dict = {}     # nt parsed, pairs decoded


def _observe_poly(stats, name, args, result):
    if name in ("Poly.__mul__", "Poly.__rmul__"):
        stats.mul_calls += 1
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict) and len(terms) > stats.max_terms:
        stats.max_terms = len(terms)


def _observe_series(stats, name, args, result):
    order = getattr(result, "order", None)
    if isinstance(order, int) and order > stats.max_order:
        stats.max_order = order


def _observe_counting(stats, name, args, result):
    if isinstance(result, int) and result.bit_length() > stats.max_result_bits:
        stats.max_result_bits = result.bit_length()


def _observe_structures(stats, name, args, result):
    if name == "parse_structure":
        stats.work["nt"] = stats.work.get("nt", 0) + len(args[0])


def _observe_paths(stats, name, args, result):
    if name in ("decode1", "decode2"):
        stats.work["pairs"] = stats.work.get("pairs", 0) + len(result.steps) + 1


_OBSERVERS = {
    "poly": _observe_poly,
    "series": _observe_series,
    "counting": _observe_counting,
    "structures": _observe_structures,
    "paths": _observe_paths,
}

# callables whose inclusive time is reported on its own
_TIMED = frozenset(("TruncatedSeries.sqrt", "find_zeta", "decode1", "decode2"))


class Tracer:
    def __init__(self):
        self.stats = {layer: LayerStats() for layer in LAYERS + (ROOT,)}
        self.names: list = []
        self._name_ids: dict = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []   # (span id, layer) of the open spans
        self._patches: list = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()

    def root(self, label: str):
        """Context manager for one operation's root span."""
        return _RootSpan(self, f"{ROOT}.{label}")

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        stats = self.stats[layer]
        observe = _OBSERVERS.get(layer)
        timed = qualname in _TIMED
        span_name = f"{layer}.{qualname}"
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside an operation, e.g. while its output is checked
                return fn(*args, **kwargs)
            stats.calls += 1
            boundary = stack[-1][1] != layer
            if boundary:
                sid = tracer._open(span_name)
                stack.append((sid, layer))
            t0 = perf_counter() if timed else 0.0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if boundary:
                    stats.errors += 1
                raise
            finally:
                if timed:
                    stats.timed_s[qualname] = stats.timed_s.get(qualname, 0.0) + perf_counter() - t0
                if boundary:
                    stack.pop()
                    tracer._close(sid)
            if observe is not None:
                observe(stats, qualname, args, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every public callable of each layer of ``package``."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        namespaces = [package] + list(modules.values())
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, name, obj)
                    for ns in namespaces:
                        if ns.__dict__.get(name) is obj:
                            self._set(ns, name, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(layer, qualname, attr))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(layer, qualname, attr.__func__)))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(layer, qualname, attr.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer (and for the root spans) from the spans."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = {layer: 0.0 for layer in self.stats}
        for i in range(n):
            out[layer_of[self.name[i]]] += end[i] - start[i] - child[i]
        return out

    def roots(self) -> list:
        return [i for i in range(len(self.start)) if self.parent[i] < 0]

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: id, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{names[self.name[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer._stack:
            raise RuntimeError("root span opened inside another span")
        self.sid = self.tracer._open(self.name)
        self.tracer._stack.append((self.sid, ROOT))
        return self

    def __exit__(self, *exc):
        self.tracer._stack.pop()
        self.tracer._close(self.sid)
        return False

    @property
    def duration(self) -> float:
        return self.tracer.end[self.sid] - self.tracer.start[self.sid]
