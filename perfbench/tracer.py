"""Outside-in span tracer for the cxlab layers.

The tracer wraps every public function and method of the seven layer
modules from outside the package: module functions are rebound in their
defining module *and* in every cxlab module that imported them with
``from .x import y`` (otherwise internal calls would bypass the span), and
methods are patched on their class.  ``uninstall`` restores every original.

Each call becomes one span (name, parent span, operation id, start, end),
kept in flat arrays while the benchmark runs and written out at the end.
A span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over its spans.

What outside-in timing cannot attribute is listed in ``perfbench/NOTES.md``.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("exactla", "gralg", "gmod", "resol", "yoneda", "cioper", "cxcli")

# operator methods count as public API; other dunders are not wrapped
_OPERATORS = {"__matmul__", "__add__", "__sub__", "__neg__", "__mul__"}
# constructors wrapped because a per-layer metric counts them; Mat.__init__
# is deliberately left alone (hundreds of thousands of calls per search)
_CONSTRUCTORS = {("gmod", "Module"), ("yoneda", "ExtElement")}


def _public_callables(module):
    """(owner, attribute, qualified name) for every wrappable callable."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                public = not attr.startswith("_") or attr in _OPERATORS or (
                    attr == "__init__" and (layer, name) in _CONSTRUCTORS)
                if public and (inspect.isfunction(member) or isinstance(member, classmethod)):
                    yield obj, attr, f"{layer}.{name}.{attr}"


class Tracer:
    """Records spans for wrapped cxlab calls; one instance per traced run."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self.op = -1
        self._paused = False
        self._stack: list = []
        self._patches: list = []
        self._hooks: dict = {}

    # -- installation ------------------------------------------------------

    def install(self, hooks=None):
        """Wrap every public callable of the layer modules.

        hooks maps a qualified span name to ``hook(args, kwargs, call)``,
        where ``call()`` runs the wrapped function and returns its result;
        hooks read their inputs and outputs to update ``self.counters``.
        """
        self._hooks = dict(hooks or {})
        modules = [importlib.import_module(f"cxlab.{layer}") for layer in LAYERS]
        for module in modules:
            for owner, attr, qualname in list(_public_callables(module)):
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, qualname))
                else:
                    wrapped = self._wrap(original, qualname)
                self._patch(owner, attr, original, wrapped)
                if owner is module:
                    # rebind every `from .layer import name` copy as well
                    for other in modules:
                        if other is not module and vars(other).get(attr) is original:
                            self._patch(other, attr, original, wrapped)
        unknown = set(self._hooks) - set(self.names)
        if unknown:
            raise RuntimeError(f"hooks name no traced callable: {sorted(unknown)}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Call wrapped callables straight through: no spans, no hooks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, qualname):
        nid = self._name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        hook = self._hooks.get(qualname)
        stack = self._stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(args, kwargs, lambda: fn(*args, **kwargs))
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return wrapper

    # -- analysis ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def aggregate(self, lo: int, hi: int):
        """Per span name: (calls, self seconds) over spans [lo, hi)."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            par = self.span_parent[i]
            if par >= lo:
                child[par - lo] += self.span_end[i] - self.span_start[i]
        calls, self_s = Counter(), Counter()
        for i in range(lo, hi):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i - lo]
        return calls, self_s

    def write(self, path, header: dict):
        """Write every span as one tab-separated line, after a JSON header line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            t0 = self.span_start[0] if self.span_count() else 0.0
            for i in range(self.span_count()):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.6f}\t{self.span_end[i] - t0:.6f}\n")
