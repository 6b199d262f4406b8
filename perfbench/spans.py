"""Per-layer tracing that wraps gclin's public functions from outside.

A layer is a gclin module.  Each public function of a module, and each
public or arithmetic method of its classes, gets a wrapper that records
a span: function, parent span, start and end.  Modules import functions
by name (``classification`` and ``subspaces`` hold their own reference
to ``to_eigenspace``), so every wrapper is installed in every namespace
that holds the function, not only in the defining module.  The scalar
layer (``fields``) is counted, not spanned: ``rational`` and
``GaussianRational.__init__`` run hundreds of thousands of times per
item.  Spans stay in flat in-memory arrays and are written out at the
end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

SPANNED = (
    "linalg",
    "multivector",
    "core",
    "spinor",
    "transforms",
    "subspaces",
    "classification",
    "relations",
    "serialize",
    "cli",
)
SPANNED_DUNDERS = frozenset(
    {
        "__init__",
        "__post_init__",
        "__add__",
        "__sub__",
        "__neg__",
        "__mul__",
        "__rmul__",
        "__matmul__",
        "__truediv__",
        "__eq__",
        "__xor__",
    }
)


def _module_targets(module):
    """(owner, attribute, function) for the public callables a module defines."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
            yield module, name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, val in vars(obj).items():
                fn = val.__func__ if isinstance(val, staticmethod) else val
                if inspect.isfunction(fn) and (not attr.startswith("_") or attr in SPANNED_DUNDERS):
                    yield obj, attr, val


class Tracer:
    """Installs span and count wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.names = []  # fid -> "layer:qualname"
        self.layers = []  # fid -> layer
        self.originals = []  # fid -> wrapped function
        self.counts = []  # fid -> calls, for count-only functions
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patches = []

    def _new_fid(self, layer, fn):
        self.names.append(f"{layer}:{fn.__qualname__}")
        self.layers.append(layer)
        self.originals.append(fn)
        self.counts.append(0)
        return len(self.names) - 1

    def _span_wrapper(self, fid, fn):
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fid, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[fid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = {layer: importlib.import_module(f"gclin.{layer}") for layer in SPANNED}
        fields = importlib.import_module("gclin.fields")
        by_function = {}  # original function -> wrapper, for namespace patching
        for layer, module in modules.items():
            for owner, attr, val in _module_targets(module):
                fn = val.__func__ if isinstance(val, staticmethod) else val
                wrapper = self._span_wrapper(self._new_fid(layer, fn), fn)
                if owner is module:
                    by_function[fn] = wrapper
                else:
                    self._patch(owner, attr, staticmethod(wrapper) if isinstance(val, staticmethod) else wrapper)
        by_function[fields.rational] = self._count_wrapper(self._new_fid("fields", fields.rational), fields.rational)
        init = fields.GaussianRational.__init__
        self._patch(fields.GaussianRational, "__init__", self._count_wrapper(self._new_fid("fields", init), init))
        namespaces = [m for name, m in sys.modules.items() if name == "gclin" or name.startswith("gclin.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in by_function:
                    self._patch(ns, attr, by_function[val])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def fid(self, name):
        return self.names.index(name)

    def mark(self):
        return len(self.fids), list(self.counts)

    def calls_since(self, mark) -> Counter:
        start, counts = mark
        calls = Counter(self.fids[start:])
        for fid, (now, then) in enumerate(zip(self.counts, counts)):
            if now != then:
                calls[fid] += now - then
        return calls

    def self_check(self, fn):
        """Run fn with wrappers and a profiler both counting calls of the originals.

        Returns {function: (wrapped count, direct count)} for every
        function whose two counts differ; empty means no call escaped.
        """
        # by identity: equal code objects from different files compare equal
        code_to_fid = {id(f.__code__): fid for fid, f in enumerate(self.originals)}
        direct = Counter()

        def profile(frame, event, arg):
            if event == "call":
                fid = code_to_fid.get(id(frame.f_code))
                if fid is not None:
                    direct[fid] += 1

        mark = self.mark()
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        wrapped = self.calls_since(mark)
        if not direct:
            return {"<profiler>": (sum(wrapped.values()), 0)}
        return {
            self.names[f]: (wrapped[f], direct[f])
            for f in set(wrapped) | set(direct)
            if wrapped[f] != direct[f]
        }

    def summarize(self, mark):
        """Calls per function, self seconds per layer and top-level serialize
        seconds split into decode/encode, over the spans recorded since mark."""
        start = mark[0]
        fids, parents, starts, ends, layers = self.fids, self.parents, self.starts, self.ends, self.layers
        self_s = Counter()
        serialize_s = Counter()
        for idx in range(start, len(fids)):
            fid = fids[idx]
            dur = ends[idx] - starts[idx]
            layer = layers[fid]
            self_s[layer] += dur
            parent = parents[idx]
            if parent >= start:
                self_s[layers[fids[parent]]] -= dur
            if layer == "serialize" and (parent < 0 or layers[fids[parent]] != "serialize"):
                kind = self.originals[fid].__name__.split("_")[0]
                serialize_s[kind] += dur
        return self.calls_since(mark), self_s, serialize_s

    def write(self, path):
        """Write every span as [function id, parent span, start s, end s]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.names}, fh)
            fh.write("\n")
            for row in zip(self.fids, self.parents, self.starts, self.ends):
                fh.write("%d %d %.7f %.7f\n" % row)
