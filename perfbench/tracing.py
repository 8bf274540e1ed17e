"""Span tracing of canard's layers from outside the package.

The tracer wraps every public module-level function of the layer
modules (the README's library entry points are among them) and rebinds
each wrapped name in every loaded ``canard`` module that holds it, so
calls made inside the package are recorded too.  A span is (name, start,
end, parent); spans stay in memory and are written out when the run
ends.  Nothing is looked up by a fixed list of function names, so a
function that a later change deletes simply has no spans: the metrics
that name it are reported as absent, never as a crash.

The private ``_kernels`` module is not wrapped: it has no public entry
point, and ``dynamics`` covers the integrator from outside.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "canard"
LAYER_MODULES = ("jet", "normalform", "blowup", "verify", "allee", "sdi",
                 "dynamics", "cli", "_svg")


def _integrate_steps(traj) -> int:
    return len(traj.t) - 1


# Counts taken from a wrapped function's return value.
RESULT_COUNTERS = {"dynamics.integrate": ("dynamics.integrate.steps", _integrate_steps)}


class SpanLog:
    """Spans in start order; parent indexes point into the same log."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.ok = array("b")
        self.counters: dict = {}
        self.wrapped: set = set()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def index(self, name: str):
        """Name id, or None if the name never occurred."""
        return self._ids.get(name)

    def __len__(self) -> int:
        return len(self.start)

    def to_dict(self) -> dict:
        return {"names": self.names, "name_id": self.name_id.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "ok": self.ok.tolist(),
                "counters": self.counters, "wrapped": sorted(self.wrapped)}


class Tracer:
    """Installs span-recording wrappers into the loaded canard modules and
    removes them again; between the two, calls append to ``log``."""

    def __init__(self):
        self.log = SpanLog()
        self._stack = [-1]
        self._saved: list = []

    def install(self) -> None:
        loaded = {name: mod for name, mod in list(sys.modules.items())
                  if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers = {}
        for short in LAYER_MODULES:
            mod = loaded.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in loaded.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        log = self.log
        log.wrapped.add(name)
        nid = log.intern(name)
        ids, starts, ends, parents, oks = (log.name_id, log.start, log.end,
                                           log.parent, log.ok)
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            oks.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            oks[idx] = 1
            if counter is not None:
                key, count = counter
                log.counters[key] = log.counters.get(key, 0) + count(result)
            return result

        return wrapper


class SpanSummary:
    """Per-name calls, outermost inclusive time and self time of a log."""

    def __init__(self, log: SpanLog):
        self.log = log
        ids = np.array(log.name_id, dtype=np.int64)
        parent = np.array(log.parent, dtype=np.int64)
        dur = np.array(log.end) - np.array(log.start)
        child = np.zeros(len(log))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(log.names)
        self._ids = ids.tolist()
        self._parent = parent.tolist()
        self._dur = dur.tolist()
        self.calls = np.bincount(ids, minlength=k)
        self.self_s = np.bincount(ids, weights=dur - child, minlength=k)
        outer = ~self._nested_mask()
        self.incl_s = np.bincount(ids[outer], weights=dur[outer], minlength=k)

    def _ancestor(self, i: int, wanted) -> int:
        """Index of the nearest ancestor of span i whose name id is in
        wanted, or -1."""
        p = self._parent[i]
        while p >= 0 and self._ids[p] not in wanted:
            p = self._parent[p]
        return p

    def _nested_mask(self):
        """True for spans with an ancestor of the same name."""
        return np.array([self._ancestor(i, (nid,)) >= 0
                         for i, nid in enumerate(self._ids)], dtype=bool)

    def calls_of(self, name: str) -> int:
        nid = self.log.index(name)
        return 0 if nid is None else int(self.calls[nid])

    def incl_of(self, name: str) -> float:
        nid = self.log.index(name)
        return 0.0 if nid is None else float(self.incl_s[nid])

    def self_of(self, name: str) -> float:
        nid = self.log.index(name)
        return 0.0 if nid is None else float(self.self_s[nid])

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls_of(n) for n in self.log.names
                   if n.startswith(layer + "."))

    def layer_self(self, layer: str) -> float:
        return sum(self.self_of(n) for n in self.log.names
                   if n.startswith(layer + "."))

    def union_incl(self, names) -> float:
        """Time covered by spans of the given names, outermost ones only."""
        wanted = {self.log.index(n) for n in names} - {None}
        return sum(self._dur[i] for i, nid in enumerate(self._ids)
                   if nid in wanted and self._ancestor(i, wanted) < 0)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans of name that have a span of ancestor above them."""
        nid, aid = self.log.index(name), self.log.index(ancestor)
        return sum(1 for i, x in enumerate(self._ids)
                   if x == nid and self._ancestor(i, (aid,)) >= 0)

    def ok_calls(self, name: str) -> int:
        """Spans of name that returned instead of raising."""
        nid = self.log.index(name)
        return sum(ok for x, ok in zip(self._ids, self.log.ok) if x == nid)
