"""Outside-in tracing of posetmatrix layers.

`Tracer.install` replaces a public function of the package, at every module
that imported it, with a wrapper that records a span (name, start, end,
parent) and per-name aggregates: calls, self time and a success count.
Nothing under src/ changes; `uninstall` puts every original back.

Self time is a span's duration minus the time its traced children took.
Spans are kept in memory up to a cap and written out by `write_spans`; the
aggregates keep counting past the cap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

SPAN_CAP = 50_000  # spans kept in memory per run


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.hits: list[int] = []
        self.dropped = 0
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []  # [child seconds, span index] per open span
        self._undo: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.hits.append(0)
        return i

    def wrap(self, name: str, fn, outcome=None, when=None):
        """A traced stand-in for fn.  outcome(result) -> bool counts hits;
        when(args, kwargs) -> bool selects the calls that are traced."""
        i = self._id(name)
        calls, self_s, hits, stack = self.calls, self.self_s, self.hits, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            frame = [0.0, self._open(i)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                took = t1 - t0
                calls[i] += 1
                self_s[i] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if frame[1] >= 0:
                    self._start[frame[1]] = t0
                    self._end[frame[1]] = t1
            if outcome is not None and outcome(result):
                hits[i] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _open(self, i: int) -> int:
        if len(self._name) >= SPAN_CAP:
            self.dropped += 1
            return -1
        self._name.append(i)
        self._parent.append(self._stack[-1][1] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        return len(self._name) - 1

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own: the root of one op."""
        return self.wrap(name, fn)(*args)

    def install(self, name: str, module: str, attr: str, sites=None, outcome=None, when=None):
        """Wrap module.attr (attr may be Class.method) at every loaded
        posetmatrix module that holds it, or only at the named sites."""
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig, outcome, when))
            return
        orig = getattr(owner, attr)
        traced = self.wrap(name, orig, outcome, when)
        mods = [sys.modules[s] for s in sites] if sites else [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "posetmatrix" or k.startswith("posetmatrix."))
        ]
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def snapshot(self) -> dict[str, tuple[int, float, int]]:
        return {n: (self.calls[i], self.self_s[i], self.hits[i]) for i, n in enumerate(self.names)}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for k in range(len(self._name)):
                rec = {
                    "id": k,
                    "name": self.names[self._name[k]],
                    "start": self._start[k] - self.t0,
                    "end": self._end[k] - self.t0,
                    "parent": self._parent[k],
                }
                fh.write(json.dumps(rec) + "\n")
