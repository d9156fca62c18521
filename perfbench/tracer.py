"""Span tracer that wraps the library's public functions from outside.

Every public function defined in a layer module is replaced, in every
module namespace that binds it, by a wrapper that records a span: name
(`<module>.<function>` of the defining module), start, end, parent span and
op id.  Spans stay in memory until the run writes them out.  Each thread
keeps its own span stack; a span opened on a thread with an empty stack
(a worker of the Marchenko row pool) is a child of the innermost span open
on the thread that started the op, i.e. of `marchenko.invert_full`.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "forward", "marchenko", "riemann", "characterize", "numkit", "model")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, parent: int | None, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0


class Tracer:
    def __init__(self, package):
        self.spans: list[Span] = []
        self._package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            span = Span(name, parent, self._op)
            with self._lock:
                idx = len(self.spans)
                self.spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def install(self, op: int) -> None:
        """Wrap every public layer function in every namespace binding it."""
        self._op = op
        self._root_stack = self._stack()
        modules = [self._package] + [getattr(self._package, m) for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(self._package.__name__ + ".") or home not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{home}.{obj.__name__}", obj)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered, lo, hi = 0.0, None, None
            for c in sorted(children[i], key=lambda j: self.spans[j].start):
                a, b = max(self.spans[c].start, s.start), min(self.spans[c].end, s.end)
                if b <= a:
                    continue
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            out.append(s.end - s.start - covered)
        return out

    def per_op(self, ops: list[int]) -> dict[str, float]:
        """`<name>.calls` and `<name>.self_s`, averaged over the given ops."""
        totals: dict[str, float] = defaultdict(float)
        wanted = set(ops)
        for s, self_s in zip(self.spans, self.self_times()):
            if s.op in wanted:
                totals[s.name + ".calls"] += 1
                totals[s.name + ".self_s"] += self_s
        return {k: v / len(ops) for k, v in totals.items()}

    def dump(self) -> list[list]:
        return [
            [s.name, s.start, s.end, s.parent, s.op, t]
            for s, t in zip(self.spans, self.self_times())
        ]
