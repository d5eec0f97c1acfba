"""In-memory span tracer that wraps the package's layer functions.

The tracer replaces a function at the module (or class) attribute its
caller looks up, so the package itself is never edited.  Each call
records one span: name, start, end and the index of the enclosing
span.  Spans stay in flat arrays until the run ends; self time is the
span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import time
from array import array


class Tracer:
    """Record spans around wrapped callables; one instance per traced unit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so every call records a span called ``name``."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, targets):
        """Wrap each ``(owner, attribute)`` in place, naming spans after
        the function's defining module and qualified name."""
        for owner, attr in targets:
            fn = getattr(owner, attr)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(span_name(fn), fn))

    def uninstall(self):
        """Restore every attribute :meth:`install` replaced."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self):
        """Recorded spans as ``(name, start, end, parent_index)`` tuples."""
        return [(self.names[n], s, e, p) for n, s, e, p in zip(
            self.span_name, self.span_start, self.span_end, self.span_parent)]

    def summary(self):
        """Per-name ``{"calls", "self_s", "total_s"}`` over recorded spans."""
        n_spans = len(self.span_start)
        child = [0.0] * n_spans
        for i in range(n_spans):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in self.names}
        for i in range(n_spans):
            entry = out[self.names[self.span_name[i]]]
            duration = self.span_end[i] - self.span_start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[i]
        return out


def span_name(fn):
    """``<module>.<qualname>`` with the package prefix dropped."""
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__qualname__}"
