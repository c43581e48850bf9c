"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start and end (perf_counter
nanoseconds), the index of the span that was open around it on the same
thread (its parent), and an optional request id shared by the spans of one
request.  Spans stay in memory until the run ends; :meth:`Tracer.summary`
then folds them into per-layer totals, where a layer's *self* time is its
spans' duration minus the part covered by their child spans.

Spans are recorded from the benchmark's own code: either around a call
(``with tracer.span(name): ...``) or by wrapping an object's public method
(:meth:`Tracer.wrap`), which leaves the package itself untouched.  Code
that runs both traced and untraced takes ``tracer.span`` or :func:`no_span`.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start_ns, end_ns, parent_index, request_id, items].
        self.spans = []
        #: Wrapped methods record spans only while this is true.
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, request_id=None, items=0):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter_ns(), 0, parent, request_id, items]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, obj, method, name, count_items=None):
        """Record a span around every call of ``obj.method`` (instance patch).

        ``count_items(args, kwargs)`` returns how many items (keys, rows) the
        call processed; it is stored on the span for rate metrics.
        """
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            items = count_items(args, kwargs) if count_items is not None else 0
            with self.span(name, items=items):
                return original(*args, **kwargs)

        setattr(obj, method, traced)

    def summary(self):
        """Per span name: calls, items, total and self seconds."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        layers = defaultdict(lambda: {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _, items) in enumerate(self.spans):
            layer = layers[name]
            layer["calls"] += 1
            layer["items"] += items
            layer["total_s"] += (end - start) / 1e9
            layer["self_s"] += (end - start - child_ns[index]) / 1e9
        return dict(layers)

    def total(self, name):
        return self.summary().get(name, {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})


def no_span(*args, **kwargs):
    """Stand-in for :meth:`Tracer.span` on an untraced call."""
    return contextlib.nullcontext()
