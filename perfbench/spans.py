"""In-memory span recorder for the traced benchmark run.

A span is ``[name, op, parent, start_ns, end_ns, attr]``: ``op`` is the
operation the span belongs to, ``parent`` the index of the enclosing span
(-1 for none) and ``attr`` an optional count measured at the boundary.
Spans are recorded from outside the program: the harness routes its own
calls through :meth:`Tracer.call`, and :meth:`Tracer.patch` replaces a
module attribute for the duration of one traced operation, so calls the
engine makes through that module attribute are recorded too.  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of the run.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, size=None, **kwargs):
        """Run ``fn`` inside a span.  ``size(args)`` is evaluated before and
        after the call and the difference is stored as the span's count."""
        spans, stack = self.spans, self._stack
        span = [name, self.op, stack[-1] if stack else -1, 0, 0, None]
        stack.append(len(spans))
        spans.append(span)
        before = size(args) if size is not None else 0
        span[3] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter_ns()
            stack.pop()
            if size is not None:
                span[5] = size(args) - before

    def patch(self, module, attr: str, size=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(attr, original, *args, size=size, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def op_spans(self, op: int) -> list[tuple[str, float, float, int | None]]:
        """``(name, duration ms, self ms, count)`` of each span of one
        operation, in start order.  Self time is the duration minus the time
        covered by the span's children."""
        own = [(i, s) for i, s in enumerate(self.spans) if s[1] == op]
        child_ns: dict[int, int] = defaultdict(int)
        for _, s in own:
            if s[2] >= 0:
                child_ns[s[2]] += s[4] - s[3]
        return [
            (s[0], (s[4] - s[3]) / 1e6, (s[4] - s[3] - child_ns[i]) / 1e6, s[5])
            for i, s in own
        ]

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, start, end, attr) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "op": op, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end, "count": attr},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
