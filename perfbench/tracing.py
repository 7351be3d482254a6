"""In-memory spans around the program's layer entry points.

:class:`Tracer` replaces a function where its caller looks the name up
— a module attribute such as ``repro.serve.host.render_screen`` or a
class attribute such as ``Journal.flush`` — with a wrapper that records
one span per call.  The program's source is not touched, and an
untraced process never imports this module's wrappers at all.

A span is ``(id, parent, name, tag, start_ns, end_ns, size)``.  The
parent is the innermost span open on the same thread, so the spans of
one request nest under the span of the call that served it.  Spans are
appended to a list (an atomic operation under the interpreter lock)
and written out once, when the process shuts down.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.metrics.counter import percentile


class Tracer:
    """Span recorder for every function it wraps."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._wrapped: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, tag=None, size=None) -> None:
        """Wrap ``owner.attr``.  *tag(args, result)* labels a span and
        *size(result)* measures its output; both are optional."""
        original = getattr(owner, attr)
        span = self.span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with span(name) as label:
                result = original(*args, **kwargs)
                if tag:
                    label[0] = tag(args, result)
                if size and result is not None:
                    label[1] = size(result)
            return result

        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def unwrap(self) -> None:
        """Put every wrapped function back."""
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, tag: str = ""):
        """A span around a block.  The block may set the yielded
        ``[tag, size]`` list's items, for example once an outcome is
        known."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        label = [tag, 0]
        start = time.perf_counter_ns()
        try:
            yield label
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, label[0], start, end,
                               label[1]))

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as out:
            out.write("id\tparent\tname\ttag\tstart_ns\tend_ns\tsize\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


class Summary:
    """Per-layer figures computed from a list of spans.

    A layer's time is its spans' *self* time: a span's duration minus
    the time its wrapped children took, so a write whose apply flushes
    the journal, which ships to a replica, books each stretch to the
    layer that spent it."""

    def __init__(self, spans: list[tuple]) -> None:
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, _tag, start, end, _size in spans:
            if parent:
                child_ns[parent] += end - start
        self.self_ns: dict[tuple[str, str], list[int]] = defaultdict(list)
        self.sizes: dict[tuple[str, str], list[int]] = defaultdict(list)
        # per root op: total time, and the part no named child covers
        self.root_ns: dict[str, int] = defaultdict(int)
        self.root_self_ns: dict[str, int] = defaultdict(int)
        for sid, parent, name, tag, start, end, size in spans:
            own = end - start - child_ns[sid]
            self.self_ns[name, tag].append(own)
            self.sizes[name, tag].append(size)
            if parent == 0 and name == "mux.handle":
                self.root_ns[tag] += end - start
                self.root_self_ns[tag] += own

    def _pick(self, table, name: str, tags) -> list[int]:
        return [v for (n, t), values in table.items()
                if n == name and (tags is None or t in tags)
                for v in values]

    def count(self, name: str, tags=None) -> int:
        return len(self._pick(self.self_ns, name, tags))

    def p50_ms(self, name: str, tags=None) -> float:
        """The median self time of *name* spans (with a tag in *tags*)."""
        values = self._pick(self.self_ns, name, tags)
        return percentile(values, 0.5) / 1e6 if values else 0.0

    def mean_size(self, name: str, tags=None) -> float:
        values = self._pick(self.sizes, name, tags)
        return sum(values) / len(values) if values else 0.0

    def coverage(self, op: str) -> float:
        """The share of the server's time on *op* RPCs that named
        layer spans account for (1 - the handler's own self time)."""
        total = self.root_ns.get(op, 0)
        if not total:
            return 0.0
        return 1.0 - self.root_self_ns[op] / total
