"""In-memory spans for the traced run, written out when the run ends.

A span has a name, a start and end (``perf_counter_ns``), the span that
caused it, a busy time and a call count. Most spans are one call, so busy is
end minus start. A batch span stands for many short calls in a row, such as
the per-packet ``Shaper.enqueue`` calls between two shaping steps: its busy
time is the sum of the calls, not the interval they cover.

Self time is a span's duration minus the busy time of its child spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent_index, busy_ns, count)
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self._stack: list[int] = []

    @property
    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def add(self, name: str, start: int, end: int, busy: int | None = None, count: int = 1) -> int:
        """Record a finished span under the current span; return its index."""
        self.spans.append((name, start, end, self.current, end - start if busy is None else busy, count))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        index = self.add(name, perf_counter_ns(), 0)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent, _, count = self.spans[index]
            end = perf_counter_ns()
            self.spans[index] = (name_, start, end, parent, end - start, count)

    def named(self, name: str) -> list[tuple[str, int, int, int, int, int]]:
        return [s for s in self.spans if s[0] == name]

    def busy_s(self, name: str) -> float:
        return sum(s[4] for s in self.spans if s[0] == name) / 1e9

    def self_s(self, index: int) -> float:
        """Duration of span ``index`` minus the busy time of its direct children."""
        _, start, end, _, _, _ = self.spans[index]
        children = sum(s[4] for s in self.spans if s[3] == index)
        return (end - start - children) / 1e9

    def children_nested(self, index: int) -> bool:
        """Children lie inside the parent, in order, without overlapping each other."""
        _, start, end, _, _, _ = self.spans[index]
        last = start
        for s in self.spans:
            if s[3] != index:
                continue
            if s[1] < last or s[2] > end or s[4] > s[2] - s[1]:
                return False
            last = s[2]
        return True

    def as_json(self) -> dict:
        """Span names, then one row of [name index, start, end, parent, busy, count] per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent", "busy_ns", "count"],
            "spans": [[index[s[0]], *s[1:]] for s in self.spans],
        }
