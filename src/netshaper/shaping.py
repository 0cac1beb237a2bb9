"""One FIFO with a TTL, and the per-interval DP shaping step.

Bytes from every flow wait in one FIFO in arrival order; bytes enqueued at
the same time leave in enqueue order. Each shaping interval runs a fixed
order of effects: expire bytes older than the neighboring window, measure the
total queued length with a noisy query, then dequeue up to the noisy length
from the head as payload and pad the rest with dummy bytes. Emission times
are a function of configuration only, never of queue contents.

Expiry and dequeue only ever remove a prefix of the arrival order, so the
FIFO is arrival-order lists with a cursor, cut by bisection and compacted as
it goes. Next to the FIFO the shaper keeps only a running total. A step's
departures are slices of those lists, not one object per span; the tunnel
totals them per flow and uses ``discard_flow`` to tear a flow down. Each
step's noise is one call of ``noise``: per tick or from a run's up-front list.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial
from itertools import accumulate, compress
from operator import gt, not_
from typing import Callable, NamedTuple, Sequence

from .dpcore import DpParams
from .errors import SchedulingError

COMPACT_MIN = 1024  # spans; the consumed prefix is deleted only past this length


class PayloadSpan(NamedTuple):
    flow_id: int
    length: int
    enqueue_time: int


_span = partial(tuple.__new__, PayloadSpan)  # a PayloadSpan from one (flow, length, time) tuple


class Departures:
    """A step's departed spans as read-only columns: iterate as ``PayloadSpan``s, equal their tuple."""

    __slots__ = ("flows", "lengths", "times")

    def __init__(self, flows: list[int], lengths: list[int], times: list[int]):
        self.flows, self.lengths, self.times = flows, lengths, times

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        return map(_span, zip(self.flows, self.lengths, self.times))

    def __eq__(self, other) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, Departures) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))


_EMPTY = Departures([], [], [])


class _ShapedFields(NamedTuple):  # ShapedBuffer.__new__ holds the defaults and the checks
    interval_index: int
    dp_len: int
    payload: Departures | tuple[PayloadSpan, ...]
    dummy: int
    drops: int
    flushed: Departures | tuple[PayloadSpan, ...]
    queue_len: int
    payload_bytes: int | None


class ShapedBuffer(_ShapedFields):
    """Per-interval output, an immutable tuple: the noisy length split into payload and dummy.

    ``payload`` holds the spans that leave, ``flushed`` those the TTL
    expired this interval (``drops`` bytes in total); the shaper passes both
    as ``Departures``. ``queue_len`` is the exact queued total the noisy query
    measured (after TTL expiry, before dequeue); kept for accounting and
    tests only, it never reaches the wire. ``payload_bytes`` totals the
    spans; the shaper passes it, a buffer built without it sums them once.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, interval_index, dp_len, payload, dummy, drops, flushed=(), queue_len=0,
                payload_bytes=None):
        if payload_bytes is None:
            payload_bytes = sum(s.length for s in payload)
        if payload_bytes + dummy != dp_len:
            raise ValueError("payload + dummy must equal dp_len")
        if dummy < 0:
            raise ValueError("dummy must be >= 0")
        fields = (interval_index, dp_len, payload, dummy, drops, flushed, queue_len, payload_bytes)
        return tuple.__new__(cls, fields)


def dp_query(q_len: int, noise: float, cutoff: float) -> int:
    """The noisy queue length ``q_len + noise``, clamped to [0, cutoff], in whole bytes.

    Rounds half-up; sub-byte precision has no wire meaning.
    """
    noisy = q_len + noise
    return math.floor((noisy if noisy < cutoff else cutoff) + 0.5) if noisy > 0.0 else 0


class Shaper:
    """Single-owner shaping state: one cursor FIFO and its byte total, plus the schedule.

    The FIFO is four parallel lists in arrival order: enqueue time, flow,
    bytes left, and the byte offset just past each span. Times do not
    decrease; a byte enqueued at t survives through exactly t + window.
    ``_head`` is the first span with bytes left, ``_gone`` the offset of the
    first queued byte. After a step that leaves q spans queued, the lists
    hold at most q + max(COMPACT_MIN, q) spans; ``Departures`` are slices of them.

    Exactly one execution context may call shaping_step; producers hand
    bytes in through enqueue or extend (or an external channel drained by
    the owner) before the step runs. ``bytes_dropped`` counts bytes lost to
    the TTL and bytes removed by ``discard_flow``. ``noise()`` draws N(0, sigma^2).
    """

    def __init__(self, params: DpParams, noise: Callable[[], float]):
        self.params = params
        self.noise = noise
        self._times: list[int] = []
        self._flows: list[int] = []
        self._sizes: list[int] = []
        self._ends: list[int] = []
        self._head = self._gone = 0
        self.queued_total = 0
        self.last_interval: int | None = None
        self.bytes_in = 0
        self.bytes_out = 0
        self.bytes_dropped = 0

    def queued(self, flow_id: int) -> int:
        """Bytes of ``flow_id`` waiting in the FIFO."""
        head = self._head
        return sum(n for flow, n in zip(self._flows[head:], self._sizes[head:]) if flow == flow_id)

    def enqueue(self, flow_id: int, n: int, now: int) -> None:
        self.extend([now], [flow_id], [n])

    def extend(self, times: Sequence[int], flows: Sequence[int], sizes: Sequence[int]) -> None:
        """Enqueue one span per (time, flow, size), in order; nothing if any is invalid."""
        if not len(times) == len(flows) == len(sizes):
            raise ValueError("times, flows and sizes must have equal lengths")
        if not sizes:
            return
        if min(sizes) < 1:
            raise ValueError(f"enqueue size must be >= 1, got {min(sizes)}")
        queued = self._head < len(self._times)
        if (queued and times[0] < self._times[-1]) or any(map(gt, times, times[1:])):
            raise ValueError("enqueue times must be non-decreasing")
        base = self._ends[-1] if self._ends else self._gone
        self._ends.extend(accumulate(sizes[1:], initial=base + sizes[0]))
        self._times.extend(times)
        self._flows.extend(flows)
        self._sizes.extend(sizes)
        self.queued_total += self._ends[-1] - base
        self.bytes_in += self._ends[-1] - base

    def discard_flow(self, flow_id: int) -> int:
        """Remove every queued byte of ``flow_id``; return how many there were."""
        head = self._head
        kept = [flow != flow_id for flow in self._flows[head:]]
        n = sum(compress(self._sizes[head:], map(not_, kept)))
        if n:
            columns = (self._times, self._flows, self._sizes)
            self._times, self._flows, self._sizes = (list(compress(c[head:], kept)) for c in columns)
            self._ends = list(accumulate(self._sizes, initial=self._gone))[1:]
            self._head = 0
            self.queued_total -= n
            self.bytes_dropped += n
        return n

    def _cut(self, stop: int) -> Departures:
        """Remove the queued bytes before offset ``stop``; return them as columns."""
        head, gone, ends = self._head, self._gone, self._ends
        last = bisect_left(ends, stop, head)  # the span that holds byte stop - 1
        j = last + 1
        lengths = self._sizes[head:j]
        rest = ends[last] - stop
        if rest:  # the last span leaves in part
            lengths[-1] -= rest
            self._sizes[last] = rest
        self._head = last if rest else j
        self._gone = stop
        self.queued_total -= stop - gone
        return Departures(self._flows[head:j], lengths, self._times[head:j])

    def shaping_step(self, now: int) -> ShapedBuffer:
        """Run one interval: flush expired, query with noise, dequeue, pad.

        ``now`` must be an interval boundary (a multiple of the shaping
        interval) and strictly later than the previous step's boundary.
        """
        interval = self.params.interval
        if now % interval != 0:
            raise SchedulingError(f"step time {now} is not a multiple of the interval {interval}")
        index = now // interval
        if self.last_interval is not None and index <= self.last_interval:
            raise SchedulingError(f"interval {index} already shaped")
        self.last_interval = index

        gone = self._gone
        expired = bisect_left(self._times, now - self.params.window, self._head)
        flushed = self._cut(self._ends[expired - 1]) if expired > self._head else _EMPTY
        drops = self._gone - gone
        self.bytes_dropped += drops

        q_len = self.queued_total
        dp_len = dp_query(q_len, self.noise(), self.params.cutoff)
        taken = dp_len if dp_len < q_len else q_len
        payload = self._cut(self._gone + taken) if taken else _EMPTY
        self.bytes_out += taken

        head = self._head
        if head > COMPACT_MIN and 2 * head > len(self._times):
            for column in (self._times, self._flows, self._sizes, self._ends):
                del column[:head]
            self._head = 0
        return ShapedBuffer(index, dp_len, payload, dp_len - taken, drops, flushed, q_len, taken)
