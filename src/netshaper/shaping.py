"""One FIFO with a TTL, and the per-interval DP shaping step.

Bytes from every flow wait in one FIFO in arrival order; bytes enqueued at
the same time leave in enqueue order. Each shaping interval runs a fixed
order of effects: expire bytes older than the neighboring window, measure the
total queued length with a noisy query, then dequeue up to the noisy length
from the head as payload and pad the rest with dummy bytes. Emission times
are a function of configuration only, never of queue contents.

Next to the FIFO the shaper keeps a running total and one byte counter per
flow. The tunnel reads the counters for its per-flow cap and uses
``discard_flow`` to tear a flow down.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .dpcore import DpParams, sample_gaussian
from .errors import SchedulingError


class PayloadSpan(NamedTuple):
    flow_id: int
    length: int
    enqueue_time: int


@dataclass(frozen=True)
class ShapedBuffer:
    """Per-interval output: the noisy length split into payload and dummy.

    ``flushed`` holds the spans the TTL expired this interval (``drops``
    bytes in total). ``queue_len`` is the exact queued total the noisy query
    measured (after TTL expiry, before dequeue); kept for accounting and
    tests only, it never reaches the wire. ``payload_bytes`` totals the
    spans; the shaper passes it, a buffer built without it sums them once.
    """

    interval_index: int
    dp_len: int
    payload: tuple[PayloadSpan, ...]
    dummy: int
    drops: int
    flushed: tuple[PayloadSpan, ...] = ()
    queue_len: int = 0
    payload_bytes: int | None = None

    def __post_init__(self):
        if self.payload_bytes is None:
            object.__setattr__(self, "payload_bytes", sum(s.length for s in self.payload))
        if self.payload_bytes + self.dummy != self.dp_len:
            raise ValueError("payload + dummy must equal dp_len")
        if self.dummy < 0:
            raise ValueError("dummy must be >= 0")


def dp_query(q_len: int, params: DpParams, sigma: float, rng: random.Random) -> int:
    """Noisy measurement of the queue length, clamped to [0, cutoff], whole bytes.

    Rounds half-up; sub-byte precision has no wire meaning.
    """
    noisy = q_len + sample_gaussian(sigma, rng)
    clamped = min(max(noisy, 0.0), params.cutoff)
    return int(math.floor(clamped + 0.5))


class Shaper:
    """Single-owner shaping state: one FIFO with per-flow counters, plus the schedule.

    The FIFO holds immutable ``(enqueue_time, flow_id, remaining)`` tuples
    with non-decreasing enqueue times; a byte enqueued at t survives through
    exactly t + window. Exactly one execution context may call shaping_step;
    producers hand bytes in through enqueue (or an external channel drained
    by the owner) before the step runs. ``bytes_dropped`` counts bytes lost
    to the TTL and bytes removed by ``discard_flow``.
    """

    def __init__(self, params: DpParams, sigma: float, rng: random.Random):
        self.params = params
        self.sigma = sigma
        self.rng = rng
        self._fifo: deque[tuple[int, int, int]] = deque()
        self._flow_bytes: dict[int, int] = {}
        self.queued_total = 0
        self.last_interval: int | None = None
        self.bytes_in = 0
        self.bytes_out = 0
        self.bytes_dropped = 0

    def queued(self, flow_id: int) -> int:
        """Bytes of ``flow_id`` waiting in the FIFO."""
        return self._flow_bytes.get(flow_id, 0)

    def enqueue(self, flow_id: int, n: int, now: int) -> None:
        if n < 1:
            raise ValueError(f"enqueue size must be >= 1, got {n}")
        fifo = self._fifo
        if fifo and now < fifo[-1][0]:
            raise ValueError("enqueue times must be non-decreasing")
        fifo.append((now, flow_id, n))
        self._flow_bytes[flow_id] = self._flow_bytes.get(flow_id, 0) + n
        self.queued_total += n
        self.bytes_in += n

    def discard_flow(self, flow_id: int) -> int:
        """Remove every queued byte of ``flow_id``; return how many there were."""
        n = self._flow_bytes.pop(flow_id, 0)
        if n:
            self._fifo = deque(span for span in self._fifo if span[1] != flow_id)
            self.queued_total -= n
            self.bytes_dropped += n
        return n

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

        fifo = self._fifo
        flow_bytes = self._flow_bytes
        deadline = now - self.params.window
        flushed = []
        drops = 0
        while fifo and fifo[0][0] < deadline:
            t, flow, n = fifo.popleft()
            flow_bytes[flow] -= n
            drops += n
            flushed.append(PayloadSpan(flow, n, t))
        self.queued_total -= drops
        self.bytes_dropped += drops

        q_len = self.queued_total
        dp_len = dp_query(q_len, self.params, self.sigma, self.rng)
        payload = []
        budget = dp_len
        while budget and fifo:
            t, flow, n = fifo[0]
            if n <= budget:
                fifo.popleft()
            else:
                fifo[0] = (t, flow, n - budget)
                n = budget
            flow_bytes[flow] -= n
            budget -= n
            payload.append(PayloadSpan(flow, n, t))
        taken = dp_len - budget
        self.queued_total -= taken
        self.bytes_out += taken
        return ShapedBuffer(
            index, dp_len, tuple(payload), budget, drops, tuple(flushed), q_len, taken
        )
