"""Buffering queue with TTL and the per-interval DP shaping step.

Each shaping interval runs a fixed order of effects: expire bytes older than
the neighboring window, measure the total queued length with a noisy query,
then dequeue up to the noisy length as payload and pad the rest with dummy
bytes. Emission times are a function of configuration only, never of queue
contents.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

from .dpcore import DpParams, sample_gaussian
from .errors import ConfigError, QueueFull, SchedulingError


class PayloadSpan(NamedTuple):
    flow_id: int
    length: int
    enqueue_time: int


class DroppedSpan(NamedTuple):
    flow_id: int
    length: int
    enqueue_time: int


class _Span:
    __slots__ = ("enqueue_time", "remaining", "flow_id")

    def __init__(self, enqueue_time: int, remaining: int, flow_id: int):
        self.enqueue_time = enqueue_time
        self.remaining = remaining
        self.flow_id = flow_id


class BufferingQueue:
    """FIFO of timestamped byte spans with TTL semantics.

    Spans are ordered by enqueue time; ``flush_expired(now, window)`` removes
    every byte enqueued before ``now - window`` (a byte enqueued at t survives
    through exactly t + window). An optional capacity turns enqueue overflow
    into a QueueFull backpressure signal.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._spans: deque[_Span] = deque()
        self._total = 0

    @property
    def size(self) -> int:
        """Total queued bytes."""
        return self._total

    def __len__(self) -> int:
        return len(self._spans)

    def enqueue(self, flow_id: int, n: int, now: int) -> None:
        if n < 1:
            raise ValueError(f"enqueue size must be >= 1, got {n}")
        if self._spans and now < self._spans[-1].enqueue_time:
            raise ValueError("enqueue times must be non-decreasing")
        if self.capacity is not None and self._total + n > self.capacity:
            raise QueueFull(f"queue at {self._total}/{self.capacity} bytes cannot take {n}")
        self._spans.append(_Span(now, n, flow_id))
        self._total += n

    def flush_expired(self, now: int, window: int) -> list[DroppedSpan]:
        """Drop every byte with enqueue_time < now - window; return dropped spans."""
        deadline = now - window
        dropped: list[DroppedSpan] = []
        while self._spans and self._spans[0].enqueue_time < deadline:
            span = self._spans.popleft()
            dropped.append(DroppedSpan(span.flow_id, span.remaining, span.enqueue_time))
            self._total -= span.remaining
        return dropped

    def peek_oldest(self) -> int | None:
        """Enqueue time of the head span, or None when empty."""
        return self._spans[0].enqueue_time if self._spans else None

    def dequeue(self, n: int) -> list[PayloadSpan]:
        """Take up to n bytes from the head, splitting the last span if needed."""
        taken: list[PayloadSpan] = []
        need = n
        while need > 0 and self._spans:
            head = self._spans[0]
            take = min(need, head.remaining)
            taken.append(PayloadSpan(head.flow_id, take, head.enqueue_time))
            head.remaining -= take
            self._total -= take
            need -= take
            if head.remaining == 0:
                self._spans.popleft()
        return taken


@dataclass(frozen=True)
class ShapedBuffer:
    """Per-interval output: the noisy length split into payload and dummy.

    ``queue_len`` is the exact queued total the noisy query measured (after
    TTL expiry, before dequeue); kept for accounting and tests only, it never
    reaches the wire.
    """

    interval_index: int
    dp_len: int
    payload: tuple[PayloadSpan, ...]
    dummy: int
    drops: int
    flushed: tuple[DroppedSpan, ...] = ()
    queue_len: int = 0

    def __post_init__(self):
        if self.payload_bytes + self.dummy != self.dp_len:
            raise ValueError("payload + dummy must equal dp_len")
        if self.dummy < 0:
            raise ValueError("dummy must be >= 0")

    @property
    def payload_bytes(self) -> int:
        return sum(s.length for s in self.payload)


def dp_query(q_len: int, params: DpParams, sigma: float, rng: random.Random) -> int:
    """Noisy measurement of the queue length, clamped to [0, cutoff], whole bytes.

    Rounds half-up; sub-byte precision has no wire meaning.
    """
    noisy = q_len + sample_gaussian(sigma, rng)
    clamped = min(max(noisy, 0.0), params.cutoff)
    return int(math.floor(clamped + 0.5))


DequeuePolicy = Callable[[Mapping[int, BufferingQueue], int], list[PayloadSpan]]


def oldest_first(queues: Mapping[int, BufferingQueue], budget: int) -> list[PayloadSpan]:
    """Dequeue up to ``budget`` bytes, draining one flow at a time.

    Picks the flow whose head span is oldest (ties break towards the lowest
    flow id, so the order is deterministic) and dequeues from it up to the
    whole remaining budget; only when that flow runs dry does it pick again.
    This is not globally oldest-first: a flow's later spans can leave ahead
    of older spans queued in another flow, so it does not minimise TTL drops
    either. Within each flow, spans leave in enqueue order.
    """
    taken: list[PayloadSpan] = []
    while budget > 0:
        oldest_key = None
        oldest_time = None
        for key in sorted(queues):
            head = queues[key].peek_oldest()
            if head is None:
                continue
            if oldest_time is None or head < oldest_time:
                oldest_key = key
                oldest_time = head
        if oldest_key is None:
            break
        for span in queues[oldest_key].dequeue(budget):
            taken.append(span)
            budget -= span.length
    return taken


def prepare_shaped_buffer(
    queues: Mapping[int, BufferingQueue],
    dp_len: int,
    interval_index: int = 0,
    policy: DequeuePolicy = oldest_first,
) -> ShapedBuffer:
    """Fill a shaped buffer of exactly dp_len bytes: payload first, dummy after."""
    if dp_len < 0:
        raise ValueError(f"dp_len must be >= 0, got {dp_len}")
    payload = policy(queues, dp_len)
    taken = sum(s.length for s in payload)
    if taken > dp_len:
        raise ValueError("dequeue policy exceeded the shaped length")
    return ShapedBuffer(interval_index, dp_len, tuple(payload), dp_len - taken, 0)


class Shaper:
    """Single-owner shaping state: per-flow queues plus the interval schedule.

    Exactly one execution context may call shaping_step; producers hand bytes
    in through enqueue (or an external channel drained by the owner) before
    the step runs.
    """

    def __init__(
        self,
        params: DpParams,
        sigma: float,
        rng: random.Random,
        queue_capacity: int | None = None,
        policy: DequeuePolicy = oldest_first,
    ):
        self.params = params
        self.sigma = sigma
        self.rng = rng
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.queues: dict[int, BufferingQueue] = {}
        self.last_interval: int | None = None
        self.bytes_in = 0
        self.bytes_out = 0
        self.bytes_dropped = 0

    def queue_for(self, flow_id: int) -> BufferingQueue:
        queue = self.queues.get(flow_id)
        if queue is None:
            queue = BufferingQueue(self.queue_capacity)
            self.queues[flow_id] = queue
        return queue

    def enqueue(self, flow_id: int, n: int, now: int) -> None:
        self.queue_for(flow_id).enqueue(flow_id, n, now)
        self.bytes_in += n

    @property
    def queued_total(self) -> int:
        return sum(q.size for q in list(self.queues.values()))

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

        flushed: list[DroppedSpan] = []
        for queue in list(self.queues.values()):
            flushed.extend(queue.flush_expired(now, self.params.window))
        drops = sum(s.length for s in flushed)
        self.bytes_dropped += drops

        q_len = self.queued_total
        dp_len = dp_query(q_len, self.params, self.sigma, self.rng)
        buf = prepare_shaped_buffer(self.queues, dp_len, index, self.policy)
        self.bytes_out += buf.payload_bytes
        return ShapedBuffer(index, dp_len, buf.payload, buf.dummy, drops, tuple(flushed), q_len)
