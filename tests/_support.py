"""Shared generators and harnesses for shaping property tests."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from netshaper.dpcore import DpParams, sample_gaussian
from netshaper.shaping import ShapedBuffer, Shaper
from netshaper.traces import PacketRecord, Stream


class ForcedNoise:
    """A scripted noise sequence: a shaper's noise source, or a random.Random to its gauss."""

    def __init__(self, *values):
        self.values = list(values)

    def __call__(self):
        return self.values.pop(0)

    def gauss(self, mu, sigma):
        return self()


@dataclass
class NeighborScenario:
    params: DpParams
    delta_w: int
    a: list[tuple[int, int]]  # (t, len)
    b: list[tuple[int, int]]


def make_neighbor_pair(
    rng: random.Random, params: DpParams, delta_w: int, burst_max: int | None = None
) -> NeighborScenario:
    """Random stream pair whose every window-length L1 difference is <= delta_w.

    Starts from a shared base stream and perturbs it in epochs. All
    modifications of one epoch sit inside a span shorter than the window, so
    any single window sees at most one epoch's total absolute change, and
    epochs are separated by strictly more than a window so no window can see
    two of them. ``burst_max`` caps the base stream's packet sizes (defaults
    to delta_w).
    """
    interval, window = params.interval, params.window
    horizon = window * rng.randint(3, 6)
    base: list[tuple[int, int]] = []
    t = 0
    while t < horizon:
        t += rng.randint(1, interval)
        if t < horizon:
            base.append((t, rng.randint(1, burst_max or delta_w)))

    a = list(base)
    b = list(base)
    epoch_span = max(1, window // 2)
    epoch_start = rng.randint(0, window)
    while epoch_start + epoch_span < horizon:
        budget = rng.choice([delta_w, rng.randint(1, delta_w)])
        while budget > 0:
            amount = rng.randint(1, budget)
            at = epoch_start + rng.randint(0, epoch_span - 1)
            kind = rng.randrange(3)
            if kind == 0:  # packet only in b
                b.append((at, amount))
            elif kind == 1:  # packet only in a
                a.append((at, amount))
            else:  # same time, sizes differing by `amount`
                extra = rng.randint(1, delta_w)
                a.append((at, extra))
                b.append((at, extra + amount))
            budget -= amount
        epoch_start += epoch_span + window + interval + rng.randint(0, window)
    a.sort()
    b.sort()
    return NeighborScenario(params, delta_w, a, b)


def as_stream(points: list[tuple[int, int]], flow_id: int = 1) -> Stream:
    return Stream.from_records(PacketRecord(t, n, flow_id) for t, n in points)


def run_shaper(
    points: list[tuple[int, int]],
    params: DpParams,
    sigma: float,
    seed: int,
    ticks: int | None = None,
) -> tuple[list[ShapedBuffer], Shaper]:
    """Drive one shaping instance over a point stream; one step per boundary."""
    interval, window = params.interval, params.window
    horizon = (max(t for t, _ in points) if points else 0) + window
    ticks = ticks if ticks is not None else horizon // interval + 2
    shaper = Shaper(params, partial(sample_gaussian, sigma, random.Random(seed)))
    arrivals = sorted(points)
    i = 0
    out = []
    for k in range(1, ticks + 1):
        now = k * interval
        while i < len(arrivals) and arrivals[i][0] < now:
            t, n = arrivals[i]
            shaper.enqueue(1, n, t)
            i += 1
        out.append(shaper.shaping_step(now))
    return out, shaper
