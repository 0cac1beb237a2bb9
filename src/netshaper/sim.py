"""Trace-driven shaping simulator and overhead metrics.

Replays packet traces through the shaping step at every interval boundary and
reports bandwidth overhead (dummy bytes relative to payload), per-byte latency
(payload only; dummy bytes carry no latency), and TTL drops. Runs are fully
deterministic under a fixed seed. The streams' int64 columns are merged by one
stable sort, the ticks run one ``Shaper.extend`` and one step each, and the waits
come from the ticks' byte offsets into the arrivals, not from the departed spans.
"""

from __future__ import annotations

import dataclasses
import gc
import io
import math
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .dpcore import DpParams, gaussian_draws, gaussian_sigma
from .errors import ConfigError
from .shaping import ShapedBuffer, Shaper
from .traces import _INT64_MAX, Stream

SWEEP_AXES = ("T", "epsilon", "sigma", "flows", "cutoff")

CUTOFF_MODES = ("scaled", "fixed")


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    ``flows`` defaults to the number of input streams and feeds the cutoff
    scaling; ``per_flow_cutoff`` (bytes) replaces params.cutoff either scaled
    by the flow count ("scaled", treats the flow count as public) or as given
    ("fixed"). ``sigma`` overrides the per-query calibration derived from
    params. ``horizon`` (ns, at least 1) extends the run past the last packet;
    required when the input carries no packets at all.
    """

    params: DpParams
    seed: int = 0
    flows: int | None = None
    per_flow_cutoff: float | None = None
    cutoff_mode: str = "scaled"
    sigma: float | None = None
    horizon: int | None = None

    def __post_init__(self):
        if self.flows is not None and self.flows < 1:
            raise ConfigError(f"flow count must be >= 1, got {self.flows}")
        if self.cutoff_mode not in CUTOFF_MODES:
            raise ConfigError(f"cutoff mode must be one of {CUTOFF_MODES}")
        if self.per_flow_cutoff is not None and self.per_flow_cutoff <= 0:
            raise ConfigError("per-flow cutoff must be > 0")
        if self.sigma is not None and self.sigma < 0:
            raise ConfigError("sigma must be >= 0")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1 ns, got {self.horizon}")


@dataclass(frozen=True)
class LatencyStats:
    """Byte-weighted wait-time statistics in nanoseconds."""

    mean: float
    std: float
    p99: float
    max: int


@dataclass(frozen=True)
class SimResult:
    shaped: tuple[ShapedBuffer, ...]
    start: int
    interval: int
    bandwidth_overhead: float | None
    per_flow_overhead: dict[int, float | None]
    dummy_bytes: int
    payload_in: int
    payload_delivered: int
    drops_bytes: int
    drop_fraction: float | None
    latency: LatencyStats | None
    no_payload: bool
    sigma: float
    cutoff: float
    seed: int

    def summary(self) -> dict:
        return {
            "intervals": len(self.shaped),
            "start_ns": self.start,
            "interval_ns": self.interval,
            "bandwidth_overhead": self.bandwidth_overhead,
            "per_flow_overhead": {str(k): v for k, v in sorted(self.per_flow_overhead.items())},
            "dummy_bytes": self.dummy_bytes,
            "payload_in_bytes": self.payload_in,
            "payload_delivered_bytes": self.payload_delivered,
            "drops_bytes": self.drops_bytes,
            "drop_fraction": self.drop_fraction,
            "latency_ns": None if self.latency is None else dataclasses.asdict(self.latency),
            "no_payload": self.no_payload,
            "sigma": self.sigma,
            "cutoff": None if math.isinf(self.cutoff) else self.cutoff,
            "seed": self.seed,
        }


def effective_cutoff(cfg: SimConfig, flows: int) -> float:
    if cfg.per_flow_cutoff is None:
        return cfg.params.cutoff
    if cfg.cutoff_mode == "scaled":
        return cfg.per_flow_cutoff * flows
    return cfg.per_flow_cutoff


def _latency_stats(lengths: np.ndarray, waits: np.ndarray) -> LatencyStats:
    total = lengths.sum()
    mean = float((lengths * waits).sum() / total)
    var = float((lengths * (waits - mean) ** 2).sum() / total)
    order = np.argsort(waits)  # tied waits share one value, so their order cannot move the p99
    cumulative = np.cumsum(lengths[order])
    p99_idx = int(np.searchsorted(cumulative, 0.99 * total))
    p99 = float(waits[order][min(p99_idx, len(waits) - 1)])
    return LatencyStats(mean, math.sqrt(var), p99, int(waits.max()))


def simulate(streams: Sequence[Stream], cfg: SimConfig) -> SimResult:
    """Drive the shaping step over the merged streams and collect metrics.

    Stream i feeds flow i. Bytes arriving during an interval become eligible
    at the next boundary; the clock starts at the earliest packet timestamp
    rounded down to a boundary and runs one full window past the last packet
    so every byte is delivered or dropped. Its noise is one up-front ``gaussian_draws``
    call: per-tick ``sample_gaussian`` draws on ``random.Random(cfg.seed)``, bit for bit.

    The run makes no reference cycles, but its per-tick lists and buffers would
    make the cyclic collector walk all the caller holds again and again. So the
    call pauses it, process-wide, then runs the young pass it put off (if the
    caller had it on) and restores the caller's setting, also on a raise.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _simulate(streams, cfg)
    finally:
        if enabled:
            gc.collect(0)  # charged to this call, not to the caller's next allocation
            gc.enable()


def _simulate(streams: Sequence[Stream], cfg: SimConfig) -> SimResult:
    if not streams:
        raise ConfigError("need at least one stream")
    flows = cfg.flows if cfg.flows is not None else len(streams)
    if flows < len(streams):
        raise ConfigError(f"declared flow count {flows} below stream count {len(streams)}")
    params = dataclasses.replace(cfg.params, cutoff=effective_cutoff(cfg, flows))
    sigma = cfg.sigma if cfg.sigma is not None else gaussian_sigma(
        params.delta_w, params.epsilon_t, params.delta_t
    )
    interval = params.interval
    payload_in, sorted_times, sorted_sizes, times, flows_in, sizes = _merge_arrivals(streams)
    if not times and cfg.horizon is None:
        raise ConfigError("streams carry no packets; set an explicit horizon")
    start = (times[0] // interval) * interval if times else 0
    end = max(times[-1] + params.window if times else start, start + (cfg.horizon or 0))
    ticks = (end - start + interval - 1) // interval + 1
    in_total = sum(payload_in.values())
    if start + interval * ticks > _INT64_MAX or in_total > _INT64_MAX:
        raise ConfigError("the last tick's time, or the streams' byte total, exceeds 2**63 - 1")
    nows = start + interval * np.arange(1, ticks + 1)  # the ticks' boundaries
    shaper = Shaper(params, iter(gaussian_draws(sigma, random.Random(cfg.seed), ticks)).__next__)
    shaped = _run_ticks(shaper, nows, sorted_times, times, flows_in, sizes)
    lat_lengths, lat_waits, drops = _waits(shaped, nows, sorted_times, sorted_sizes)

    dummy_total = sum(map(attrgetter("dummy"), shaped))
    drops_total = int(drops.sum())
    per_flow = {flow: (dummy_total / flows) / n if n else None for flow, n in payload_in.items()}
    latency = _latency_stats(lat_lengths, lat_waits) if len(lat_lengths) else None
    return SimResult(
        shaped=tuple(shaped),
        start=start,
        interval=interval,
        bandwidth_overhead=dummy_total / in_total if in_total else None,
        per_flow_overhead=per_flow,
        dummy_bytes=dummy_total,
        payload_in=in_total,
        payload_delivered=shaper.bytes_out,
        drops_bytes=drops_total,
        drop_fraction=drops_total / in_total if in_total else None,
        latency=latency,
        no_payload=in_total == 0,
        sigma=sigma,
        cutoff=params.cutoff,
        seed=cfg.seed,
    )


def _merge_arrivals(streams: Sequence[Stream]) -> tuple:
    """Each flow's byte total, then times and lengths as int64 arrays and times, flows
    and lengths as lists, all in time order, ties in stream order."""
    times = np.concatenate([s.times for s in streams])
    sizes = np.concatenate([s.lengths for s in streams])
    flows = np.repeat(np.arange(len(streams)), [len(s) for s in streams])
    order = np.argsort(times, kind="stable")
    times, sizes, flows = times[order], sizes[order], flows[order]
    totals = {flow: s.total_bytes for flow, s in enumerate(streams)}
    # New ints, which the results' departures hold: 27 MB per result on sim-web-256, yet with
    # int64 columns in place of records (149 B a packet) its peak RSS fell, 197 -> 177 MB.
    return totals, times, sizes, times.tolist(), flows.tolist(), sizes.tolist()


def _run_ticks(shaper: Shaper, nows: np.ndarray, times64: np.ndarray, times, flows, sizes) -> list:
    """Shape at each boundary in ``nows`` once the arrivals before it are in."""
    shaped: list[ShapedBuffer] = []
    fed = 0
    for cut, now in zip(np.searchsorted(times64, nows).tolist(), nows.tolist()):
        if cut > fed:
            shaper.extend(times[fed:cut], flows[fed:cut], sizes[fed:cut])
            fed = cut
        shaped.append(shaper.shaping_step(now))
    return shaped


def _waits(shaped, nows: np.ndarray, times: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each departed span's length and wait, in departure order, and each tick's drops: tick j's
    payload is the arrival bytes [ends_j - taken_j, ends_j), ends = cumsum(drops + taken), split
    at packet boundaries, because the TTL and the dequeue both cut the FIFO's head."""
    drops = np.fromiter(map(attrgetter("drops"), shaped), np.int64, len(nows))
    taken = np.fromiter(map(attrgetter("payload_bytes"), shaped), np.int64, len(nows))
    cum = np.concatenate(([0], np.cumsum(sizes)))  # cum[i]: the arrival bytes before packet i
    ends = np.cumsum(drops + taken)
    starts = ends - taken
    first = np.searchsorted(cum, starts, "right") - 1  # the packet of each tick's first byte
    counts = np.where(taken > 0, np.searchsorted(cum, ends) - first, 0)
    tick = np.repeat(np.arange(len(nows)), counts)
    spans = np.arange(len(tick)) + (first - np.cumsum(counts) + counts)[tick]
    lengths = np.minimum(cum[spans + 1], ends[tick]) - np.maximum(cum[spans], starts[tick])
    return lengths, nows[tick] - times[spans], drops


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    result: SimResult


def _row_config(cfg: SimConfig, axis: str, value: float, row: int) -> tuple[SimConfig, int]:
    seed = cfg.seed * 1_000_003 + row
    if axis == "T":
        params = dataclasses.replace(cfg.params, interval=int(value))
        return dataclasses.replace(cfg, params=params, seed=seed), 0
    if axis == "epsilon":
        params = dataclasses.replace(cfg.params, epsilon_t=float(value))
        return dataclasses.replace(cfg, params=params, seed=seed), 0
    if axis == "sigma":
        return dataclasses.replace(cfg, sigma=float(value), seed=seed), 0
    if axis == "cutoff":
        return dataclasses.replace(cfg, per_flow_cutoff=float(value), seed=seed), 0
    return dataclasses.replace(cfg, flows=None, seed=seed), int(value)  # "flows"


def overhead_sweep(
    streams: Sequence[Stream], cfg: SimConfig, axis: str, values: Sequence[float]
) -> list[SweepRow]:
    """One simulation per value of the swept parameter.

    The "flows" axis reuses the given streams cyclically to reach the
    requested flow count; other axes keep the stream set fixed. Each row owns
    its generator, seeded from (base seed, row index).
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = []
    for i, value in enumerate(values):
        row_cfg, flow_count = _row_config(cfg, axis, value, i)
        row_streams = list(streams)
        if axis == "flows":
            if flow_count < 1:
                raise ConfigError(f"flow count must be >= 1, got {flow_count}")
            row_streams = [streams[i % len(streams)] for i in range(flow_count)]
        rows.append(SweepRow(axis, float(value), simulate(row_streams, row_cfg)))
    return rows


def intervals_to_csv(result: SimResult) -> str:
    """Per-interval rows: k,dp_len,payload,dummy,drops."""
    out = io.StringIO()
    out.write("k,dp_len,payload,dummy,drops\n")
    for buf in result.shaped:
        out.write(
            f"{buf.interval_index},{buf.dp_len},{buf.payload_bytes},{buf.dummy},{buf.drops}\n"
        )
    return out.getvalue()


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    """One summary row per swept value."""
    out = io.StringIO()
    out.write(
        "axis,value,bandwidth_overhead,dummy_bytes,payload_in_bytes,"
        "drops_bytes,latency_mean_ns,latency_p99_ns\n"
    )
    for row in rows:
        r = row.result
        overhead = "" if r.bandwidth_overhead is None else repr(r.bandwidth_overhead)
        mean = "" if r.latency is None else repr(r.latency.mean)
        p99 = "" if r.latency is None else repr(r.latency.p99)
        out.write(
            f"{row.axis},{row.value!r},{overhead},{r.dummy_bytes},{r.payload_in},"
            f"{r.drops_bytes},{mean},{p99}\n"
        )
    return out.getvalue()
