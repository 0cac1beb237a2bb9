"""Trace-driven shaping simulator and overhead metrics.

Replays packet traces through the shaping step at every interval boundary and
reports bandwidth overhead (dummy bytes relative to payload), per-byte latency
(payload only; dummy bytes carry no latency), and TTL drops. Runs are fully
deterministic under a fixed seed.
"""

from __future__ import annotations

import dataclasses
import gc
import io
import math
import random
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .dpcore import DpParams, gaussian_draws, gaussian_sigma
from .errors import ConfigError
from .shaping import ShapedBuffer, Shaper
from .traces import Stream

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
            "latency_ns": None
            if self.latency is None
            else {
                "mean": self.latency.mean,
                "std": self.latency.std,
                "p99": self.latency.p99,
                "max": self.latency.max,
            },
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
    order = np.argsort(waits, kind="stable")
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

    # Arrivals as plain lists of the records' own ints: new ints would raise peak RSS.
    lengths = [[r.length for r in s.records] for s in streams]
    payload_in = dict(enumerate(map(sum, lengths)))
    sizes = list(chain.from_iterable(lengths))
    times = [r.t for s in streams for r in s.records]
    arrival_flows = [flow for flow, column in enumerate(lengths) for _ in column]
    sorted_times = np.asarray(times, dtype=np.int64)
    if len(streams) > 1:  # each stream is sorted already; ties keep stream order
        order = np.argsort(sorted_times, kind="stable")
        sorted_times, order = sorted_times[order], order.tolist()
        times, sizes, arrival_flows = (
            [column[i] for i in order] for column in (times, sizes, arrival_flows)
        )
        del order  # one new int per packet, not needed in the tick loop
    if not times and cfg.horizon is None:
        raise ConfigError("streams carry no packets; set an explicit horizon")
    start = (times[0] // interval) * interval if times else 0
    end = max(times[-1] + params.window if times else start, start + (cfg.horizon or 0))
    ticks = (end - start + interval - 1) // interval + 1
    # cuts[j - 1]: the arrivals before tick j's boundary
    cuts = np.searchsorted(sorted_times, start + interval * np.arange(1, ticks + 1)).tolist()

    shaper = Shaper(params, iter(gaussian_draws(sigma, random.Random(cfg.seed), ticks)).__next__)
    shaped: list[ShapedBuffer] = []
    fed = 0
    for j, cut in enumerate(cuts, 1):
        if cut > fed:
            shaper.extend(times[fed:cut], arrival_flows[fed:cut], sizes[fed:cut])
            fed = cut
        shaped.append(shaper.shaping_step(start + j * interval))
    # Byte-weighted waits, span by span in departure order, from the payload columns.
    payloads = list(map(attrgetter("payload"), shaped))
    departed_lengths = list(map(attrgetter("lengths"), payloads))
    counts = np.fromiter(map(len, departed_lengths), np.int64, ticks)
    spans = int(counts.sum())
    lat_lengths = np.fromiter(chain.from_iterable(departed_lengths), np.int64, spans)
    departed = np.repeat(start + interval * np.arange(1, ticks + 1, dtype=np.int64), counts)
    lat_times = chain.from_iterable(map(attrgetter("times"), payloads))
    lat_waits = departed - np.fromiter(lat_times, np.int64, spans)

    dummy_total = sum(map(attrgetter("dummy"), shaped))
    in_total = sum(payload_in.values())
    drops_total = sum(map(attrgetter("drops"), shaped))
    per_flow = {flow: (dummy_total / flows) / n if n else None for flow, n in payload_in.items()}
    latency = _latency_stats(lat_lengths, lat_waits) if spans else None
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
