"""Application traffic streams: ingestion, windowed burst representation, distances.

Timestamps are integer nanoseconds, sizes are integer bytes. A stream is an
ordered sequence of (timestamp, length) packet records; the windowed burst
representation buckets a stream into fixed intervals so two streams can be
compared by the L1 distance between their per-interval byte counts.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ConfigError, TraceParseError

DIRECTIONS = ("in", "out")

CSV_HEADER = ("t_ns", "len_bytes", "flow_id", "dir")


@dataclass(frozen=True)
class PacketRecord:
    """One packet: arrival time (ns), payload length (bytes), flow and direction."""

    t: int
    length: int
    flow_id: int
    direction: str = "out"

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"negative timestamp: {self.t}")
        if self.length < 1:
            raise ValueError(f"packet length must be >= 1, got {self.length}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")


@dataclass(frozen=True)
class Stream:
    """A finite packet stream, sorted by timestamp (ties allowed).

    ``columns``, built on first use, costs 16 B per packet for the stream's life."""

    records: tuple[PacketRecord, ...]

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "Stream":
        """Build a stream, sorting records by timestamp (stable)."""
        return cls(tuple(sorted(records, key=lambda r: r.t)))

    def __post_init__(self):
        ts = [r.t for r in self.records]
        if any(a > b for a, b in zip(ts, ts[1:])):
            raise ValueError("stream records must be sorted by timestamp")

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and lengths as object arrays that hold the records' own ints."""
        n = len(self.records)
        return tuple(np.fromiter(map(attrgetter(f), self.records), object, n) for f in ("t", "length"))

    @property
    def duration(self) -> int:
        """max t - min t; 0 for streams with fewer than two records."""
        if len(self.records) < 2:
            return 0
        return self.records[-1].t - self.records[0].t

    @property
    def total_bytes(self) -> int:
        return sum(r.length for r in self.records)

    def filter_direction(self, direction: str) -> "Stream":
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        return Stream(tuple(r for r in self.records if r.direction == direction))


@dataclass(frozen=True)
class BurstVector:
    """Per-interval byte counts of a stream slice starting at ``origin``."""

    origin: int
    interval: int
    values: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("burst values must be non-negative")


def parse_trace(source: str | os.PathLike | IO) -> Stream:
    """Parse a packet trace into a sorted Stream.

    The only supported format is CSV with header ``t_ns,len_bytes,flow_id,dir``
    (UTF-8, LF). Unknown columns are ignored; rows may appear in any order.
    Raises TraceParseError with the offending line number for malformed or
    invalid rows.
    """
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return _parse_csv(io.StringIO(data))
    with open(source, "r", encoding="utf-8", newline="") as fh:
        return _parse_csv(fh)


def _parse_csv(fh: IO[str]) -> Stream:
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        raise TraceParseError("missing header", 1)
    missing = [c for c in CSV_HEADER if c not in reader.fieldnames]
    if missing:
        raise TraceParseError(f"missing columns: {', '.join(missing)}", 1)
    records = []
    for row in reader:
        line = reader.line_num
        try:
            t = int(row["t_ns"])
            length = int(row["len_bytes"])
            flow_id = int(row["flow_id"]) & 0xFFFFFFFF
            direction = row["dir"].strip()
        except (TypeError, KeyError):
            raise TraceParseError("short row", line) from None
        except ValueError as exc:
            raise TraceParseError(str(exc), line) from None
        if t < 0:
            raise TraceParseError(f"negative timestamp {t}", line)
        if length < 1:
            raise TraceParseError(f"len_bytes must be >= 1, got {length}", line)
        if direction not in DIRECTIONS:
            raise TraceParseError(f"dir must be 'in' or 'out', got {direction!r}", line)
        records.append(PacketRecord(t, length, flow_id, direction))
    return Stream.from_records(records)


def _check_window(window: int, interval: int) -> int:
    if interval <= 0 or window <= 0:
        raise ConfigError("window and interval must be positive")
    if window % interval != 0:
        raise ConfigError(f"window ({window}) must be a multiple of interval ({interval})")
    return window // interval


def windowed_repr(stream: Stream, t_w: int, window: int, interval: int) -> BurstVector:
    """Bucket the stream slice [t_w, t_w+window) into window/interval byte counts.

    Bucket j covers [t_w + j*interval, t_w + (j+1)*interval).
    """
    k = _check_window(window, interval)
    ts, cum = _prefix_sums(stream, t_w, window)
    edges = np.arange(k + 1, dtype=np.int64) * interval
    return BurstVector(t_w, interval, tuple(np.diff(cum[np.searchsorted(ts, edges)]).tolist()))


_BLOCK = 1 << 15  # edges per block in _distance, so memory stays bounded
_INT64_MAX = np.iinfo(np.int64).max
_Arrays = tuple[np.ndarray, np.ndarray]


def _prefix_sums(stream: Stream, base: int, reach: int) -> _Arrays:
    """Timestamps rebased to ``base`` and byte prefix sums, as int64 arrays.

    The bytes before edge e are ``cum[searchsorted(ts, e)]``; callers look up
    edges within ``reach`` of the timestamps, so those must fit in int64 too,
    and so must the byte totals of two streams and their differences.
    """
    recs = stream.records
    span = max(abs(recs[0].t - base), abs(recs[-1].t - base)) + reach if recs else 0
    if span > _INT64_MAX or stream.total_bytes > _INT64_MAX // 2:
        raise ConfigError("timestamp span plus window, or twice the byte total, exceeds 2**63 - 1")
    ts = np.fromiter((r.t - base for r in recs), np.int64, len(recs))
    cum = np.zeros(len(recs) + 1, np.int64)
    np.cumsum(np.fromiter((r.length for r in recs), np.int64, len(recs)), out=cum[1:])
    return ts, cum


def _distance(a: _Arrays, b: _Arrays, k: int, interval: int) -> int:
    (ta, ca), (tb, cb) = a, b
    # Column p holds the edges t_p + m*interval, m in [-k, k], of anchor t_p;
    # sorting the anchors sorts each row, which speeds up searchsorted.
    offsets = np.arange(-k, k + 1, dtype=np.int64)[:, None] * interval
    anchors = np.sort(np.concatenate((ta, tb)), kind="stable")
    step = max(1, _BLOCK // (2 * k + 1))
    best = 0
    for lo in range(0, len(anchors), step):
        edges = offsets + anchors[lo : lo + step]
        gap = ca[np.searchsorted(ta, edges)] - cb[np.searchsorted(tb, edges)]
        # |a - b| per bucket, summed over the k buckets of each candidate start
        # t_p - i*interval, i in [0, k]: width-k sliding sums down each column.
        sums = np.cumsum(np.abs(np.diff(gap, axis=0)), axis=0)
        windows = sums[k - 1 :]
        windows[1:] -= sums[:k]
        best = max(best, int(windows.max()))
    return best


def neighboring_distance(a: Stream, b: Stream, window: int, interval: int) -> int:
    """Worst-case L1 distance between windowed representations of two streams.

    Returns max over candidate window starts t_w of
    ``||a_{t_w,window} - b_{t_w,window}||_1``. Two streams are neighbors under
    a bound d iff the return value is <= d. Window starts are evaluated at the
    discrete candidate set t_p - i*interval, i in [0, k], k = window/interval,
    for every packet timestamp t_p of either stream; this is exact for
    interval-aligned streams and a documented discretization of the
    continuous-time maximum otherwise.

    Every window edge is then some t_p + m*interval, m in [-k, k]. Per anchor
    t_p, binary searches into each stream's byte prefix sums give the 2k
    bucket differences, and width-k sliding sums over them score the k+1
    candidates. This is exact, O(n*k*log n) for n packets, and works in
    blocks of at most 2**15 edges (or one anchor's 2k+1). Timestamps are
    rebased to the earlier stream start; their span plus the window must stay
    below 2**63 ns (about 292 years) and each byte total below 2**62, else
    ConfigError.
    """
    k = _check_window(window, interval)
    base = min((s.records[0].t for s in (a, b) if s.records), default=0)
    return _distance(_prefix_sums(a, base, window), _prefix_sums(b, base, window), k, interval)


@dataclass(frozen=True)
class DistanceTable:
    """Nearest-rank percentiles of pairwise stream distances (bytes)."""

    pairs: int
    p50: int
    p90: int
    p99: int
    max: int


def _nearest_rank(sorted_values: Sequence[int], percentile: float) -> int:
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def pairwise_distance_distribution(streams: Sequence[Stream], window: int, interval: int) -> DistanceTable:
    """Distance percentiles over all unordered stream pairs."""
    if len(streams) < 2:
        raise ConfigError("need at least two streams for a pairwise distribution")
    k = _check_window(window, interval)
    base = min((s.records[0].t for s in streams if s.records), default=0)
    arrays = [_prefix_sums(s, base, window) for s in streams]
    distances = sorted(
        _distance(arrays[i], arrays[j], k, interval)
        for i in range(len(arrays))
        for j in range(i + 1, len(arrays))
    )
    return DistanceTable(
        pairs=len(distances),
        p50=_nearest_rank(distances, 50),
        p90=_nearest_rank(distances, 90),
        p99=_nearest_rank(distances, 99),
        max=distances[-1],
    )
