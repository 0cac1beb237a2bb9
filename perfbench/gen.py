"""Seeded synthetic traffic for the benchmark workloads.

The NetShaper evaluation shapes two kinds of traffic: web page loads and
video streaming. Real captures are not in the repository, so every workload
is built from these two generators and the run's seed. The same seed always
gives the same packets.

- Web: a session of page loads. Each load fetches an HTML object, then after
  one round trip a burst of embedded objects, each sent back to back at the
  page's download rate. Think time between loads is exponential.
- Video: fixed-length segments fetched one per segment period, each as one
  burst at the download rate. Segment sizes follow the bitrate with a
  per-segment complexity factor of about 10 %.
"""

from __future__ import annotations

import csv
import os
import random

from netshaper.traces import CSV_HEADER, PacketRecord, Stream

MS = 1_000_000
S = 1_000_000_000
MSS = 1448


def _burst(rng: random.Random, t: int, size: int, rate_bps: float, out: list, limit: int | None) -> int:
    """Append one object's packets sent back to back from t; return its end time.

    Packets stop once ``out`` holds ``limit`` of them.
    """
    gap = MSS / rate_bps * S
    n = 0
    while size > 0 and (limit is None or len(out) < limit):
        length = min(MSS, size)
        # small jitter so packets of parallel flows do not align on one ns grid
        out.append((t + int(n * gap) + rng.randrange(1000), length))
        size -= length
        n += 1
    return t + int(n * gap)


def web_page_load(rng: random.Random, t: int, out: list, limit: int | None = None) -> int:
    """One page load from t: HTML, one round trip, embedded objects; returns end time.

    Packets stop once ``out`` holds ``limit`` of them.
    """
    rate = rng.uniform(2e6, 8e6)  # bytes/s for this page
    rtt = rng.randint(20, 80) * MS
    t = _burst(rng, t, int(rng.lognormvariate(10.3, 0.6)), rate, out, limit) + rtt
    for _ in range(rng.randint(5, 24)):
        size = min(int(rng.lognormvariate(9.4, 1.3)) + 200, 2_000_000)
        t = _burst(rng, t, size, rate, out, limit) + rng.randint(1, rtt // MS) * MS // 4
    return t


def web_session(rng: random.Random, horizon: int) -> list[tuple[int, int]]:
    """(t_ns, len) packets of page loads separated by think time, up to horizon."""
    out: list[tuple[int, int]] = []
    t = rng.randint(0, 2 * S)
    while t < horizon:
        t = web_page_load(rng, t, out)
        t += int(rng.expovariate(1 / 6.0) * S)
    return [p for p in out if p[0] < horizon]


def video_session(
    rng: random.Random, duration: int, segment: int = 2 * S, bitrate_bps: float = 2.3e6
) -> list[tuple[int, int]]:
    """(t_ns, len) packets of one video flow: one burst per segment period."""
    out: list[tuple[int, int]] = []
    for k in range(duration // segment):
        size = int(bitrate_bps / 8 * segment / S * rng.lognormvariate(0.0, 0.1))
        start = k * segment + rng.randint(0, 50) * MS
        _burst(rng, start, size, rng.uniform(15e6, 25e6), out, None)
    return out


def to_stream(points: list[tuple[int, int]], flow_id: int) -> Stream:
    return Stream.from_records(PacketRecord(t, n, flow_id) for t, n in points)


def web_streams(seed: int, flows: int, horizon: int) -> list[Stream]:
    """One web session per flow; flow i's generator is seeded from (seed, i)."""
    return [
        to_stream(web_session(random.Random(f"web/{seed}/{i}"), horizon), i + 1)
        for i in range(flows)
    ]


def video_streams(seed: int, duration: int) -> list[Stream]:
    return [to_stream(video_session(random.Random(f"video/{seed}"), duration), 1)]


def corpus_points(seed: int, traces: int, packets: int) -> list[list[tuple[int, int]]]:
    """``traces`` page loads, each cut off after ``packets`` packets.

    A load with fewer packets is followed at once by another. Every trace
    then fits in one burst of about the same length, so neither building nor
    comparing the traces costs more for one seed than for another; only their
    content varies.
    """
    corpus = []
    for i in range(traces):
        rng = random.Random(f"corpus/{seed}/{i}")
        out: list[tuple[int, int]] = []
        t = 0
        while len(out) < packets:
            t = web_page_load(rng, t, out, packets)
        corpus.append(out)
    return corpus


def write_trace_csv(path: str | os.PathLike, points: list[tuple[int, int]], flow_id: int) -> None:
    """Write points in the library's trace format (``t_ns,len_bytes,flow_id,dir``)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows((t, n, flow_id, "out") for t, n in points)
