"""Micro-timings of single layers, called from the traced runs.

``dpcore`` is timed at the workload's own sigma and query count, and the
frame and record layers on blocks shaped like the workload's own ticks, so a
layer number describes this workload and not a fixed probe.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from time import perf_counter_ns

from netshaper.dpcore import compose_to_dp, sample_gaussian, sigma_for_budget
from netshaper.tunnel.frames import block_len, build_frames, decode_block, encode_block
from netshaper.tunnel.records import RecordCodec

from common import Checks

MTU = 1400
TICK_SAMPLE = 200


def _median_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def time_dpcore(
    sigma: float, delta_w: float, epsilon: float, delta: float, queries: int, draws: int, seed: int,
    checks: Checks,
) -> dict[str, float]:
    """ns per noise draw at ``sigma``; us per calibration and per composition over ``queries``."""
    rng = random.Random(seed)
    t0 = perf_counter_ns()
    for _ in range(draws):
        sample_gaussian(sigma, rng)
    draw_ns = (perf_counter_ns() - t0) / draws
    budget_sigma = sigma_for_budget(delta_w, epsilon, delta, queries)
    checks.check(
        compose_to_dp(delta_w, budget_sigma, queries, delta).epsilon_total <= epsilon,
        f"sigma_for_budget({queries} queries) exceeds epsilon {epsilon}",
    )
    return {
        "dpcore.sample_gaussian_ns": draw_ns,
        "dpcore.sigma_for_budget_us": _median_us(
            lambda: sigma_for_budget(delta_w, epsilon, delta, queries), 5
        ),
        "dpcore.compose_to_dp_us": _median_us(
            lambda: compose_to_dp(delta_w, sigma, queries, delta), 25
        ),
    }


def time_frames_records(
    ticks: list[tuple[int, list[tuple[int, int]]]], flows_max: int, seed: int, checks: Checks,
    budget_ns: int = 300_000_000,
) -> dict[str, float]:
    """Encode, seal, open and decode blocks at the run's own dp_len distribution.

    ``ticks`` holds (dp_len, [(flow_id, payload bytes), ...]) per tick. Up to
    TICK_SAMPLE ticks, evenly spaced, are rebuilt with seeded bytes and cycled
    until the time budget is spent. AES-GCM at MTU 1400, as in the tunnel.
    """
    rng = random.Random(seed)
    step = max(1, len(ticks) // TICK_SAMPLE)
    sample = []
    for dp_len, flows in ticks[::step][:TICK_SAMPLE]:
        data = [(flow_id, 0, rng.randbytes(n)) for flow_id, n in flows if n > 0]
        dummy = dp_len - sum(n for _, n in flows)
        sample.append((dp_len, build_frames(data, None, dummy)))
    key = hashlib.sha256(b"perfbench/%d" % seed).digest()
    block_bytes = sum(block_len(dp_len, flows_max) for dp_len, _ in sample)
    encode = decode = seal = open_ = 0
    rounds = 0
    while rounds == 0 or encode + decode + seal + open_ < budget_ns:
        tx = RecordCodec(key, MTU, flows_max)
        rx = RecordCodec(key, MTU, flows_max)
        t0 = perf_counter_ns()
        blocks = [encode_block(frames, dp_len, flows_max) for dp_len, frames in sample]
        t1 = perf_counter_ns()
        sealed = [
            tx.seal_tick(k, dp_len, block)
            for k, ((dp_len, _), block) in enumerate(zip(sample, blocks))
        ]
        t2 = perf_counter_ns()
        streams = [memoryview(b"".join(records)) for records in sealed]
        t3 = perf_counter_ns()
        opened = []
        for wire in streams:
            pos = 0

            def recv_exact(n, wire=wire):
                nonlocal pos
                pos += n
                return bytes(wire[pos - n : pos])

            opened.append(rx.read_tick(recv_exact)[2])
        t4 = perf_counter_ns()
        decoded = [decode_block(block) for block in opened]
        t5 = perf_counter_ns()
        encode += t1 - t0
        seal += t2 - t1
        open_ += t4 - t3
        decode += t5 - t4
        if rounds == 0:
            rows = zip(sample, blocks, sealed, opened, decoded)
            for (dp_len, frames), block, records, back, frames_back in rows:
                checks.check(back == block, f"record round trip changed a {dp_len}-byte tick")
                checks.check(frames_back == frames, f"frame round trip changed a {dp_len}-byte tick")
                checks.check(
                    sum(map(len, records)) == tx.wire_bytes_for_tick(dp_len),
                    f"wire bytes of a {dp_len}-byte tick differ from wire_bytes_for_tick",
                )
        rounds += 1
    total = block_bytes * rounds / 1e6
    records_per_tick = statistics.fmean(len(tx.chunk_sizes(dp_len)) for dp_len, _ in ticks)
    return {
        "frames.encode_MBps": total / (encode / 1e9),
        "frames.decode_MBps": total / (decode / 1e9),
        "records.seal_MBps": total / (seal / 1e9),
        "records.open_MBps": total / (open_ / 1e9),
        "records.per_tick": records_per_tick,
    }
