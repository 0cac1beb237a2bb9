"""Offline workloads: the trace simulator and the corpus calibration pipeline."""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
from time import perf_counter, perf_counter_ns

import numpy as np

import netshaper.sim as sim_module
from netshaper.dpcore import DpParams, compose_to_dp, sigma_for_budget
from netshaper.shaping import Shaper
from netshaper.sim import SimConfig, intervals_to_csv, simulate
from netshaper.traces import Stream, neighboring_distance, pairwise_distance_distribution, parse_trace

import gen
from common import Checks, Outcome, nearest_rank, peak_rss_mb, setup_done, tail_percentile
from layers import time_dpcore, time_frames_records
from spans import Tracer

MS = 1_000_000

# Both simulator workloads use the same DP parameters (T = 10 ms, W = 100 ms).
SIM_PARAMS = DpParams(epsilon_t=1.0, delta_t=1e-6, delta_w=25_000, interval=10 * MS, window=100 * MS)
SIM_PER_FLOW_CUTOFF = 200_000

CORPUS_WINDOW = 500 * MS
CORPUS_INTERVAL = 100 * MS
CORPUS_EPSILON = 1.0
CORPUS_DELTA = 1e-6
QUERY_GRID = (1, 10, 100, 1_000, 10_000)
CURVE_SIGMA_QUERIES = 1_000
CURVE_QUERIES = tuple(range(50, 2001, 50))

SIZES = {
    # (flows, horizon) for web; duration for video; (traces, packets) for the corpus
    "sim-web-256": {"full": (256, 30_000 * MS), "tiny": (4, 2_000 * MS)},
    "sim-video-1": {"full": 600_000 * MS, "tiny": 10_000 * MS},
    "corpus-web": {"full": (12, 55), "tiny": (4, 10)},
}


# The CPU speed of a shared host drifts by 10-30 % over seconds to minutes.
# So each offline run also times a yardstick around its set-ups and after
# every measured call, and scales its CPU-bound timings by
# YARDSTICK_REFERENCE_S / (mean yardstick time). The yardstick is frozen
# benchmark code, the brute-force distance oracle on fixed inputs: a change to
# the library moves the scaled figures, and a change in host speed mostly
# does not. The reference is the yardstick's time on a quiet 2-core Xeon
# under Python 3.11, so scaled figures read as seconds on that machine.
YARDSTICK_REFERENCE_S = 0.008
YARDSTICK_REPEATS = 3
SETUP_YARDSTICK_EVERY_S = 0.1


class Yardstick:
    def __init__(self):
        corpus = gen.corpus_points(0, 4, 40)
        self.pairs = [(corpus[0], corpus[1]), (corpus[2], corpus[3])]
        self.times: list[float] = []

    def measure(self) -> None:
        for _ in range(YARDSTICK_REPEATS):
            t0 = perf_counter()
            for a, b in self.pairs:
                oracle_distance(a, b, CORPUS_WINDOW, CORPUS_INTERVAL)
            self.times.append(perf_counter() - t0)

    @property
    def scale(self) -> float:
        """Factor that turns this run's CPU-bound timings into reference seconds."""
        return YARDSTICK_REFERENCE_S / statistics.fmean(self.times)

    def info(self) -> dict:
        return {"yardstick_mean_s": statistics.fmean(self.times), "time_scale": self.scale}


def _set_up(make, trace: bool, release=None):
    """Run ``make`` until ``setup_done``; return its last value and every duration.

    Durations are in reference seconds, scaled by a yardstick timed before,
    during (every SETUP_YARDSTICK_EVERY_S of set-up) and after the set-ups.
    ``release`` disposes of a value that is not the last, outside the timing.
    """
    yardstick = Yardstick()
    yardstick.measure()
    times, value = [], None
    since = 0.0
    while not setup_done(times, trace):
        if value is not None and release is not None:
            release(value)
        value = None  # let the previous inputs go before building new ones
        t0 = perf_counter()
        value = make()
        times.append(perf_counter() - t0)
        since += times[-1]
        if since >= SETUP_YARDSTICK_EVERY_S:
            yardstick.measure()
            since = 0.0
    yardstick.measure()
    return value, [t * yardstick.scale for t in times]


def _timing_shaper(tracer: Tracer):
    """A Shaper that records a span per shaping step and one batch span per run of enqueues."""

    class TimingShaper(Shaper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._batch = None  # [first start, last end, busy, calls]

        def enqueue(self, flow_id, n, now):
            t0 = perf_counter_ns()
            super().enqueue(flow_id, n, now)
            t1 = perf_counter_ns()
            batch = self._batch
            if batch is None:
                self._batch = [t0, t1, t1 - t0, 1]
            else:
                batch[1] = t1
                batch[2] += t1 - t0
                batch[3] += 1

        def shaping_step(self, now):
            if self._batch is not None:
                start, end, busy, calls = self._batch
                tracer.add("shaping.enqueue", start, end, busy, calls)
                self._batch = None
            t0 = perf_counter_ns()
            buf = super().shaping_step(now)
            tracer.add("shaping.step", t0, perf_counter_ns(), count=len(buf.payload))
            return buf

    return TimingShaper


def _check_sim(result, streams: list[Stream], digest: str, first_digest: str | None, checks: Checks):
    for buf in result.shaped:
        checks.check(
            buf.payload_bytes + buf.dummy == buf.dp_len and buf.dp_len <= result.cutoff,
            f"interval {buf.interval_index}: payload + dummy != dp_len or dp_len above cutoff",
        )
    checks.check(
        result.payload_in == sum(s.total_bytes for s in streams), "payload_in differs from the input"
    )
    checks.check(
        result.payload_in == result.payload_delivered + result.drops_bytes,
        "payload_in != delivered + drops",
    )
    if first_digest is not None:
        checks.check(digest == first_digest, "same seed gave a different intervals CSV")


def _byte_latency_ms(result, checks: Checks) -> tuple[float, float]:
    """Byte-weighted p50 and p99 of the time payload bytes waited in the shaper, in ms.

    The payload spans number in the hundreds of thousands, so p99 has far
    more than ten samples beyond it.
    """
    lengths, waits = [], []
    for buf in result.shaped:
        now = buf.interval_index * result.interval
        for span in buf.payload:
            lengths.append(span.length)
            waits.append(now - span.enqueue_time)
    lengths = np.asarray(lengths, dtype=np.int64)
    waits = np.asarray(waits, dtype=np.int64)
    order = np.argsort(waits, kind="stable")
    cumulative = np.cumsum(lengths[order])

    def quantile(q: float) -> float:
        return float(waits[order][min(int(np.searchsorted(cumulative, q * cumulative[-1])), len(waits) - 1)])

    p50, p99 = quantile(0.5), quantile(0.99)
    checks.check(p99 == result.latency.p99, "byte-weighted p99 differs from SimResult.latency.p99")
    return p50 / 1e6, p99 / 1e6


def _sim_streams(workload: str, seed: int, size: str):
    if workload == "sim-web-256":
        flows, horizon = SIZES[workload][size]
        return lambda: gen.web_streams(seed, flows, horizon)
    return lambda: gen.video_streams(seed, SIZES[workload][size])


def _simulate_for(streams, cfg, seconds: float, checks: Checks, yardstick: Yardstick):
    """Call simulate until ``seconds`` of call time; return call times, last result, digest."""
    times: list[float] = []
    result = digest = first_digest = None
    while not times or sum(times) < seconds:
        t0 = perf_counter()
        result = simulate(streams, cfg)
        times.append(perf_counter() - t0)
        yardstick.measure()
        digest = hashlib.sha256(intervals_to_csv(result).encode()).hexdigest()
        _check_sim(result, streams, digest, first_digest, checks)
        first_digest = first_digest or digest
    return times, result, digest


def run_sim(workload: str, seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    checks = Checks()
    streams, setup = _set_up(_sim_streams(workload, seed, size), trace)
    cfg = SimConfig(SIM_PARAMS, seed=seed, per_flow_cutoff=SIM_PER_FLOW_CUTOFF)
    packets = sum(len(s) for s in streams)
    budget = seconds / 2 if trace else seconds
    yardstick = Yardstick()
    times, result, digest = _simulate_for(streams, cfg, budget, checks, yardstick)
    scale = yardstick.scale
    out = Outcome(checks, setup_s=setup)
    out.ops_per_s = packets * len(times) / (sum(times) * scale)
    out.latency_ms = _byte_latency_ms(result, checks)
    out.info |= {
        "packets": packets,
        "flows": len(streams),
        "calls": len(times),
        "call_s": times,
        "ticks": len(result.shaped),
        "latency_tail_percentile": 99,
        "sim_pkts_per_s": (out.ops_per_s, "packets/s"),
        "sim_pkts_per_s_unscaled": (packets * len(times) / sum(times), "packets/s"),
        **yardstick.info(),
        "intervals_csv_sha256": digest,
    }
    if trace:
        out.layers, out.trace = _trace_sim(
            streams, cfg, budget, checks, digest, statistics.fmean(times), seed
        )
    out.peak_rss_mb = peak_rss_mb()
    return out


def _trace_sim(streams, cfg, seconds, checks, digest, untraced_call_s, seed):
    tracer = Tracer()
    sim_spans = []
    sim_module.Shaper = _timing_shaper(tracer)
    try:
        while not sim_spans or sum(tracer.spans[i][4] for i in sim_spans) / 1e9 < seconds:
            with tracer.span("sim.simulate"):
                sim_spans.append(tracer.current)
                result = simulate(streams, cfg)
            traced_digest = hashlib.sha256(intervals_to_csv(result).encode()).hexdigest()
            _check_sim(result, streams, traced_digest, digest, checks)
    finally:
        sim_module.Shaper = Shaper
    calls = len(sim_spans)
    span_s = sum(tracer.spans[i][4] for i in sim_spans) / 1e9
    self_s = sum(tracer.self_s(i) for i in sim_spans)
    step_busy = tracer.busy_s("shaping.step")
    enqueue_busy = tracer.busy_s("shaping.enqueue")
    for i in sim_spans:
        checks.check(tracer.children_nested(i), "shaping spans overlap or leave the simulate span")
    checks.check(
        abs(self_s + step_busy + enqueue_busy - span_s) <= 1e-6 * span_s,
        "sim.self_s plus shaping busy time does not account for sim.span_s",
    )
    steps = tracer.named("shaping.step")
    step_us = [s[4] / 1e3 for s in steps]
    ticks = len(result.shaped)
    layers = {
        "shaping.step_us_p50": nearest_rank(step_us, 50),
        "shaping.step_us_p99": nearest_rank(step_us, 99),
        "shaping.step_busy_s": step_busy / calls,
        "shaping.enqueue_busy_s": enqueue_busy / calls,
        "shaping.steps": len(steps) / calls,
        "shaping.spans_out_per_step": sum(s[5] for s in steps) / len(steps),
        "shaping.busy_share": (step_busy + enqueue_busy) / span_s,
        "sim.span_s": span_s / calls,
        "sim.self_s": self_s / calls,
        "sim.ticks": ticks,
        "sim.bandwidth_overhead": result.bandwidth_overhead,
        "sim.drop_fraction": result.drop_fraction,
        "sim.intervals_csv_sha256": int(digest[:13], 16),
        "bench.trace_overhead_pct": (span_s / calls / untraced_call_s - 1.0) * 100.0,
    }
    params = SIM_PARAMS
    layers |= time_dpcore(
        result.sigma, params.delta_w, params.epsilon_t, params.delta_t, ticks, ticks, seed, checks
    )
    layers["dpcore.busy_share"] = layers["dpcore.sample_gaussian_ns"] * ticks / 1e9 / (span_s / calls)
    tick_flows = []
    for buf in result.shaped:
        per_flow: dict[int, int] = {}
        for span in buf.payload:
            per_flow[span.flow_id + 1] = per_flow.get(span.flow_id + 1, 0) + span.length
        tick_flows.append((buf.dp_len, sorted(per_flow.items())))
    layers |= time_frames_records(tick_flows, len(streams), seed, checks)
    return layers, tracer.as_json()


# --- corpus: parse -> pairwise distance -> sigma calibration ---


def oracle_distance(a: list[tuple[int, int]], b: list[tuple[int, int]], window: int, interval: int) -> int:
    """Brute force from the ``neighboring_distance`` docstring.

    The maximum, over window starts anchored on packet timestamps (each
    timestamp slid back by 0..W/T whole intervals), of the L1 distance
    between the two streams' per-interval byte counts in [t_w, t_w + W).
    """
    k = window // interval

    def buckets(points, t_w):
        values = [0] * k
        for t, n in points:
            if t_w <= t < t_w + window:
                values[(t - t_w) // interval] += n
        return values

    starts = {t - j * interval for t, _ in a + b for j in range(k + 1)}
    return max(
        (sum(abs(x - y) for x, y in zip(buckets(a, t_w), buckets(b, t_w))) for t_w in starts),
        default=0,
    )


def _oracle_pairs(corpus: list[list[tuple[int, int]]]):
    short = [points[:12] for points in corpus[:4]]
    pairs = [(short[i], short[i + 1]) for i in range(len(short) - 1)]
    pairs.append((short[0], [(t + CORPUS_INTERVAL // 3, n) for t, n in short[0]]))  # unaligned
    pairs.append((short[1], short[1] + [(short[1][2][0], 700)]))  # timestamp tie
    pairs.append((short[2], []))  # empty stream
    return pairs


def _check_oracle(corpus, checks: Checks):
    for a, b in _oracle_pairs(corpus):
        library = neighboring_distance(
            gen.to_stream(a, 1), gen.to_stream(b, 1), CORPUS_WINDOW, CORPUS_INTERVAL
        )
        checks.check(
            library == oracle_distance(a, b, CORPUS_WINDOW, CORPUS_INTERVAL),
            "neighboring_distance differs from the brute-force oracle",
        )


def corpus_pass(paths: list[str], tracer: Tracer | None = None):
    """Parse every trace, tabulate pairwise distances, calibrate sigma at the p90.

    Returns (distance table, sigma per query count, privacy curve).
    """
    def timed(name, fn, *args):
        if tracer is None:
            return fn(*args)
        with tracer.span(name):
            return fn(*args)

    streams = [timed("traces.parse_trace", parse_trace, p) for p in paths]
    table = timed(
        "traces.pairwise_distance_distribution",
        pairwise_distance_distribution, streams, CORPUS_WINDOW, CORPUS_INTERVAL,
    )
    sigmas = {
        q: timed("dpcore.sigma_for_budget", sigma_for_budget, table.p90, CORPUS_EPSILON, CORPUS_DELTA, q)
        for q in QUERY_GRID
    }
    curve = [
        timed("dpcore.compose_to_dp", compose_to_dp, table.p90, sigmas[CURVE_SIGMA_QUERIES], q, CORPUS_DELTA)
        for q in CURVE_QUERIES
    ]
    return table, sigmas, curve


def _check_pass(table, sigmas, curve, first, checks: Checks):
    for q, sigma in sigmas.items():
        checks.check(
            compose_to_dp(table.p90, sigma, q, CORPUS_DELTA).epsilon_total <= CORPUS_EPSILON,
            f"sigma for {q} queries exceeds the epsilon budget",
        )
    checks.check(
        all(a.epsilon_total <= b.epsilon_total for a, b in zip(curve, curve[1:])),
        "privacy curve is not monotone in the query count",
    )
    if first is not None:
        checks.check((table, sigmas) == first, "repeated pass gave a different result")


def run_corpus(workload: str, seed: int, seconds: float, trace: bool, size: str, work_dir: str) -> Outcome:
    checks = Checks()
    traces, packets = SIZES[workload][size]
    made = 0

    def make():
        # each set-up writes new files: rewriting existing ones costs more and varies more
        nonlocal made
        made += 1
        directory = os.path.join(work_dir, f"set-up-{made}")
        os.makedirs(directory)
        corpus = gen.corpus_points(seed, traces, packets)
        paths = [os.path.join(directory, f"trace-{i:03d}.csv") for i in range(traces)]
        for path, points in zip(paths, corpus):
            gen.write_trace_csv(path, points, 1)
        return corpus, paths

    try:
        (corpus, paths), setup = _set_up(
            make, trace, lambda value: shutil.rmtree(os.path.dirname(value[1][0]))
        )
        yardstick = Yardstick()
        budget = seconds / 2 if trace else seconds
        times: list[float] = []
        first = None
        while not times or sum(times) < budget:
            t0 = perf_counter()
            table, sigmas, curve = corpus_pass(paths)
            times.append(perf_counter() - t0)
            yardstick.measure()
            _check_pass(table, sigmas, curve, first, checks)
            first = first or (table, sigmas)
        _check_oracle(corpus, checks)
        scale = yardstick.scale
        out = Outcome(checks, setup_s=setup)
        out.ops_per_s = table.pairs * len(times) / (sum(times) * scale)
        pass_ms = [t * scale * 1e3 for t in times]
        out.latency_ms = (nearest_rank(pass_ms, 50), nearest_rank(pass_ms, tail_percentile(len(times))))
        out.info |= yardstick.info()
        out.info |= {
            "traces": traces,
            "packets_per_trace": packets,
            "passes": len(times),
            "latency_tail_percentile": tail_percentile(len(times)),
            "pass_s": times,
            "corpus_pairs_per_s": (out.ops_per_s, "pairs/s"),
            "corpus_pairs_per_s_unscaled": (table.pairs * len(times) / sum(times), "pairs/s"),
            "delta_w_p90_bytes": table.p90,
            "sigma_per_queries": {str(q): s for q, s in sigmas.items()},
        }
        if trace:
            out.layers, out.trace = _trace_corpus(
                paths, budget, statistics.fmean(times), first, traces * packets, seed, checks
            )
        out.peak_rss_mb = peak_rss_mb()
        return out
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _trace_corpus(paths, seconds, untraced_pass_s, first, packets, seed, checks):
    tracer = Tracer()
    passes = []
    while not passes or sum(tracer.spans[i][4] for i in passes) / 1e9 < seconds:
        with tracer.span("corpus.pass"):
            passes.append(tracer.current)
            table, sigmas, curve = corpus_pass(paths, tracer)
        _check_pass(table, sigmas, curve, first, checks)
    n = len(passes)
    pass_s = sum(tracer.spans[i][4] for i in passes) / 1e9
    parse_s = tracer.busy_s("traces.parse_trace")
    distance_s = tracer.busy_s("traces.pairwise_distance_distribution")
    dp_s = tracer.busy_s("dpcore.sigma_for_budget") + tracer.busy_s("dpcore.compose_to_dp")
    layers = {
        "traces.parse_s": parse_s / n,
        "traces.parse_pkts_per_s": packets * n / parse_s,
        "traces.distance_s": distance_s / n,
        "traces.pairs": table.pairs,
        "traces.busy_share": (parse_s + distance_s) / pass_s,
        "dpcore.busy_share": dp_s / pass_s,
        "bench.trace_overhead_pct": (pass_s / n / untraced_pass_s - 1.0) * 100.0,
    }
    sigma = sigmas[CURVE_SIGMA_QUERIES]
    layers |= time_dpcore(
        sigma, table.p90, CORPUS_EPSILON, CORPUS_DELTA, CURVE_SIGMA_QUERIES, 10_000, seed, checks
    )
    # the pipeline's own calls, not the micro-timing, give the two calibration figures
    layers["dpcore.sigma_for_budget_us"] = statistics.median(
        s[4] / 1e3 for s in tracer.named("dpcore.sigma_for_budget")
    )
    layers["dpcore.compose_to_dp_us"] = statistics.median(
        s[4] / 1e3 for s in tracer.named("dpcore.compose_to_dp")
    )
    return layers, tracer.as_json()
