"""Trace-driven simulator tests."""

import dataclasses
import gc
import math
import random

from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _support import as_stream
from netshaper.dpcore import DpParams, sample_gaussian
import netshaper.sim as sim_module
from netshaper.errors import ConfigError
from netshaper.shaping import Shaper
from netshaper.sim import SimConfig, intervals_to_csv, overhead_sweep, simulate, sweep_to_csv
from netshaper.traces import windowed_repr

MS = 1_000_000

PARAMS = DpParams(1.0, 1e-6, 50_000.0, interval=10 * MS, window=100 * MS)


def constant_rate_stream(rate_bytes=1000, spacing=2 * MS, count=200, start=0):
    return as_stream([(start + i * spacing, rate_bytes) for i in range(count)])


def test_noiseless_constant_rate_passthrough():
    stream = constant_rate_stream()
    result = simulate([stream], SimConfig(PARAMS, seed=1, sigma=0.0))
    assert result.bandwidth_overhead == 0.0
    assert result.dummy_bytes == 0
    assert result.drops_bytes == 0
    assert result.payload_delivered == result.payload_in == stream.total_bytes
    assert result.latency is not None and result.latency.max <= PARAMS.interval


def test_empty_stream_reports_absolute_dummy():
    result = simulate([as_stream([])], SimConfig(PARAMS, seed=3, sigma=10_000.0, horizon=500 * MS))
    assert result.no_payload
    assert result.bandwidth_overhead is None
    assert result.payload_in == 0
    assert result.dummy_bytes > 0
    assert all(b.payload == () for b in result.shaped)
    assert result.summary()["latency_ns"] is None


def test_empty_stream_without_horizon_rejected():
    with pytest.raises(ConfigError):
        simulate([as_stream([])], SimConfig(PARAMS, seed=3))


@pytest.mark.parametrize("horizon", [0, -5_000 * MS])
def test_horizon_below_one_ns_rejected(horizon):
    # else a stream with no packets and a negative horizon runs one tick
    with pytest.raises(ConfigError):
        SimConfig(PARAMS, seed=3, horizon=horizon)


# Up to three flows of (time, size) packets over about 40 ticks of 100 ns.
FLOW_POINTS = st.lists(
    st.lists(st.tuples(st.integers(0, 4000), st.integers(1, 900)), max_size=30), min_size=1, max_size=3
)


@settings(max_examples=80)
@given(
    points=FLOW_POINTS,
    window_ticks=st.integers(1, 4),
    sigma=st.sampled_from([0.0, 40.0, 400.0, 3000.0]),
    cutoff=st.sampled_from([250.0, 1200.0, math.inf]),
    horizon=st.none() | st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_matches_a_step_by_step_shaper(points, window_ticks, sigma, cutoff, horizon, seed):
    # simulate draws a run's noise up front; a plain Shaper that draws once
    # per step from random.Random(seed) must shape every tick the same way.
    params = DpParams(1.0, 1e-6, 500.0, interval=100, window=100 * window_ticks, cutoff=cutoff)
    if not any(points) and horizon is None:
        horizon = 1000
    streams = [as_stream(sorted(p), flow) for flow, p in enumerate(points)]
    result = simulate(streams, SimConfig(params, seed=seed, sigma=sigma, horizon=horizon))
    arrivals = sorted((t, flow, n) for flow, p in enumerate(points) for t, n in p)
    shaper = Shaper(params, partial(sample_gaussian, sigma, random.Random(seed)))
    fed = 0
    for j, buf in enumerate(result.shaped, 1):
        now = result.start + j * params.interval
        while fed < len(arrivals) and arrivals[fed][0] < now:
            t, flow, n = arrivals[fed]
            shaper.enqueue(flow, n, t)
            fed += 1
        want = shaper.shaping_step(now)
        assert (buf.dp_len, buf.payload_bytes, buf.dummy, buf.drops) == (
            want.dp_len, want.payload_bytes, want.dummy, want.drops
        )
        assert buf == want
    assert fed == len(arrivals) and shaper.queued_total == 0


def test_collector_paused_only_for_the_call(monkeypatch):
    seen = []

    class RecordingShaper(sim_module.Shaper):
        def shaping_step(self, now):
            seen.append(gc.isenabled())
            return super().shaping_step(now)

    monkeypatch.setattr(sim_module, "Shaper", RecordingShaper)
    stream = constant_rate_stream(count=2000)
    assert gc.isenabled()
    result = simulate([stream], SimConfig(PARAMS, seed=1))
    young = gc.get_count()[0]  # read before anything here allocates
    assert gc.isenabled() and seen and not any(seen)
    # the young pass the pause put off ran inside the call: over 2000
    # spans left in new lists, yet no collection is due
    assert sum(len(b.payload) for b in result.shaped) > 2000
    assert young < gc.get_threshold()[0]
    with pytest.raises(ConfigError):
        simulate([as_stream([])], SimConfig(PARAMS))
    assert gc.isenabled()
    gc.disable()
    try:
        simulate([stream], SimConfig(PARAMS, seed=1))
        assert not gc.isenabled()
        with pytest.raises(ConfigError):
            simulate([as_stream([])], SimConfig(PARAMS))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_noiseless_output_is_shifted_windowed_repr():
    rng = random.Random(8)
    points = [(rng.randrange(0, 400 * MS), rng.randint(1, 5000)) for _ in range(300)]
    stream = as_stream(points)
    result = simulate([stream], SimConfig(PARAMS, seed=0, sigma=0.0))
    span = result.shaped[-1].interval_index * PARAMS.interval - result.start
    reference = windowed_repr(stream, result.start, span, PARAMS.interval)
    got = [b.dp_len for b in result.shaped]
    # buffer emitted at boundary j+1 carries the bytes that arrived in bucket j
    assert got == list(reference.values[: len(got)])


def test_interval_alignment_and_emission_grid():
    stream = as_stream([(37 * MS, 100), (55 * MS, 100)])
    result = simulate([stream], SimConfig(PARAMS, seed=0, sigma=0.0))
    assert result.start == 30 * MS
    for j, buf in enumerate(result.shaped):
        assert buf.interval_index == result.start // PARAMS.interval + 1 + j


def test_latency_within_window_and_conservation():
    rng = random.Random(21)
    params = DpParams(1.0, 1e-6, 20_000.0, interval=10 * MS, window=50 * MS, cutoff=60_000)
    for trial in range(20):
        streams = [
            as_stream(
                [(rng.randrange(0, 300 * MS), rng.randint(1, 3000)) for _ in range(rng.randint(1, 80))]
            )
            for _ in range(rng.randint(1, 3))
        ]
        result = simulate(streams, SimConfig(params, seed=trial, sigma=8_000.0))
        if result.latency is not None:
            assert result.latency.max <= params.window
        queued_left = result.payload_in - result.payload_delivered - result.drops_bytes
        assert queued_left == 0  # run extends a full window past the last packet
        assert result.payload_delivered == sum(b.payload_bytes for b in result.shaped)
        assert result.dummy_bytes == sum(b.dummy for b in result.shaped)


def test_determinism_byte_identical_csv():
    stream = constant_rate_stream()
    cfg = SimConfig(PARAMS, seed=42, sigma=5_000.0)
    first = simulate([stream], cfg)
    second = simulate([stream], cfg)
    assert intervals_to_csv(first) == intervals_to_csv(second)
    assert first.summary() == second.summary()
    other = simulate([stream], SimConfig(PARAMS, seed=43, sigma=5_000.0))
    assert intervals_to_csv(first) != intervals_to_csv(other)


def test_csv_shape():
    result = simulate([constant_rate_stream(count=5)], SimConfig(PARAMS, seed=1, sigma=0.0))
    lines = intervals_to_csv(result).strip().splitlines()
    assert lines[0] == "k,dp_len,payload,dummy,drops"
    assert len(lines) == len(result.shaped) + 1
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_flow_scaled_vs_fixed_cutoff():
    streams = [constant_rate_stream() for _ in range(4)]
    scaled = simulate(streams, SimConfig(PARAMS, seed=1, sigma=0.0, per_flow_cutoff=1_000))
    assert scaled.cutoff == 4_000
    fixed = simulate(
        streams, SimConfig(PARAMS, seed=1, sigma=0.0, per_flow_cutoff=1_000, cutoff_mode="fixed")
    )
    assert fixed.cutoff == 1_000
    # tighter clamp can only reduce what leaves the queue per interval
    assert max(b.dp_len for b in fixed.shaped) <= 1_000


def test_declared_flow_count_validation():
    streams = [constant_rate_stream()]
    result = simulate(streams, SimConfig(PARAMS, seed=1, sigma=0.0, flows=16, per_flow_cutoff=1_000))
    assert result.cutoff == 16_000
    with pytest.raises(ConfigError):
        simulate([constant_rate_stream(), constant_rate_stream()], SimConfig(PARAMS, flows=1))


def test_amortization_with_shared_tunnel():
    # dummy bytes are a per-tunnel cost, so per-flow overhead shrinks as flows
    # share the tunnel; independent single-flow tunnels pay it once each.
    base = SimConfig(PARAMS, seed=11, sigma=20_000.0)
    single = simulate([constant_rate_stream()], base)
    assert single.bandwidth_overhead is not None
    shared = simulate([constant_rate_stream() for _ in range(8)], base)
    independent_dummy = 0
    for i in range(8):
        independent_dummy += simulate(
            [constant_rate_stream()], SimConfig(PARAMS, seed=11 + i, sigma=20_000.0)
        ).dummy_bytes
    assert shared.dummy_bytes <= independent_dummy
    assert shared.bandwidth_overhead < single.bandwidth_overhead


def test_sweep_single_value_matches_simulate():
    stream = constant_rate_stream()
    cfg = SimConfig(PARAMS, seed=9, sigma=4_000.0)
    rows = overhead_sweep([stream], cfg, "sigma", [4_000.0])
    direct = simulate([stream], SimConfig(PARAMS, seed=9 * 1_000_003, sigma=4_000.0))
    assert rows[0].result.summary() == direct.summary()


@pytest.mark.parametrize("axis,value,direct", [
    ("epsilon", 2.0, {"params": DpParams(2.0, 1e-6, 50_000.0, interval=10 * MS, window=100 * MS)}),
    ("cutoff", 3_000.0, {"per_flow_cutoff": 3_000.0}),
])
def test_sweep_rows_match_simulate(axis, value, direct):
    stream = constant_rate_stream()
    rows = overhead_sweep([stream], SimConfig(PARAMS, seed=4), axis, [value])
    expect = simulate([stream], dataclasses.replace(SimConfig(PARAMS, seed=4 * 1_000_003), **direct))
    assert rows[0].result.summary() == expect.summary()


@pytest.mark.parametrize("bad", [
    lambda: SimConfig(PARAMS, flows=0),
    lambda: SimConfig(PARAMS, cutoff_mode="shared"),
    lambda: SimConfig(PARAMS, per_flow_cutoff=0),
    lambda: SimConfig(PARAMS, sigma=-1.0),
    lambda: simulate([], SimConfig(PARAMS)),
    lambda: overhead_sweep([constant_rate_stream()], SimConfig(PARAMS), "sigma", []),
    lambda: overhead_sweep([constant_rate_stream()], SimConfig(PARAMS), "flows", [0]),
])
def test_bad_config_rejected(bad):
    with pytest.raises(ConfigError):
        bad()


def test_sweep_unknown_axis():
    with pytest.raises(ConfigError):
        overhead_sweep([constant_rate_stream()], SimConfig(PARAMS), "delta", [1])


def test_sweep_interval_must_divide_window():
    with pytest.raises(ConfigError):
        overhead_sweep([constant_rate_stream()], SimConfig(PARAMS), "T", [7 * MS])


def test_sweep_larger_interval_fewer_queries_lower_overhead():
    # fixed per-query noise: halving the query rate halves the dummy budget
    stream = constant_rate_stream(rate_bytes=5000, spacing=5 * MS, count=400)
    cfg = SimConfig(PARAMS, seed=123, sigma=30_000.0)
    rows = overhead_sweep([stream], cfg, "T", [10 * MS, 20 * MS, 50 * MS, 100 * MS])
    overheads = [r.result.bandwidth_overhead for r in rows]
    assert all(o is not None for o in overheads)
    assert overheads == sorted(overheads, reverse=True)


def test_sweep_flows_axis_cycles_streams():
    stream = constant_rate_stream()
    rows = overhead_sweep([stream], SimConfig(PARAMS, seed=2, sigma=10_000.0), "flows", [1, 4])
    assert rows[0].result.payload_in * 4 == rows[1].result.payload_in


def test_sweep_csv_render():
    rows = overhead_sweep(
        [constant_rate_stream(count=20)], SimConfig(PARAMS, seed=2, sigma=0.0), "sigma", [0.0, 100.0]
    )
    text = sweep_to_csv(rows)
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("axis,value,")


def test_latency_stats_are_byte_weighted():
    # one early heavy burst and one late light packet: weighting by bytes puts
    # the p99 at the heavy burst's wait, not the light one's
    params = DpParams(1.0, 1e-6, 1000.0, interval=10 * MS, window=200 * MS)
    stream = as_stream([(1 * MS, 99_000), (2 * MS, 1_000)])
    result = simulate([stream], SimConfig(params, seed=0, sigma=0.0))
    assert result.latency is not None
    assert result.latency.p99 == 10 * MS - 1 * MS
    assert math.isclose(
        result.latency.mean, (99_000 * 9 * MS + 1_000 * 8 * MS) / 100_000, rel_tol=1e-12
    )


def span_by_span(result):
    """Each departed span's (length, wait), read from ``result.shaped`` in departure order."""
    return [
        (span.length, buf.interval_index * result.interval - span.enqueue_time)
        for buf in result.shaped for span in buf.payload
    ]


def offset_columns(streams, cfg):
    """``simulate``'s result and the (lengths, waits) columns it weighs its latency by, if any."""
    seen = []
    latency_stats = sim_module._latency_stats

    def record(lengths, waits):
        seen.append(list(zip(lengths.tolist(), waits.tolist())))
        return latency_stats(lengths, waits)

    with mock.patch.object(sim_module, "_latency_stats", record):
        result = simulate(streams, cfg)
    return result, seen


def test_latency_matches_the_span_by_span_formula():
    # Several flows past the cutoff, so the TTL drops bytes and spans leave
    # across two ticks; the waits come from the ticks' byte offsets into the
    # arrivals, and must equal the old reading of the departed spans one by one.
    rng = random.Random(22)
    params = DpParams(1.0, 1e-6, 5_000.0, interval=10 * MS, window=30 * MS, cutoff=6_000)
    streams = [
        as_stream(sorted((rng.randrange(200 * MS), rng.randint(1, 1500)) for _ in range(60)), flow)
        for flow in range(4)
    ]
    result, seen = offset_columns(streams, SimConfig(params, seed=5, sigma=1_500.0))
    assert result.drops_bytes > 0
    heads = [(buf.payload.flows[0], buf.payload.times[0]) for buf in result.shaped[1:] if buf.payload]
    tails = [(buf.payload.flows[-1], buf.payload.times[-1]) for buf in result.shaped if buf.payload]
    assert set(heads) & set(tails)  # a span whose bytes left in two ticks
    spans = span_by_span(result)
    assert seen == [spans]
    lengths, waits = (np.asarray(column, dtype=np.int64) for column in zip(*spans))
    assert result.latency == sim_module._latency_stats(lengths, waits)


# Up to three flows on a 25 ns grid, so packets of different flows often share a timestamp.
TIED_FLOW_POINTS = st.lists(
    st.lists(st.tuples(st.integers(0, 160).map(lambda k: 25 * k), st.integers(1, 900)), max_size=30),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150)
@given(
    points=TIED_FLOW_POINTS,
    window_ticks=st.integers(1, 4),
    sigma=st.sampled_from([0.0, 40.0, 400.0, 3000.0]),
    cutoff=st.sampled_from([250.0, 1200.0, math.inf]),
    horizon=st.none() | st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
# σ = 0 and a 250 B cutoff over tied flows: clamped ticks split spans, the TTL drops, a gap idles
@example([[(0, 600), (50, 300), (1000, 200)], [(0, 400), (50, 700)]], 2, 0.0, 250.0, None, 0)
@example([[], []], 2, 400.0, 250.0, 1000, 3)  # a horizon and no packet
def test_waits_from_byte_offsets_match_the_departed_spans(points, window_ticks, sigma, cutoff, horizon, seed):
    params = DpParams(1.0, 1e-6, 500.0, interval=100, window=100 * window_ticks, cutoff=cutoff)
    if not any(points) and horizon is None:
        horizon = 1000
    streams = [as_stream(sorted(p), flow) for flow, p in enumerate(points)]
    result, seen = offset_columns(streams, SimConfig(params, seed=seed, sigma=sigma, horizon=horizon))
    spans = span_by_span(result)
    assert seen == ([spans] if spans else [])
    assert (result.latency is None) == (not spans)
    assert result.drops_bytes == sum(buf.drops for buf in result.shaped)


def stable_latency_stats(lengths, waits):
    """``_latency_stats`` with a stable sort: ties keep their input order."""
    total = lengths.sum()
    mean = float((lengths * waits).sum() / total)
    var = float((lengths * (waits - mean) ** 2).sum() / total)
    order = np.argsort(waits, kind="stable")
    p99_idx = int(np.searchsorted(np.cumsum(lengths[order]), 0.99 * total))
    return sim_module.LatencyStats(
        mean, math.sqrt(var), float(waits[order][min(p99_idx, len(waits) - 1)]), int(waits.max())
    )


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(1, 1500), st.integers(0, 4)), min_size=1, max_size=400))
def test_latency_stats_need_no_stable_sort(pairs):
    # Five wait values over up to 400 spans: long runs of ties, which an
    # unstable sort may reorder; the byte-weighted p99 lands in the same run.
    lengths, waits = (np.asarray(column, dtype=np.int64) for column in zip(*pairs))
    assert sim_module._latency_stats(lengths, waits) == stable_latency_stats(lengths, waits)


def test_streams_build_their_columns_once():
    streams = [constant_rate_stream(), constant_rate_stream(rate_bytes=700)]
    assert not any("columns" in vars(s) for s in streams)
    first = simulate(streams, SimConfig(PARAMS, seed=1))
    built = [s.columns for s in streams]
    second = simulate(streams, SimConfig(PARAMS, seed=1))
    assert all(s.columns is columns for s, columns in zip(streams, built))
    assert intervals_to_csv(first) == intervals_to_csv(second)


@pytest.mark.parametrize("axis,values", [("sigma", [0.0, 2_000.0, 9_000.0]), ("flows", [1, 3, 4])])
def test_sweep_csv_matches_simulate_on_fresh_streams(axis, values):
    # The sweep reuses each stream's cached columns across rows, and the
    # "flows" axis one stream several times in a row; neither may show.
    def fresh():  # two flows whose packets share every timestamp
        return [constant_rate_stream(count=150), constant_rate_stream(700, count=150)]

    cfg = SimConfig(PARAMS, seed=6, sigma=3_000.0, per_flow_cutoff=4_000.0)
    swept = overhead_sweep(fresh(), cfg, axis, values)
    rows = []
    for i, value in enumerate(values):
        row_cfg = dataclasses.replace(cfg, seed=6 * 1_000_003 + i)
        if axis == "sigma":
            row_streams, row_cfg = fresh(), dataclasses.replace(row_cfg, sigma=value)
        else:
            row_streams = [fresh()[k % 2] for k in range(value)]
        rows.append(sim_module.SweepRow(axis, float(value), simulate(row_streams, row_cfg)))
    assert sweep_to_csv(swept) == sweep_to_csv(rows)
    assert [intervals_to_csv(r.result) for r in swept] == [intervals_to_csv(r.result) for r in rows]
