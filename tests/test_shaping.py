"""FIFO and shaping step tests."""

import math
import pickle
import random
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _support import ForcedNoise, make_neighbor_pair, run_shaper
from netshaper.dpcore import DpParams, sample_gaussian
from netshaper.errors import SchedulingError
from netshaper.shaping import COMPACT_MIN, Departures, PayloadSpan, ShapedBuffer, Shaper, dp_query

PARAMS = DpParams(1.0, 1e-6, 1000.0, interval=100, window=500, cutoff=10_000)


# --- the FIFO, single flow ---


def step_with_noise(shaper: Shaper, now: int, noise: float) -> ShapedBuffer:
    """One shaping step whose noise draw is ``noise``."""
    shaper.noise = ForcedNoise(noise)
    return shaper.shaping_step(now)


def test_enqueue_totals():
    shaper = Shaper(PARAMS, ForcedNoise())
    shaper.enqueue(1, 100, 0)
    assert shaper.queued_total == shaper.queued(1) == 100
    shaper.enqueue(1, 200, 5)
    assert shaper.queued_total == shaper.queued(1) == 300
    assert shaper.queued(2) == 0
    buf = step_with_noise(shaper, 100, 0.0)
    assert [s.length for s in buf.payload] == [100, 200]
    assert shaper.queued_total == shaper.queued(1) == 0


def test_enqueue_rejects_bad_sizes_and_times():
    # enqueue and a one-span extend enforce the same rules
    for add in (Shaper.enqueue, lambda shaper, flow, n, t: shaper.extend([t], [flow], [n])):
        shaper = Shaper(PARAMS, ForcedNoise())
        with pytest.raises(ValueError):
            add(shaper, 1, 0, 0)
        add(shaper, 1, 10, 100)
        with pytest.raises(ValueError):
            add(shaper, 1, 10, 99)
        with pytest.raises(ValueError):
            add(shaper, 2, 10, 99)  # one FIFO: the order holds across flows
    with pytest.raises(ValueError):
        shaper.extend([100, 120, 110], [1, 2, 1], [5, 5, 5])  # out of order inside the batch
    with pytest.raises(ValueError):
        shaper.extend([99, 200], [1, 1], [5, 5])  # the batch starts before the tail
    with pytest.raises(ValueError):
        shaper.extend([100, 101], [1, 1], [5, 0])
    with pytest.raises(ValueError):
        shaper.extend([100, 101], [1], [5, 5])
    # a rejected batch enqueues nothing
    assert shaper.queued_total == shaper.bytes_in == shaper.queued(1) == 10
    assert shaper.queued(2) == 0
    shaper.extend([], [], [])
    shaper.extend([100, 100, 130], [2, 1, 2], [1, 2, 3])
    buf = step_with_noise(shaper, 200, 0.0)
    assert [tuple(s) for s in buf.payload] == [(1, 10, 100), (2, 1, 100), (1, 2, 100), (2, 3, 130)]


def test_flush_boundaries():
    window = PARAMS.window
    shaper = Shaper(PARAMS, ForcedNoise())
    shaper.enqueue(1, 500, 1000)
    buf = step_with_noise(shaper, 1000 + window, -1e9)  # aged exactly W survives
    assert buf.flushed == () and buf.drops == 0 and buf.queue_len == 500
    buf = step_with_noise(shaper, 1000 + window + PARAMS.interval, -1e9)
    assert [(d.flow_id, d.length, d.enqueue_time) for d in buf.flushed] == [(1, 500, 1000)]
    assert buf.drops == 500 and buf.queue_len == 0
    assert shaper.queued_total == shaper.queued(1) == 0
    assert step_with_noise(shaper, 10_000, 0.0).flushed == ()


def test_queue_matches_list_model():
    rng = random.Random(99)
    shaper = Shaper(PARAMS, ForcedNoise())
    model: list[list[int]] = []  # [enqueue_time, remaining]
    t = now = 0
    for _ in range(3000):
        if rng.randrange(2) == 0:
            t += rng.randint(0, 50)
            n = rng.randint(1, 500)
            shaper.enqueue(1, n, t)
            model.append([t, n])
            continue
        now = (max(t, now) // PARAMS.interval + rng.randint(1, 3)) * PARAMS.interval
        t = now
        want = rng.randint(0, 600)
        buf = step_with_noise(shaper, now, want - shaper.queued_total)
        keep = [m for m in model if m[0] >= now - PARAMS.window]
        assert buf.drops == sum(m[1] for m in model) - sum(m[1] for m in keep)
        model = keep
        expect, take = 0, buf.dp_len
        while take > 0 and model:
            step = min(take, model[0][1])
            model[0][1] -= step
            expect += step
            take -= step
            if model[0][1] == 0:
                model.pop(0)
        assert buf.payload_bytes == expect
        assert shaper.queued_total == shaper.queued(1) == sum(m[1] for m in model)


# --- dp_query ---


def test_dp_query_zero_sigma_is_identity():
    assert dp_query(100, sample_gaussian(0.0, random.Random(1)), PARAMS.cutoff) == 100


def test_dp_query_clamps_below_zero():
    assert dp_query(100, -200.0, PARAMS.cutoff) == 0


def test_dp_query_clamps_at_cutoff():
    assert dp_query(100, 1e9, PARAMS.cutoff) == PARAMS.cutoff


def test_dp_query_rounds_half_up():
    assert dp_query(100, 0.5, PARAMS.cutoff) == 101
    assert dp_query(100, 0.49, PARAMS.cutoff) == 100
    assert dp_query(100, -0.5, PARAMS.cutoff) == 100


@given(
    st.integers(0, 10**7),
    st.floats(-1e8, 1e8),
    st.sampled_from([1.0, 250.0, 2500.7, 10_000, math.inf]),
)
def test_dp_query_clamps_then_rounds_half_up(q_len, noise, cutoff):
    want = math.floor(min(max(q_len + noise, 0.0), cutoff) + 0.5)
    assert dp_query(q_len, noise, cutoff) == want


def test_dp_query_empirical_mean():
    rng = random.Random(4242)
    n = 100_000
    total = sum(dp_query(1000, sample_gaussian(100.0, rng), math.inf) for _ in range(n))
    assert abs(total / n - 1000) < 2.0


# --- the shaped buffer ---


def test_prepare_zero_length():
    shaper = Shaper(PARAMS, ForcedNoise(-1e9))
    shaper.enqueue(1, 100, 0)
    buf = shaper.shaping_step(100)
    assert (buf.dp_len, buf.payload, buf.dummy) == (0, (), 0)
    assert shaper.queued(1) == 100


def test_prepare_pads_with_dummy():
    shaper = Shaper(PARAMS, ForcedNoise(200.0))
    shaper.enqueue(7, 100, 0)
    buf = shaper.shaping_step(100)
    assert buf.payload_bytes == 100
    assert buf.dummy == 200
    assert buf.dp_len == 300


def test_shaped_buffer_rejects_inconsistent_split():
    with pytest.raises(ValueError):
        ShapedBuffer(1, 300, (PayloadSpan(1, 100, 0),), 100, 0)
    with pytest.raises(ValueError):
        ShapedBuffer(1, 50, (PayloadSpan(1, 100, 0),), -50, 0)


def test_shaped_buffer_is_immutable():
    buf = ShapedBuffer(1, 300, (PayloadSpan(1, 100, 0),), 200, 0)
    with pytest.raises(AttributeError):
        buf.dummy = 0
    with pytest.raises(AttributeError):
        buf.note = "x"
    assert buf.dummy == 200 and buf == (1, 300, (PayloadSpan(1, 100, 0),), 200, 0, (), 0, 100)


def test_shaped_buffer_without_payload_bytes_sums_its_spans():
    spans = (PayloadSpan(1, 100, 0), PayloadSpan(2, 30, 5))
    buf = ShapedBuffer(4, 150, spans, 20, 0)
    assert (buf.payload_bytes, buf.flushed, buf.queue_len) == (130, (), 0)
    assert ShapedBuffer(4, 150, Departures([1, 2], [100, 30], [0, 5]), 20, 0) == buf


def test_shaped_buffer_replace_make_and_pickle_check_the_split():
    buf = ShapedBuffer(1, 300, (PayloadSpan(1, 100, 0),), 200, 0)
    assert buf._replace(dp_len=400, dummy=300).payload_bytes == 100
    with pytest.raises(ValueError):
        buf._replace(dummy=150)
    with pytest.raises(ValueError):
        ShapedBuffer._make((1, 50, (), -50, 0, (), 0, 0))
    assert pickle.loads(pickle.dumps(buf)) == buf


def test_departures_read_as_a_tuple_of_spans():
    shaper = Shaper(PARAMS, ForcedNoise())
    shaper.extend([0, 0, 5], [1, 2, 1], [100, 50, 20])
    buf = step_with_noise(shaper, 100, 120 - 170)  # flow 2's span leaves in part
    spans = (PayloadSpan(1, 100, 0), PayloadSpan(2, 20, 0))
    assert isinstance(buf.payload, Departures) and len(buf.payload) == 2
    assert [type(s) for s in buf.payload] == [PayloadSpan, PayloadSpan]
    assert buf.payload == spans and hash(buf.payload) == hash(spans)
    assert buf.payload == Departures([1, 2], [100, 20], [0, 0])
    assert buf.payload != spans[:1] and buf.payload != list(spans)
    assert buf.flushed == () and len(buf.flushed) == 0
    # a buffer built from a tuple of spans equals the shaper's, and still checks its split
    assert ShapedBuffer(1, 120, spans, 0, 0, (), 170) == buf
    with pytest.raises(ValueError):
        ShapedBuffer(1, 100, spans, 0, 0)


def test_queued_and_discard_count_what_is_left_of_a_split_span():
    shaper = Shaper(PARAMS, ForcedNoise())
    shaper.enqueue(1, 100, 0)
    shaper.enqueue(2, 50, 1)
    shaper.enqueue(1, 10, 2)
    buf = step_with_noise(shaper, 100, 30 - 160)  # 30 of flow 1's first 100 bytes leave
    assert [tuple(s) for s in buf.payload] == [(1, 30, 0)]
    assert (shaper.queued(1), shaper.queued(2), shaper.queued_total) == (80, 50, 130)
    assert shaper.discard_flow(1) == 80
    assert (shaper.queued(1), shaper.queued(2), shaper.queued_total) == (0, 50, 50)
    assert shaper.bytes_dropped == 80 and shaper.discard_flow(1) == 0


def test_interleaved_flows_leave_in_arrival_order():
    # Flow 1 at t = 0 and 10, flow 2 at t = 5, budget 200: flow 2's span is
    # older than flow 1's second one, so it leaves first.
    shaper = Shaper(PARAMS, ForcedNoise(-100.0))
    shaper.enqueue(1, 100, 0)
    shaper.enqueue(2, 100, 5)
    shaper.enqueue(1, 100, 10)
    buf = shaper.shaping_step(100)
    assert buf.dp_len == 200
    assert [tuple(s) for s in buf.payload] == [(1, 100, 0), (2, 100, 5)]
    assert (shaper.queued(1), shaper.queued(2), shaper.queued_total) == (100, 0, 100)


def test_equal_times_leave_in_enqueue_order():
    shaper = Shaper(PARAMS, ForcedNoise(-150.0))
    shaper.enqueue(3, 100, 0)
    shaper.enqueue(1, 100, 0)
    shaper.enqueue(2, 100, 0)
    buf = shaper.shaping_step(100)
    assert [tuple(s) for s in buf.payload] == [(3, 100, 0), (1, 50, 0)]


def test_discard_flow_removes_exactly_that_flow():
    rng = random.Random(5)
    shaper = Shaper(PARAMS, ForcedNoise())
    spans = []
    for t in range(0, 90, 3):
        flow, n = rng.randint(1, 4), rng.randint(1, 1000)
        shaper.enqueue(flow, n, t)
        spans.append((t, flow, n))
    before = {f: shaper.queued(f) for f in range(1, 5)}
    assert shaper.discard_flow(2) == before[2] == sum(n for _, f, n in spans if f == 2)
    assert shaper.discard_flow(2) == 0
    assert shaper.queued(2) == 0
    assert all(shaper.queued(f) == before[f] for f in (1, 3, 4))
    assert shaper.queued_total == sum(before.values()) - before[2]
    assert shaper.bytes_in == shaper.bytes_dropped + shaper.queued_total
    buf = step_with_noise(shaper, 100, 1e9)
    assert [tuple(s) for s in buf.payload] == [(f, n, t) for t, f, n in spans if f != 2]


class FifoModel:
    """The shaper's contract as a plain list of [enqueue_time, flow, remaining]."""

    def __init__(self, params: DpParams):
        self.params = params
        self.spans: list[list[int]] = []

    def step(self, now: int, noise: float):
        deadline = now - self.params.window
        flushed = [tuple(s) for s in self.spans if s[0] < deadline]
        self.spans = [s for s in self.spans if s[0] >= deadline]
        q_len = sum(s[2] for s in self.spans)
        dp_len = dp_query(q_len, noise, self.params.cutoff)
        payload, budget = [], dp_len
        while budget and self.spans:
            take = min(budget, self.spans[0][2])
            payload.append((self.spans[0][1], take, self.spans[0][0]))
            self.spans[0][2] -= take
            budget -= take
            if self.spans[0][2] == 0:
                self.spans.pop(0)
        flushed = tuple((f, n, t) for t, f, n in flushed)
        return dp_len, tuple(payload), budget, sum(s[1] for s in flushed), flushed, q_len

    def queued(self, flow: int) -> int:
        return sum(s[2] for s in self.spans if s[1] == flow)


@pytest.mark.parametrize("seed", range(12))
def test_shaper_matches_list_model(seed):
    rng = random.Random(seed)
    params = DpParams(1.0, 1e-6, 500.0, interval=100, window=rng.choice([100, 300, 700]),
                      cutoff=rng.choice([400, 2_000, math.inf]))
    flows = list(range(rng.randint(2, 6)))
    sigma = 0.0 if seed % 4 == 0 else 1.0
    shaper = Shaper(params, ForcedNoise())
    model = FifoModel(params)
    for k in range(1, 150):
        now = k * 100
        if rng.random() < 0.7:  # otherwise an idle tick
            times = sorted(rng.randint(now - 100, now - 1) for _ in range(rng.randint(1, 5)))
            arrivals = [(t, rng.choice(flows), rng.randint(1, 400)) for t in times]
            if rng.random() < 0.5:  # one batch, or one enqueue per span
                shaper.extend(*map(list, zip(*arrivals)))
            else:
                for t, flow, n in arrivals:
                    shaper.enqueue(flow, n, t)
            model.spans.extend(map(list, arrivals))
        noise = 0.0 if sigma == 0 else rng.choice([-1e9, 1e9, rng.gauss(0, 300)])
        shaper.noise = ForcedNoise(noise)
        buf = shaper.shaping_step(now)
        want = model.step(now, noise)
        got = (buf.dp_len, tuple(map(tuple, buf.payload)), buf.dummy, buf.drops,
               tuple(map(tuple, buf.flushed)), buf.queue_len)
        assert got == want
        assert buf.dp_len <= params.cutoff
        assert all(shaper.queued(f) == model.queued(f) for f in flows)
        assert sum(shaper.queued(f) for f in flows) == shaper.queued_total
        assert shaper.bytes_in == shaper.bytes_out + shaper.bytes_dropped + shaper.queued_total


def test_compaction_keeps_the_fifo_and_bounds_its_lists():
    # Thousands of short spans leave across the compaction threshold, more
    # arrive after it, and everything drains; the lists never hold more than
    # the queued spans plus max(COMPACT_MIN, queued spans).
    rng = random.Random(8)
    params = DpParams(1.0, 1e-6, 500.0, interval=100, window=100_000, cutoff=math.inf)
    shaper = Shaper(params, ForcedNoise())
    model = FifoModel(params)

    def feed(t, count):
        arrivals = [[t, rng.randint(1, 3), rng.randint(1, 9)] for _ in range(count)]
        shaper.extend(*map(list, zip(*arrivals)))
        model.spans.extend(arrivals)

    feed(0, 2500)
    longest = 0
    for k in range(1, 60):
        now = k * 100
        if k == 25:
            feed(now - 1, 1500)
        want = rng.randint(300, 1500)
        noise = want - shaper.queued_total
        buf = step_with_noise(shaper, now, noise)
        got = (buf.dp_len, tuple(map(tuple, buf.payload)), buf.dummy, buf.drops,
               tuple(map(tuple, buf.flushed)), buf.queue_len)
        assert got == model.step(now, noise)
        assert all(shaper.queued(f) == model.queued(f) for f in (1, 2, 3))
        queued_spans = len(model.spans)
        longest = max(longest, len(shaper._times))
        assert len(shaper._times) <= queued_spans + max(COMPACT_MIN, queued_spans)
    assert shaper.queued_total == 0 and longest == 2500
    assert shaper.bytes_in == shaper.bytes_out


def test_discard_flow_after_a_split_head():
    shaper = Shaper(PARAMS, ForcedNoise())
    shaper.enqueue(1, 100, 0)
    shaper.enqueue(2, 100, 5)
    shaper.enqueue(1, 50, 6)
    shaper.enqueue(3, 30, 7)
    buf = step_with_noise(shaper, 100, 40 - 280)  # flow 1's first span leaves in part
    assert [tuple(s) for s in buf.payload] == [(1, 40, 0)]
    assert shaper.discard_flow(2) == 100
    assert (shaper.queued(1), shaper.queued(2), shaper.queued_total) == (110, 0, 140)
    assert shaper.bytes_in == shaper.bytes_out + shaper.bytes_dropped + shaper.queued_total
    buf = step_with_noise(shaper, 200, 80 - 140)  # the rest of the head span, then in part
    assert [tuple(s) for s in buf.payload] == [(1, 60, 0), (1, 20, 6)]
    assert shaper.discard_flow(1) == 30  # the split head's own flow
    assert shaper.bytes_in == shaper.bytes_out + shaper.bytes_dropped + shaper.queued_total
    buf = step_with_noise(shaper, 300, 0.0)
    assert [tuple(s) for s in buf.payload] == [(3, 30, 7)]
    assert shaper.queued_total == 0


# --- shaping_step ---


def test_step_all_dummy_when_idle():
    shaper = Shaper(PARAMS, ForcedNoise(500.0))
    buf = shaper.shaping_step(100)
    assert buf.dp_len == 500
    assert buf.payload == ()
    assert buf.dummy == 500


def test_step_passthrough_with_zero_noise():
    params = DpParams(1.0, 1e-6, 1000.0, interval=100, window=500)
    shaper = Shaper(params, partial(sample_gaussian, 0.0, random.Random(0)))
    for k in range(1, 20):
        shaper.enqueue(1, 100, (k - 1) * 100 + 10)
        buf = shaper.shaping_step(k * 100)
        assert buf.payload_bytes == 100
        assert buf.dummy == 0
        assert buf.drops == 0


def test_step_rejects_replayed_interval():
    shaper = Shaper(PARAMS, partial(sample_gaussian, 0.0, random.Random(0)))
    shaper.shaping_step(100)
    with pytest.raises(SchedulingError):
        shaper.shaping_step(100)
    with pytest.raises(SchedulingError):
        shaper.shaping_step(150)  # not an interval boundary


def test_step_deterministic_under_seed():
    def run(seed):
        shaper = Shaper(PARAMS, partial(sample_gaussian, 300.0, random.Random(seed)))
        out = []
        rng = random.Random(1)
        for k in range(1, 50):
            if rng.random() < 0.6:
                shaper.enqueue(1, rng.randint(1, 400), (k - 1) * 100)
            out.append(shaper.shaping_step(k * 100))
        return out

    assert run(77) == run(77)
    assert run(77) != run(78)


def test_step_conservation_and_ttl():
    rng = random.Random(31337)
    params = DpParams(1.0, 1e-6, 500.0, interval=100, window=700, cutoff=2_000)
    shaper = Shaper(params, partial(sample_gaussian, 150.0, random.Random(5)))
    enqueued = 0
    for k in range(1, 200):
        now = k * 100
        for off in sorted((rng.randint(1, 100) for _ in range(rng.randrange(3))), reverse=True):
            n = rng.randint(1, 300)
            shaper.enqueue(rng.randint(1, 3), n, now - off)
            enqueued += n
        buf = shaper.shaping_step(now)
        assert buf.payload_bytes + buf.dummy == buf.dp_len <= params.cutoff
        for span in buf.payload:
            assert 0 <= now - span.enqueue_time <= params.window
        assert shaper.bytes_in == shaper.bytes_out + shaper.bytes_dropped + shaper.queued_total
    assert shaper.bytes_in == enqueued


# --- sensitivity lemma (small copy; the full 1000-trial suite is acceptance) ---


def test_sensitivity_lemma_sample():
    rng = random.Random(2024)
    params = DpParams(1.0, 1e-6, 800.0, interval=100, window=500, cutoff=5_000)
    for _ in range(100):
        scenario = make_neighbor_pair(rng, params, 800)
        seed = rng.getrandbits(32)
        bufs_a, _ = run_shaper(scenario.a, params, 400.0, seed)
        bufs_b, _ = run_shaper(scenario.b, params, 400.0, seed)
        assert len(bufs_a) == len(bufs_b)
        for ba, bb in zip(bufs_a, bufs_b):
            assert abs(ba.queue_len - bb.queue_len) <= 800
            assert abs(ba.payload_bytes - bb.payload_bytes) <= abs(ba.queue_len - bb.queue_len)
