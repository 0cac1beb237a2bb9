"""Hypothesis property tests for the shaper FIFO, the frame codec and the record layer."""

import io

from hypothesis import given, settings, strategies as st

from _support import ForcedNoise
from netshaper.dpcore import DpParams
from netshaper.shaping import Shaper
from netshaper.tunnel.frames import KIND_DATA, build_frames, decode_block, encode_block
from netshaper.tunnel.records import RecordCodec

KEY = bytes(range(32))

PARAMS = DpParams(1.0, 1e-6, 1000.0, interval=100, window=500)


queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(1, 500), st.integers(0, 50)),
        st.tuples(
            st.just("extend"),
            st.lists(st.tuples(st.integers(1, 500), st.integers(0, 50)), max_size=8),
            st.just(0),
        ),
        st.tuples(st.just("step"), st.integers(0, 600), st.integers(1, 8)),
    ),
    max_size=60,
)


@settings(deadline=None, max_examples=200)
@given(queue_ops)
def test_queue_matches_reference_model(ops):
    shaper = Shaper(PARAMS, None)
    model: list[list[int]] = []  # [enqueue_time, remaining]
    t = now = 0
    for op, arg, dt in ops:
        if op == "enqueue":
            t += dt
            shaper.enqueue(1, arg, t)
            model.append([t, arg])
            continue
        if op == "extend":
            times = []
            for _, gap in arg:
                t += gap
                times.append(t)
            sizes = [n for n, _ in arg]
            shaper.extend(times, [1] * len(arg), sizes)
            model.extend(map(list, zip(times, sizes)))
            continue
        now = (max(t, now) // PARAMS.interval + dt) * PARAMS.interval
        t = now
        shaper.noise = ForcedNoise(arg - shaper.queued_total)
        buf = shaper.shaping_step(now)
        keep = [m for m in model if m[0] >= now - PARAMS.window]
        assert buf.drops == sum(m[1] for m in model) - sum(m[1] for m in keep)
        model = keep
        want, left = 0, buf.dp_len
        while left > 0 and model:
            step = min(left, model[0][1])
            model[0][1] -= step
            want += step
            left -= step
            if model[0][1] == 0:
                model.pop(0)
        assert buf.payload_bytes == want
        assert shaper.queued_total == shaper.queued(1) == sum(m[1] for m in model)


frame_inputs = st.tuples(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(0, 2**40), st.binary(min_size=1, max_size=200)),
        max_size=4,
        unique_by=lambda d: d[0],
    ),
    st.one_of(st.none(), st.tuples(st.integers(0, 1000), st.binary(min_size=1, max_size=50))),
    st.integers(0, 300),
)


@settings(deadline=None, max_examples=300)
@given(frame_inputs)
def test_frame_block_round_trip(parts):
    data, control, dummy = parts
    frames = build_frames(data, control, dummy)
    dp_len = sum(f.length for f in frames)
    block = encode_block(frames, dp_len, flows_max=8)
    decoded = decode_block(block)
    assert decoded == frames
    assert {(f.flow_id, f.offset): f.body for f in decoded if f.kind == KIND_DATA} == {
        (flow, off): body for flow, off, body in data
    }
    assert sum(f.length for f in decoded) == dp_len


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 3_000_000), st.integers(64, 9000), st.integers(1, 64), st.data())
def test_records_fit_the_mtu_and_a_flipped_byte_costs_one_tick(dp_len, mtu, flows_max, data):
    tx = RecordCodec(KEY, mtu, flows_max)
    rx = RecordCodec(KEY, mtu, flows_max)
    block = encode_block(build_frames([], None, dp_len), dp_len, flows_max)
    records = tx.seal_tick(7, dp_len, block)
    assert all(0 < len(r) <= mtu for r in records)
    assert sum(len(r) for r in records) == rx.wire_bytes_for_tick(dp_len)
    assert [len(r) for r in records] == rx.chunk_sizes(dp_len)

    # Any byte after the magic, bar the dp_len field that frames the stream:
    # the interval index is the AEAD's associated data, the rest is sealed.
    wire = bytearray(b"".join(records))
    pos = data.draw(st.integers(4, len(wire) - 1).filter(lambda p: not 12 <= p < 16))
    wire[pos] ^= data.draw(st.integers(1, 255))
    next_block = encode_block(build_frames([(1, 0, b"next")], None, 0), 4, flows_max)
    stream = io.BytesIO(bytes(wire) + b"".join(tx.seal_tick(8, 4, next_block)))
    interval, got_len, got_block = rx.read_tick(stream.read)
    assert (got_len, got_block) == (dp_len, None)
    assert interval == 7 or pos < 12
    assert rx.read_tick(stream.read) == (8, 4, next_block)
