"""Hypothesis property tests for the shaper FIFO and the frame codec."""

from hypothesis import given, settings, strategies as st

from _support import ForcedNoise
from netshaper.dpcore import DpParams
from netshaper.shaping import Shaper
from netshaper.tunnel.frames import KIND_DATA, build_frames, decode_block, encode_block

PARAMS = DpParams(1.0, 1e-6, 1000.0, interval=100, window=500)


queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(1, 500), st.integers(0, 50)),
        st.tuples(st.just("step"), st.integers(0, 600), st.integers(1, 8)),
    ),
    max_size=60,
)


@settings(deadline=None, max_examples=200)
@given(queue_ops)
def test_queue_matches_reference_model(ops):
    shaper = Shaper(PARAMS, 1.0, None)
    model: list[list[int]] = []  # [enqueue_time, remaining]
    t = now = 0
    for op, arg, dt in ops:
        if op == "enqueue":
            t += dt
            shaper.enqueue(1, arg, t)
            model.append([t, arg])
            continue
        now = (max(t, now) // PARAMS.interval + dt) * PARAMS.interval
        t = now
        shaper.rng = ForcedNoise(arg - shaper.queued_total)
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
