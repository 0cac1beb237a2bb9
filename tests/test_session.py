"""Two tunnel sessions driven back to back in memory, tick by tick."""

import ast
import math
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import ForcedNoise
from test_frames import feeder
from netshaper.dpcore import DpParams, gaussian_sigma, sample_gaussian
from netshaper.errors import ConfigError, SessionError
from netshaper.shaping import Shaper
from netshaper.tunnel.config import TunnelConfig
from netshaper.tunnel.frames import build_frames, encode_block
from netshaper.tunnel import session as session_module
from netshaper.tunnel.session import CONTROL_FLOW, TunnelSession

MS = 1_000_000
KEY_AB, KEY_BA = bytes(range(32)), bytes(range(32, 64))


def make_cfg(window_ms=30, delta_w=10.0, cutoff=3000.0):
    params = DpParams(
        epsilon_t=2.0,
        delta_t=1e-6,
        delta_w=delta_w,
        interval=10 * MS,
        window=window_ms * MS,
        cutoff=cutoff,
    )
    addr = ("127.0.0.1", 9)
    return TunnelConfig(
        listen_addr=addr, peer_addr=addr, params=params, psk=KEY_AB, t_prep=MS, t_enq=MS, flows_max=4
    )


def session_pair(cfg, rng_a, rng_b):
    return TunnelSession(cfg, KEY_AB, KEY_BA, rng_a), TunnelSession(cfg, KEY_BA, KEY_AB, rng_b)


def carry(sender, receiver, k):
    """Tick ``sender`` at k and feed its wire bytes to ``receiver``.

    Returns the tick's wire length, the flows the sender tore down and the
    receiver's events.
    """
    wire, ended = sender.tick(k)
    events = receiver.receive(*receiver.codec_rx.read_tick(feeder(b"".join(wire))))
    return sum(map(len, wire)), ended, events


def test_session_imports_no_socket_thread_or_clock():
    with open(session_module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "json" in imported
    assert not imported & {"socket", "threading", "time", "select"}


def test_rx_processing_without_live_session():
    # frame dispatch is testable directly: dummy frames are only counted,
    # data for unknown flows parks in the pending buffer
    cfg = make_cfg()
    session = TunnelSession(cfg, KEY_AB, KEY_BA, random.Random(1))
    frames = build_frames([(9, 0, b"early")], None, 1_000_000)
    block = encode_block(frames, 1_000_005, cfg.flows_max)
    assert session.receive(1, 1_000_005, block) == []
    assert session.stats["dummy_rx"] == 1_000_000
    assert session.stats["payload_rx"] == 0
    assert session.pending[9] == [(0, b"early")]


def control_block(offset, body):
    return encode_block(build_frames([], (offset, body), 0), len(body), 4)


def test_malformed_ticks_count_integrity_errors():
    session = TunnelSession(make_cfg(), KEY_AB, KEY_BA, random.Random(1))
    assert session.receive(1, 0, None) == []  # failed authentication
    assert session.receive(2, 6, encode_block(build_frames([], None, 5), 5, 4)) == []  # short of dp_len
    opening = b'{"dst_host": "h", "dst_port": 1, "flow": 3, "op": "open"}\n'
    [(kind, flow, *_)] = session.receive(3, len(opening), control_block(0, opening))
    assert kind == "open" and flow.flow_id == 3
    assert session.receive(4, 1, encode_block(build_frames([(3, 7, b"x")], None, 0), 1, 4)) == []
    assert session.receive(5, 2, control_block(0, b"{}")) == []  # control offset already used
    offset = len(opening)
    for line in (b"not json\n", b'{"flow": 1}\n', b'{"flow": 9, "op": "close"}\n', b'{"op": "warp"}\n'):
        assert session.receive(6, len(line), control_block(offset, line)) == []
        offset += len(line)
    # the forged tick, the short one, the data and control offsets, the two bad lines
    assert session.stats["integrity_errors"] == 6
    assert session.stats["dummy_rx"] == 5 and session.stats["payload_rx"] == 0


@pytest.mark.parametrize("cutoff", [math.inf, math.nan])
def test_a_session_needs_a_finite_cutoff(cutoff):
    with pytest.raises(ConfigError, match="finite cutoff"):
        TunnelSession(make_cfg(cutoff=cutoff), KEY_AB, KEY_BA, random.Random(1))


def test_offer_at_the_cap_is_refused_whole():
    a, _ = session_pair(make_cfg(), random.Random(1), random.Random(2))
    flow = a.open_flow("dst", 7)
    assert a.cap == 3000 * 3  # cutoff x W/T
    assert a.offer(flow, b"x" * (a.cap - 1))
    assert not a.offer(flow, b"yz")
    assert len(flow.buffer) == a.cap - 1 and a._offered_sizes == [a.cap - 1]
    assert a.offer(flow, b"y")


def test_bytes_a_reset_flow_dequeues_count_as_rst_drops():
    a, b = session_pair(make_cfg(), ForcedNoise(1e6), ForcedNoise(0.0))
    flow = a.open_flow("dst", 7)
    assert a.offer(flow, b"x" * 100)
    a.reset(flow, "test")
    _, ended, _ = carry(a, b, 1)
    assert ended == [flow] and a.stats["rst_drops"] == 100
    assert b.stats["payload_rx"] == 0 and b.stats["dummy_rx"] >= 100  # dequeued, sent as dummy


def test_bye_reaches_the_peer_and_the_session_finishes():
    cfg = make_cfg()
    a, b = session_pair(cfg, ForcedNoise(1e6, 1e6, 1e6), ForcedNoise(0.0))
    flows = [a.open_flow("dst", 7) for _ in range(cfg.flows_max)]
    assert None not in flows
    assert a.open_flow("dst", 7) is None and a.stats["flows_rejected"] == 1
    a.close()
    _, _, events = carry(a, b, 1)
    assert [event[0] for event in events] == ["open"] * cfg.flows_max  # the bye waits for every FIN
    for flow in flows:
        a.app_eof(flow)
    a.close()  # the bye goes once
    assert carry(a, b, 2)[2] == [] and not a.done  # this tick queues the FINs, then the bye
    _, _, events = carry(a, b, 3)
    assert [event[0] for event in events] == ["eof"] * cfg.flows_max + ["bye"]
    assert a.done


def test_fin_leaves_before_the_bye():
    # The closing tick queues the flow's FIN; done used to read True while it
    # still waited in the outbox, so it never left.
    cfg = make_cfg()
    a, b = session_pair(cfg, ForcedNoise(*[1e6] * 4), ForcedNoise(0.0))
    flow = a.open_flow("dst", 7)
    kinds = [event[0] for event in carry(a, b, 1)[2]]
    assert a.offer(flow, bytes(100))
    a.close()
    a.app_eof(flow)
    for k in range(2, 5):
        if a.done:
            break
        kinds += [event[0] for event in carry(a, b, k)[2]]
    assert a.done and not a._outbox
    assert kinds == ["open", "data", "eof", "bye"]


def test_bytes_behind_a_ttl_drop_never_reach_the_peer():
    # W/T = 2 and dp_len 0 on ticks 2-3: tick 4 expires the "A" bytes, offered
    # before tick 2, and takes the "B" bytes behind them. Those used to arrive
    # as data at the flow's stale offset, a silent gap; they leave as dummy.
    cfg = make_cfg(window_ms=20, cutoff=100_000.0)
    a, b = session_pair(cfg, ForcedNoise(0.0, -1e9, -1e9, 0.0, 0.0, 0.0), ForcedNoise(*[0.0] * 6))
    flow = a.open_flow("dst", 7)
    seen = []
    for k in range(1, 7):
        if k in (2, 3):
            assert a.offer(flow, b"AB"[k - 2 : k - 1] * 1000)
        wire, _, events = carry(a, b, k)
        assert wire == a.codec_tx.wire_bytes_for_tick(a.tick_stats[-1][1])
        seen += [(kind, *rest) for kind, _, *rest in events if kind != "open"]
        carry(b, a, k)
    assert seen == [("eof",)]
    assert a.stats["ttl_drops"] == 1000 and a.tick_stats[3][1:4] == (1000, 1000, 0)
    assert b.stats["dummy_rx"] == 1000 and b.stats["integrity_errors"] == 0


def test_ttl_drop_resets_the_flow_on_both_sides():
    # W/T = 2. Tick 1 carries the open, tick 2 carries 1000 of 5000 offered
    # bytes, ticks 3-4 carry none, so tick 4 expires the other 4000 (offered
    # before tick 2, stamped at T). Tick 5 carries the reset.
    cfg = make_cfg(window_ms=20, cutoff=100_000.0)
    a, b = session_pair(cfg, ForcedNoise(0.0, -4000.0, -1e9, 0.0, 0.0), ForcedNoise(*[0.0] * 5))
    flow = a.open_flow("dst", 7)
    payload = bytes(range(250)) * 20
    got = bytearray()
    eofs = []
    for k in range(1, 6):
        if k == 2:
            assert a.offer(flow, payload)
        _, ended, events = carry(a, b, k)
        for kind, f, *rest in events:
            if kind == "data":
                got += rest[0]
            elif kind == "eof":
                eofs.append(f.flow_id)
        # conservation: bytes in = delivered + dropped + still queued
        assert len(payload) * (k >= 2) == len(got) + a.stats["ttl_drops"] + a.shaper.queued(1)
        assert (flow in ended) == (k == 4)
        _, b_ended, _ = carry(b, a, k)
    assert bytes(got) == payload[:1000]
    assert a.stats["ttl_drops"] == 4000 == a.shaper.bytes_dropped
    assert eofs == [1] and b_ended and b_ended[0].rst
    assert not a.flows and not b.flows


@pytest.mark.xfail(
    strict=True,
    raises=SessionError,
    reason="ROADMAP item 14: an expired control message ends the session",
)
def test_open_expired_on_an_idle_session_leaves_it_up():
    cfg = make_cfg(window_ms=20)
    ticks = cfg.params.intervals_per_window + 1  # dp_len 0 for W/T + 1 ticks, then room
    a, b = session_pair(cfg, ForcedNoise(*[-1e9] * ticks, 1e6), ForcedNoise(*[0.0] * (ticks + 1)))
    a.open_flow("dst", 7)
    for k in range(1, ticks + 2):
        carry(a, b, k)
        carry(b, a, k)
    assert 1 in b.flows


# Per tick, a list of (flow index, size) offers; size 0 ends that flow's stream.
TICKS = st.lists(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2500)), max_size=3), min_size=1, max_size=20
)


@settings(max_examples=40)
@given(ticks=TICKS, seed=st.integers(0, 2**32 - 1))
def test_sessions_match_a_plain_shaper(ticks, seed):
    cfg = make_cfg()
    interval = cfg.params.interval
    a, b = session_pair(cfg, random.Random(seed), random.Random(seed + 1))
    p = cfg.params
    sigma = gaussian_sigma(p.delta_w, p.epsilon_t, p.delta_t)
    reference = Shaper(p, partial(sample_gaussian, sigma, random.Random(seed)))
    flows = [a.open_flow("dst", 7) for _ in range(3)]
    sent = {flow.flow_id: bytearray() for flow in flows}
    got = {flow.flow_id: bytearray() for flow in flows}
    dropped = set()
    for k, offers in enumerate(ticks + [[]] * 8, start=1):
        arrivals = []
        for index, size in offers:
            flow = flows[index]
            if flow.tx_eof or flow.rst:
                continue
            if size == 0:
                a.app_eof(flow)
            elif a.offer(flow, bytes([k, index]) * size):
                sent[flow.flow_id] += bytes([k, index]) * size
                arrivals.append((flow.flow_id, 2 * size))
        control = sum(map(len, a._outbox))  # control messages join at the boundary
        times = [(k - 1) * interval] * len(arrivals) + [k * interval] * bool(control)
        reference.extend(
            times,
            [f for f, _ in arrivals] + [CONTROL_FLOW] * bool(control),
            [n for _, n in arrivals] + [control] * bool(control),
        )
        expected = reference.shaping_step(k * interval)
        if any(span.flow_id == CONTROL_FLOW for span in expected.flushed):
            with pytest.raises(SessionError):
                a.tick(k)
            return
        drops = a.stats["ttl_drops"]
        wire, ended, events = carry(a, b, k)
        _, dp_len, payload, dummy, _ = a.tick_stats[-1]
        assert wire == a.codec_tx.wire_bytes_for_tick(dp_len)
        assert (dp_len, payload, dummy, a.stats["ttl_drops"] - drops) == (
            expected.dp_len,
            expected.payload_bytes,
            expected.dummy,
            expected.drops,
        )
        dropped |= {span.flow_id for span in expected.flushed}
        for flow in ended:
            reference.discard_flow(flow.flow_id)
        for kind, flow, *rest in events:
            if kind == "data":
                got[flow.flow_id] += rest[0]
            elif kind == "eof":
                b.app_eof(flow)  # the far application closes when its peer does
        carry(b, a, k)
    for flow_id, data in sent.items():
        if flow_id not in dropped:
            assert got[flow_id] == data
    queued = sum(len(flow.buffer) for flow in a.flows.values())
    accounted = b.stats["payload_rx"] + a.shaper.bytes_dropped + a.stats["rst_drops"] + queued
    assert sum(map(len, sent.values())) == accounted
