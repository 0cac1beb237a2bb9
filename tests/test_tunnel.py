"""Live two-endpoint tunnel tests on loopback."""

import contextlib
import gc
import json
import logging
import random
import socket
import statistics
import struct
import threading
import time

import pytest

from netshaper.dpcore import DpParams
from netshaper.errors import AuthError, ParameterMismatch, SessionError
from netshaper.tunnel.config import TunnelConfig
from netshaper.tunnel import records
from netshaper.tunnel import endpoint as endpoint_module
from netshaper.tunnel.endpoint import WRITE, TunnelEndpoint
from netshaper.tunnel.records import Hello, RecordCodec

MS = 1_000_000
PSK = bytes(range(32))


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class SinkServer:
    """Accepts connections, collects what each one sends, echoes nothing."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.2)
        self.port = self.sock.getsockname()[1]
        self.conns: list[bytearray] = []
        self.done: list[threading.Event] = []
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            buf = bytearray()
            done = threading.Event()
            self.conns.append(buf)
            self.done.append(done)
            threading.Thread(target=self._drain, args=(conn, buf, done), daemon=True).start()

    @staticmethod
    def _drain(conn, buf, done):
        try:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                buf += chunk
        except OSError:
            pass
        conn.close()
        done.set()

    def close(self):
        self._stop.set()
        self.sock.close()


def make_params(interval_ms=20, window_ms=2000, delta_w=25_000.0, epsilon=2.0, cutoff=400_000.0):
    return DpParams(
        epsilon_t=epsilon,
        delta_t=1e-6,
        delta_w=delta_w,
        interval=interval_ms * MS,
        window=window_ms * MS,
        cutoff=cutoff,
    )


def make_cfg_pair(params=None, flows_max=8, t_prep_ms=10, t_enq_ms=4, psk=PSK, idle_timeout_ms=0):
    params = params or make_params()
    tunnel_port = free_port()
    app_port = free_port()
    base = dict(
        params=params,
        psk=psk,
        t_prep=t_prep_ms * MS,
        t_enq=t_enq_ms * MS,
        flows_max=flows_max,
        mtu=1400,
        idle_timeout=idle_timeout_ms * MS,
    )
    serve = TunnelConfig(
        listen_addr=("127.0.0.1", tunnel_port), peer_addr=("127.0.0.1", tunnel_port), **base
    )
    connect = TunnelConfig(
        listen_addr=("127.0.0.1", tunnel_port),
        peer_addr=("127.0.0.1", tunnel_port),
        app_listen_addr=("127.0.0.1", app_port),
        **base,
    )
    return serve, connect


def start_pair(serve_cfg, connect_cfg, seed_base=1234):
    serve = TunnelEndpoint(serve_cfg, "serve", seed=seed_base)
    connect = TunnelEndpoint(connect_cfg, "connect", seed=seed_base + 1)
    serve_thread = threading.Thread(target=serve.start, daemon=True)
    serve_thread.start()
    time.sleep(0.05)
    connect.start()
    serve_thread.join(10)
    assert serve.session_ready.wait(10) and connect.session_ready.wait(10)
    return serve, connect


def stop_pair(*endpoints):
    for ep in endpoints:
        ep.shutdown()
    for ep in endpoints:
        ep.finished.wait(15)
    for ep in endpoints:
        ep.stop()


def open_flow(connect_cfg, sink_port, privacy_descriptor=None, dst_host="127.0.0.1", timeout=10):
    sock = socket.create_connection(connect_cfg.app_listen_addr, timeout=timeout)
    request = {"dst_host": dst_host, "dst_port": sink_port, "reliability": True}
    if privacy_descriptor is not None:
        request["privacy_descriptor"] = privacy_descriptor
    sock.sendall(json.dumps(request).encode() + b"\n")
    fh = sock.makefile("rb")
    response = json.loads(fh.readline().decode())
    return sock, response


def wait_for(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def frozen_heap():
    """Keep the rest of the suite's objects out of the collector while a test times ticks.

    A full collection scans every tracked object in the process, and after
    the property tests that takes tens of milliseconds on whichever thread
    triggers it, an endpoint's loop included.
    """
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture
def sink():
    server = SinkServer()
    yield server
    server.close()


def test_loopback_integrity_1mb(sink):
    serve_cfg, connect_cfg = make_cfg_pair()
    serve, connect = start_pair(serve_cfg, connect_cfg)
    try:
        payload = random.Random(7).randbytes(1_000_000)
        sock, response = open_flow(connect_cfg, sink.port, privacy_descriptor={"epsilon": 5})
        assert response == {"ok": True, "flow_id": 1}
        # accepted and ignored; the tunnel budget stays shared
        assert 1 in connect.flows
        sock.sendall(payload)
        sock.close()
        assert wait_for(lambda: sink.done and sink.done[0].is_set())
        assert bytes(sink.conns[0]) == payload
        assert connect.stats["ttl_drops"] == 0
        assert serve.stats["integrity_errors"] == 0
        assert serve.stats["payload_rx"] >= len(payload)
        assert serve.stats["dummy_rx"] > 0  # discarded, only counted
    finally:
        stop_pair(serve, connect)


def test_wire_bytes_match_dp_len_formula(sink):
    serve_cfg, connect_cfg = make_cfg_pair()
    serve, connect = start_pair(serve_cfg, connect_cfg)
    try:
        sock, response = open_flow(connect_cfg, sink.port)
        assert response["ok"]
        sock.sendall(bytes(900_000))
        sock.close()
        assert wait_for(lambda: sink.done and sink.done[0].is_set())
        time.sleep(0.3)  # a few idle ticks too
    finally:
        stop_pair(serve, connect)
    reference = RecordCodec(PSK, mtu=connect_cfg.mtu, flows_max=connect_cfg.flows_max)
    ticks = list(connect.tick_stats)
    assert len(ticks) >= 5
    for _, dp_len, payload_bytes, dummy, wire in ticks:
        assert payload_bytes + dummy == dp_len
        assert wire == reference.wire_bytes_for_tick(dp_len)


def test_parameter_mismatch_rejected():
    serve_cfg, connect_cfg = make_cfg_pair()
    bad_params = make_params(interval_ms=40, window_ms=2000)
    import dataclasses

    connect_cfg = dataclasses.replace(connect_cfg, params=bad_params)
    serve = TunnelEndpoint(serve_cfg, "serve")
    connect = TunnelEndpoint(connect_cfg, "connect")
    errors = {}

    def serve_establish():
        try:
            serve.establish()
        except SessionError as exc:
            errors["serve"] = exc

    thread = threading.Thread(target=serve_establish, daemon=True)
    thread.start()
    time.sleep(0.05)
    with pytest.raises(ParameterMismatch) as exc:
        connect.establish()
    assert "T_ns" in str(exc.value)
    thread.join(10)
    assert isinstance(errors.get("serve"), ParameterMismatch)
    serve.stop()
    connect.stop()


def test_auth_failure_rejected():
    import dataclasses

    serve_cfg, connect_cfg = make_cfg_pair()
    connect_cfg = dataclasses.replace(connect_cfg, psk=bytes(32))
    serve = TunnelEndpoint(serve_cfg, "serve")
    connect = TunnelEndpoint(connect_cfg, "connect")
    errors = {}

    def serve_establish():
        try:
            serve.establish()
        except SessionError as exc:
            errors["serve"] = exc

    thread = threading.Thread(target=serve_establish, daemon=True)
    thread.start()
    time.sleep(0.05)
    with pytest.raises(SessionError):
        connect.establish()
    thread.join(10)
    assert isinstance(errors.get("serve"), AuthError)
    serve.stop()
    connect.stop()


def test_old_protocol_version_rejected(monkeypatch):
    serve_cfg, _ = make_cfg_pair()
    with monkeypatch.context() as m:
        m.setattr(records, "PROTOCOL_VERSION", 1)
        old_hello = Hello("connect", bytes(16), serve_cfg.wire_params()).encode(PSK)
    serve = TunnelEndpoint(serve_cfg, "serve")
    errors = {}

    def serve_establish():
        try:
            serve.establish()
        except SessionError as exc:
            errors["serve"] = exc

    thread = threading.Thread(target=serve_establish, daemon=True)
    thread.start()
    socks = []

    def connected():
        try:
            socks.append(socket.create_connection(serve_cfg.listen_addr, timeout=10))
        except ConnectionRefusedError:
            return False
        return True

    assert wait_for(connected)
    socks[0].sendall(old_hello)
    thread.join(10)
    socks[0].close()
    serve.stop()
    assert isinstance(errors.get("serve"), ParameterMismatch)
    assert "version 1" in str(errors["serve"])


def test_one_flow_moves_more_than_its_handoff_queue_per_tick(sink):
    # A flow's bytes per tick follow the cutoff: 3 MiB written at once cross
    # in one or two ticks, not at the handoff queue's 64 x 16 KiB per tick.
    # The long interval leaves the prepare thread ample time to drain the
    # queue; the small noise leaves little backlog from one tick to the next.
    params = make_params(interval_ms=300, window_ms=6000, delta_w=1000.0, cutoff=8_000_000.0)
    serve_cfg, connect_cfg = make_cfg_pair(params=params, t_prep_ms=150, t_enq_ms=30)
    serve, connect = start_pair(serve_cfg, connect_cfg)
    payload = bytes(range(256)) * (3 << 12)
    try:
        sock, response = open_flow(connect_cfg, sink.port)
        assert response["ok"]
        sock.sendall(payload)
        sock.close()
        assert wait_for(lambda: sink.done and sink.done[0].is_set())
    finally:
        stop_pair(serve, connect)
    assert bytes(sink.conns[0]) == payload
    assert max(moved for _, _, moved, _, _ in connect.tick_stats) >= len(payload) // 2
    reference = RecordCodec(PSK, mtu=connect_cfg.mtu, flows_max=connect_cfg.flows_max)
    for _, dp_len, _, _, wire in connect.tick_stats:
        assert wire == reference.wire_bytes_for_tick(dp_len)


def test_stop_after_a_transfer_logs_no_transmit_error(sink, caplog):
    # stop() without a graceful close, while both loops still tick: a wire
    # that breaks once the endpoint is finished is no cause for a warning.
    serve_cfg, connect_cfg = make_cfg_pair()
    serve, connect = start_pair(serve_cfg, connect_cfg)
    try:
        sock, response = open_flow(connect_cfg, sink.port)
        assert response["ok"]
        sock.sendall(bytes(200_000))
        sock.close()
        assert wait_for(lambda: sink.done and sink.done[0].is_set())
    finally:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="netshaper.tunnel"):
            serve.stop()
            connect.stop()
    assert not any(t.is_alive() for ep in (serve, connect) for t in ep._threads)
    warned = [r for r in caplog.records if r.name == "netshaper.tunnel" and r.levelno >= logging.WARNING]
    assert warned == []


def workers(endpoint) -> int:
    return sum(t.name.startswith(f"{endpoint.role}-") for t in threading.enumerate())


def test_threads_do_not_pile_up_over_many_flows(sink):
    params = make_params(interval_ms=10, window_ms=1000)
    serve_cfg, connect_cfg = make_cfg_pair(params=params, t_prep_ms=5, t_enq_ms=2)
    serve, connect = start_pair(serve_cfg, connect_cfg)
    try:
        idle = [workers(serve), workers(connect)]
        assert idle == [2, 2]  # the loop and the receive worker
        for round_ in range(1, 4):
            socks = []
            for _ in range(connect_cfg.flows_max):
                sock, response = open_flow(connect_cfg, sink.port)
                assert response["ok"]
                sock.sendall(b"x")
                socks.append(sock)
            assert wait_for(lambda: len(sink.conns) == round_ * connect_cfg.flows_max)
            assert len(serve.flows) == len(connect.flows) == connect_cfg.flows_max
            assert [workers(serve), workers(connect)] == idle
            for sock in socks:
                sock.close()
            assert wait_for(lambda: not connect.flows and not serve.flows)
    finally:
        stop_pair(serve, connect)


def test_an_application_that_stops_reading_stalls_only_its_flow(sink, caplog):
    # The stuck destination accepts but never reads: once the kernel buffers
    # and cutoff x W/T = 2 MB wait for it, its flow is reset. The other flow
    # still arrives whole. Flow 1 sends at about half the cutoff rate, so no
    # byte waits out the TTL on the way.
    params = make_params(interval_ms=20, window_ms=200, delta_w=1000.0, cutoff=200_000.0)
    serve_cfg, connect_cfg = make_cfg_pair(params=params)
    serve, connect = start_pair(serve_cfg, connect_cfg)
    stuck = socket.create_server(("127.0.0.1", 0))
    pushed = []

    def push(sock):
        try:
            while sum(pushed) < 64 << 20:
                sock.sendall(bytes(65536))
                pushed.append(65536)
                time.sleep(0.012)
        except OSError:
            pass

    try:
        sock1, response = open_flow(connect_cfg, stuck.getsockname()[1])
        assert response["flow_id"] == 1
        stuck.settimeout(10)
        held, _ = stuck.accept()
        pusher = threading.Thread(target=push, args=(sock1,), daemon=True)
        pusher.start()
        time.sleep(0.3)
        sock2, response = open_flow(connect_cfg, sink.port)
        assert response["flow_id"] == 2
        payload = random.Random(3).randbytes(200_000)
        sock2.sendall(payload)
        sock2.close()
        assert wait_for(lambda: sink.done and sink.done[0].is_set())
        assert bytes(sink.conns[0]) == payload
        assert wait_for(lambda: 1 not in serve.flows and 1 not in connect.flows)
        pusher.join(10)
        assert not pusher.is_alive()
        assert sum(pushed) > serve.session.cap
        assert any("flow 1: stalled" in r.getMessage() for r in caplog.records)
        assert serve.stats["ttl_drops"] == connect.stats["ttl_drops"] == 0
        held.close()
        sock1.close()
    finally:
        stuck.close()
        stop_pair(serve, connect)


def test_a_hanging_destination_connect_stalls_nothing_else(sink, frozen_heap):
    # A listener with a full accept backlog: the destination's SYNs go
    # unanswered, and the serve side's connect to it stays in progress.
    params = make_params(interval_ms=20, window_ms=2000)
    serve_cfg, connect_cfg = make_cfg_pair(params=params, t_prep_ms=10)
    serve, connect = start_pair(serve_cfg, connect_cfg)
    hang, filler = full_backlog_listener()
    try:
        sock1, response = open_flow(connect_cfg, hang.getsockname()[1])
        assert response["flow_id"] == 1
        sock1.sendall(b"waits for the connect")
        assert wait_for(lambda: 1 in serve.flows)
        marks = [len(serve.handoff_offsets), len(connect.handoff_offsets)]
        payload = random.Random(4).randbytes(1_000_000)
        sock2, response = open_flow(connect_cfg, sink.port)
        assert response["flow_id"] == 2
        for start in range(0, len(payload), 50_000):  # over about a second
            sock2.sendall(payload[start : start + 50_000])
            time.sleep(0.05)
        sock2.close()
        assert wait_for(lambda: sink.done and sink.done[0].is_set(), timeout=5)
        assert bytes(sink.conns[0]) == payload
        assert 1 in serve.flows and serve.flows[1].io.deadline is not None  # still connecting
        limit = (serve_cfg.t_prep + params.interval) / 1e9
        for endpoint, mark in zip((serve, connect), marks):
            offsets = endpoint.handoff_offsets[mark:]
            assert len(offsets) > 10 and max(offsets) <= limit
        sock1.close()
    finally:
        filler.close()
        hang.close()
        stop_pair(serve, connect)


@pytest.mark.parametrize("short", [3, 20])
def test_the_wire_writer_finishes_short_writes_in_order(short):
    # Each wake-up the kernel takes `short` bytes and then has no room; the
    # wire is selected for writing exactly while pieces are left.
    class ShortSocket:
        def __init__(self):
            self.pair = socket.socketpair()  # a real fd for the selector
            self.wire = bytearray()
            self.full = False

        def fileno(self):
            return self.pair[0].fileno()

        def sendmsg(self, pieces, ancdata, flags):
            assert flags == socket.MSG_DONTWAIT
            if self.full:
                raise BlockingIOError
            self.full = True
            taken = b"".join(pieces)[:short]
            self.wire += taken
            return len(taken)

    endpoint = TunnelEndpoint(make_cfg_pair()[0], "serve")
    endpoint._wire_sock = sock = ShortSocket()
    ticks = [(b"h" * 16, b"sealed tick"), (b"H" * 16, b"next")]
    for tick in ticks:
        endpoint._unsent += map(memoryview, tick)
    endpoint._write_wire()
    wake_ups = 1
    while endpoint._unsent:
        assert sock in endpoint._sel.get_map()
        sock.full = False
        endpoint._sel.get_map()[sock].data(WRITE)
        wake_ups += 1
    assert sock not in endpoint._sel.get_map()
    assert sock.wire == b"".join(b"".join(tick) for tick in ticks)
    assert wake_ups == -(-len(sock.wire) // short)
    endpoint._wire_sock = None
    endpoint.stop()
    for end in sock.pair:
        end.close()


def freeze_serve_wire_reads(monkeypatch) -> threading.Event:
    """The serve endpoint's receive worker reads nothing off the wire until the event is set."""
    thaw = threading.Event()
    recv_exact = endpoint_module._recv_exact

    def frozen(sock, n):
        if threading.current_thread().name == "serve-rx":
            thaw.wait(30)
        return recv_exact(sock, n)

    monkeypatch.setattr(endpoint_module, "_recv_exact", frozen)
    return thaw


def makes_no_tick(endpoint, seconds=0.2) -> bool:
    ticks = endpoint.stats["ticks"]
    time.sleep(seconds)
    return endpoint.stats["ticks"] == ticks


def start_stalled_bulk(monkeypatch, sink, payload):
    """Push a bulk flow into a pair whose serve side reads no wire, until the connect side makes no tick.

    The window is long enough that no byte waits out the TTL while the
    wire stands still.
    """
    thaw = freeze_serve_wire_reads(monkeypatch)
    params = make_params(interval_ms=10, window_ms=400, delta_w=1000.0, cutoff=1_000_000.0)
    serve_cfg, connect_cfg = make_cfg_pair(params=params, t_prep_ms=5, t_enq_ms=2)
    serve, connect = start_pair(serve_cfg, connect_cfg)
    sock, response = open_flow(connect_cfg, sink.port)
    assert response["ok"]

    def push():
        with contextlib.suppress(OSError):
            sock.sendall(payload)
            sock.close()

    threading.Thread(target=push, daemon=True).start()
    # The handoff that waits counts its enqueue overrun only once it is done.
    assert wait_for(lambda: makes_no_tick(connect), timeout=10)  # twenty intervals without one
    return thaw, serve, connect


def test_a_peer_that_reads_no_wire_stalls_no_socket(sink, monkeypatch):
    # Four unwritten ticks make the connect side's loop wait for the wire;
    # meanwhile it answers a new registration. Once the serve side reads
    # again, the bulk bytes arrive whole.
    payload = random.Random(5).randbytes(24 << 20)
    thaw, serve, connect = start_stalled_bulk(monkeypatch, sink, payload)
    try:
        started = time.monotonic()
        probe, response = open_flow(connect.cfg, sink.port, timeout=1)
        assert response["ok"] and time.monotonic() - started < 1
        probe.close()
        thaw.set()
        assert wait_for(lambda: len(sink.done) == 2 and all(d.is_set() for d in sink.done), timeout=30)
    finally:
        thaw.set()
        stop_pair(serve, connect)
    assert sorted(bytes(conn) for conn in sink.conns) == [b"", payload]
    assert serve.stats["integrity_errors"] == connect.stats["integrity_errors"] == 0
    assert connect.stats["enq_overruns"] > 0


def test_stop_returns_while_the_peer_reads_no_wire(sink, monkeypatch):
    thaw, serve, connect = start_stalled_bulk(monkeypatch, sink, bytes(24 << 20))
    try:
        started = time.monotonic()
        connect.stop(timeout=2)
        assert time.monotonic() - started < 2
        assert not any(t.is_alive() for t in connect._threads)
    finally:
        thaw.set()
        serve.stop()


def test_flow_slots_exhausted_then_rejected(sink):
    serve_cfg, connect_cfg = make_cfg_pair(flows_max=2)
    serve, connect = start_pair(serve_cfg, connect_cfg)
    socks = []
    try:
        for expected_id in (1, 2):
            sock, response = open_flow(connect_cfg, sink.port)
            assert response == {"ok": True, "flow_id": expected_id}
            socks.append(sock)
        _, response = open_flow(connect_cfg, sink.port)
        assert response["ok"] is False
        assert "slot" in response["error"]
        assert connect.stats["flows_rejected"] == 1
    finally:
        for sock in socks:
            sock.close()
        stop_pair(serve, connect)


def test_closed_flow_slot_is_reused(sink):
    serve_cfg, connect_cfg = make_cfg_pair()
    serve, connect = start_pair(serve_cfg, connect_cfg)
    try:
        sock, response = open_flow(connect_cfg, sink.port)
        assert response["flow_id"] == 1
        sock.sendall(b"first flow")
        sock.close()
        assert wait_for(lambda: not connect.flows)
        sock2, response2 = open_flow(connect_cfg, sink.port)
        assert response2 == {"ok": True, "flow_id": 1}
        sock2.close()
    finally:
        stop_pair(serve, connect)


def test_unreachable_destination_resets_flow():
    serve_cfg, connect_cfg = make_cfg_pair()
    serve, connect = start_pair(serve_cfg, connect_cfg)
    try:
        sock, response = open_flow(connect_cfg, free_port())  # nothing listens there
        assert response == {"ok": True, "flow_id": 1}
        sock.sendall(b"x" * 5000)
        # the peer answers the open with a reset; the flow and its queued bytes go
        assert wait_for(lambda: not connect.flows)
        assert connect.shaper.queued(1) == 0
        sock.close()
    finally:
        stop_pair(serve, connect)


@pytest.mark.parametrize("host, port", [("localhost", None), ("127.0.0.1", 65536 + 9)])
def test_a_destination_must_be_a_numeric_address_and_port(sink, host, port):
    # A name lookup would block the far endpoint's loop, and getaddrinfo takes
    # a port modulo 65536; either way the far side resets the flow.
    serve, connect = start_pair(*make_cfg_pair())
    try:
        sock, response = open_flow(connect.cfg, port or sink.port, dst_host=host)
        assert response == {"ok": True, "flow_id": 1}
        assert wait_for(lambda: not connect.flows and not serve.flows)
        assert sink.conns == []
        sock.close()
    finally:
        stop_pair(serve, connect)


def full_backlog_listener():
    """A listener whose accept queue is full, so a connect to it hangs; and the connection filling it."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    return listener, socket.create_connection(listener.getsockname(), timeout=5)


def test_a_destination_that_never_answers_is_reset(monkeypatch):
    monkeypatch.setattr(endpoint_module, "OPEN_TIMEOUT", 1.0)
    serve, connect = start_pair(*make_cfg_pair())
    hang, filler = full_backlog_listener()
    try:
        sock, response = open_flow(connect.cfg, hang.getsockname()[1])
        assert response["flow_id"] == 1
        assert wait_for(lambda: 1 in serve.flows)
        assert wait_for(lambda: not connect.flows and not serve.flows, timeout=5)
        sock.close()
        # A flow reset while its connect is still in progress takes its socket along.
        sock, response = open_flow(connect.cfg, hang.getsockname()[1])
        assert wait_for(lambda: 1 in serve.flows)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        assert wait_for(lambda: not serve.flows and not serve._ios and not connect._ios, timeout=0.9)
    finally:
        filler.close()
        hang.close()
        stop_pair(serve, connect)


def test_bad_registrations_are_answered_and_closed(sink, monkeypatch):
    monkeypatch.setattr(endpoint_module, "OPEN_TIMEOUT", 0.5)
    serve, connect = start_pair(*make_cfg_pair())
    app_addr = connect.cfg.app_listen_addr
    cases = [
        (b"", "registration timed out"),
        (b"x" * (endpoint_module.LINE_MAX + 1), "registration line too long"),
        (b"not json\n", "bad registration"),
        (b'{"dst_host": "127.0.0.1"}\n', "bad registration"),
        (b'{"dst_host": "127.0.0.1", "dst_port": 1, "reliability": false}\n', "unreliable mode"),
    ]
    try:
        for line, error in cases:
            with socket.create_connection(app_addr, timeout=10) as sock:
                sock.sendall(line)
                reply = json.loads(sock.makefile("rb").readline())
                assert reply["ok"] is False and error in reply["error"]
        for abort in (False, True):  # an application that leaves mid-line, or resets
            sock = socket.create_connection(app_addr, timeout=10)
            sock.sendall(b'{"dst_host": ')
            if abort:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
        assert wait_for(lambda: not connect._ios)
        assert not connect.flows and connect.stats["flows_rejected"] == 0
    finally:
        stop_pair(serve, connect)


def test_bytes_sent_with_the_registration_line_arrive(sink):
    serve, connect = start_pair(*make_cfg_pair())
    try:
        sock = socket.create_connection(connect.cfg.app_listen_addr, timeout=10)
        request = {"dst_host": "127.0.0.1", "dst_port": sink.port}
        sock.sendall(json.dumps(request).encode() + b"\nsent with the line, ")
        assert json.loads(sock.makefile("rb").readline()) == {"ok": True, "flow_id": 1}
        sock.sendall(b"then the rest")
        sock.close()
        assert wait_for(lambda: sink.done and sink.done[0].is_set())
        assert bytes(sink.conns[0]) == b"sent with the line, then the rest"
    finally:
        stop_pair(serve, connect)


def test_an_application_reset_resets_its_flow(sink):
    serve, connect = start_pair(*make_cfg_pair())
    try:
        sock, response = open_flow(connect.cfg, sink.port)
        sock.sendall(b"before the reset")
        assert wait_for(lambda: sink.conns and bytes(sink.conns[0]) == b"before the reset")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        assert wait_for(lambda: not connect.flows and not serve.flows)
        assert wait_for(lambda: sink.done[0].is_set())  # the destination's connection ends too
        assert wait_for(lambda: not connect._ios and not serve._ios)
    finally:
        stop_pair(serve, connect)


def test_idle_timeout_closes_session():
    serve_cfg, connect_cfg = make_cfg_pair(idle_timeout_ms=300)
    serve, connect = start_pair(serve_cfg, connect_cfg)
    assert connect.finished.wait(15)
    assert serve.finished.wait(15)
    serve.stop()
    connect.stop()


def test_control_stays_inside_shaped_ticks(sink):
    # every wire byte is accounted to a tick whose size the dp_len dictates;
    # opening and closing flows must not change that accounting
    serve_cfg, connect_cfg = make_cfg_pair()
    serve, connect = start_pair(serve_cfg, connect_cfg)
    try:
        for _ in range(3):
            sock, response = open_flow(connect_cfg, sink.port)
            assert response["ok"]
            sock.sendall(b"ping")
            sock.close()
        assert wait_for(lambda: len(sink.done) == 3 and all(d.is_set() for d in sink.done))
    finally:
        stop_pair(serve, connect)
    reference = RecordCodec(PSK, mtu=connect_cfg.mtu, flows_max=connect_cfg.flows_max)
    assert connect.stats["wire_bytes"] == sum(
        reference.wire_bytes_for_tick(dp_len) for _, dp_len, _, _, _ in connect.tick_stats
    )


def test_phase_discipline_handoff_offsets(sink):
    params = make_params(interval_ms=40, window_ms=2000, delta_w=10_000.0, cutoff=100_000.0)
    serve_cfg, connect_cfg = make_cfg_pair(params=params, t_prep_ms=20, t_enq_ms=5)
    serve, connect = start_pair(serve_cfg, connect_cfg)
    try:
        time.sleep(1.0)  # idle phase
        idle_count = len(connect.handoff_offsets)
        sock, response = open_flow(connect_cfg, sink.port)
        assert response["ok"]
        for _ in range(20):
            sock.sendall(bytes(20_000))
            time.sleep(0.02)
        sock.close()
        assert wait_for(lambda: sink.done and sink.done[0].is_set())
    finally:
        stop_pair(serve, connect)
    offsets = list(connect.handoff_offsets)
    idle = offsets[2:idle_count]
    loaded = offsets[idle_count : idle_count + 20]
    assert idle and loaded
    t_prep_sec = 0.020
    assert t_prep_sec <= statistics.median(idle) < t_prep_sec + 0.03
    assert t_prep_sec <= statistics.median(loaded) < t_prep_sec + 0.03
    assert abs(statistics.median(loaded) - statistics.median(idle)) < 0.01


def test_graceful_shutdown_exchanges_bye(sink):
    serve_cfg, connect_cfg = make_cfg_pair()
    serve, connect = start_pair(serve_cfg, connect_cfg)
    sock, response = open_flow(connect_cfg, sink.port)
    assert response["ok"]
    sock.sendall(b"tail bytes")
    connect.shutdown()
    assert connect.finished.wait(15)
    assert serve.finished.wait(15)
    serve.stop()
    connect.stop()
    assert bytes(sink.conns[0]) == b"tail bytes"
