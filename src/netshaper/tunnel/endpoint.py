"""Live tunnel endpoint: the threads, sockets and clocks around a ``TunnelSession``.

The session holds the tick protocol; this shell moves bytes between sockets
and the session and calls its ``tick`` on the interval grid. Three execution
contexts share state through narrow channels: application socket threads
produce byte chunks into bounded per-flow handoff queues; the prepare thread
owns the tick, offers the handoffs to the session while it waits for each
interval boundary (so a handoff queue is a burst buffer, not a per-tick rate
cap), ticks the session at the boundary and hands the sealed tick to the
transmit worker, which writes it with one call; the receive worker reads the
inbound wire stream, hands each tick to the session and acts on its events:
per-flow delivery queues, destination connects, closes and the session bye.
"""

from __future__ import annotations

import contextlib
import json
import logging
import queue
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from functools import partial

from ..errors import SessionError
from .config import TunnelConfig
from .records import Hello, check_params_match, derive_direction_keys, random_nonce, read_hello
from .session import Flow, TunnelSession

log = logging.getLogger("netshaper.tunnel")

NS = 1_000_000_000
APP_CHUNK = 16384
HANDOFF_CHUNKS = 64
DRAIN_EVERY = 0.002  # seconds between handoff drains while a tick waits
RX_CHUNKS = 64
DELIVER_TIMEOUT = 5.0
_EOF = object()


@dataclass(eq=False)
class FlowIO:
    """A flow's socket and the queues between its proxy threads and the session's threads."""

    sock: socket.socket
    handoff: queue.Queue = field(default_factory=lambda: queue.Queue(HANDOFF_CHUNKS))
    rx_q: queue.Queue = field(default_factory=lambda: queue.Queue(RX_CHUNKS))
    staged: bytes | None = None  # a chunk the session refused, offered again next drain
    dead: bool = False
    writer: threading.Thread | None = None


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    with memoryview(buf) as view:
        pos = 0
        while pos < n:
            got = sock.recv_into(view[pos:])
            if not got:
                raise SessionError("peer closed the tunnel connection")
            pos += got
    return buf


def _send_pieces(sock: socket.socket, pieces: tuple[bytes, ...]) -> None:
    sent = sock.sendmsg(pieces)
    for piece in pieces:  # a blocking sendmsg stops short only on a signal
        if sent < len(piece):
            sock.sendall(memoryview(piece)[sent:])
        sent = max(0, sent - len(piece))


def _read_line(sock: socket.socket, limit: int = 65536) -> bytes:
    buf = bytearray()
    while not buf.endswith(b"\n"):
        if len(buf) > limit:
            raise SessionError("registration line too long")
        chunk = sock.recv(1)
        if not chunk:
            raise SessionError("peer closed before finishing the line")
        buf += chunk
    return bytes(buf)


class TunnelEndpoint:
    """One side of a shaping tunnel; drive with start() and shutdown()/stop().

    ``session`` exists once ``establish`` has run; ``flows``, ``shaper``,
    ``stats`` and ``tick_stats`` read through to it.
    """

    def __init__(self, cfg: TunnelConfig, role: str, tick_log=None, seed: int | None = None):
        if role not in ("serve", "connect"):
            raise ValueError(f"role must be serve or connect, got {role!r}")
        self.cfg = cfg
        self.role = role
        self.tick_log = tick_log
        self._rng = random.Random(seed)
        self.session: TunnelSession | None = None
        self._flows_lock = threading.Lock()
        self._tx_queue: queue.Queue = queue.Queue(4)
        self._stop = threading.Event()
        self._closing = threading.Event()
        self._threads: list[threading.Thread] = []
        # A graceful close finishes once both the prepare and the receive
        # loop have ended; any other end of either loop finishes at once.
        self._graceful_ends = 0
        self._graceful_lock = threading.Lock()
        self._wire_sock: socket.socket | None = None
        self._listen_sock: socket.socket | None = None
        self._app_listen_sock: socket.socket | None = None
        self._last_activity = time.monotonic()
        self._overruns = {"prep_overruns": 0, "enq_overruns": 0}
        self.handoff_offsets: list[float] = []
        self.session_ready = threading.Event()
        self.finished = threading.Event()

    @property
    def flows(self) -> dict[int, Flow]:
        return self.session.flows

    @property
    def shaper(self):
        return self.session.shaper

    @property
    def tick_stats(self) -> list[tuple[int, int, int, int, int]]:
        return self.session.tick_stats

    @property
    def stats(self) -> dict:
        """The session's counters and this shell's overrun counts, in one dict."""
        return {**self.session.stats, **self._overruns}

    # --- establishment ---

    def _spawn(self, target, name) -> threading.Thread:
        t = threading.Thread(target=target, name=f"{self.role}-{name}", daemon=True)
        t.start()
        with self._flows_lock:  # flow threads spawn flow threads
            self._threads = [u for u in self._threads if u.is_alive()] + [t]
        return t

    def establish(self) -> None:
        """Connect or accept the wire socket, run the parameter handshake, make the session."""
        if self.role == "connect":
            sock = socket.create_connection(self.cfg.peer_addr, timeout=10)
        else:
            self._listen_sock = socket.create_server(self.cfg.listen_addr)
            self._listen_sock.settimeout(30)
            sock, _ = self._listen_sock.accept()
        sock.settimeout(30)
        try:
            my_nonce = random_nonce()
            hello = Hello(self.role, my_nonce, self.cfg.wire_params()).encode(self.cfg.psk)
            connect = self.role == "connect"
            if connect:  # the connecting side speaks first
                sock.sendall(hello)
            peer = read_hello(lambda n: _recv_exact(sock, n), self.cfg.psk)
            if not connect:
                sock.sendall(hello)
            if peer.role == self.role:
                raise SessionError(f"both endpoints configured as {self.role!r}")
            check_params_match(self.cfg.wire_params(), peer.params)
            salt = my_nonce + peer.nonce if connect else peer.nonce + my_nonce
            c2s, s2c = derive_direction_keys(self.cfg.psk, salt)
            tx_key, rx_key = (c2s, s2c) if connect else (s2c, c2s)
            self.session = TunnelSession(self.cfg, tx_key, rx_key, self._rng, self._flows_lock)
        except Exception:
            sock.close()
            raise
        sock.settimeout(None)
        self._wire_sock = sock
        self._last_activity = time.monotonic()
        self.session_ready.set()
        log.info("%s: session established with %s", self.role, sock.getpeername())

    def start(self) -> None:
        self.establish()
        self._spawn(self._prepare_loop, "prepare")
        self._spawn(self._tx_loop, "tx")
        self._spawn(self._rx_loop, "rx")
        if self.cfg.app_listen_addr is not None:
            self._app_listen_sock = socket.create_server(self.cfg.app_listen_addr)
            self._app_listen_sock.settimeout(0.2)
            self._spawn(self._app_accept_loop, "accept")

    def shutdown(self) -> None:
        """Graceful close: flow closes and the session bye ride shaped ticks."""
        self._closing.set()

    def stop(self, timeout: float = 10.0) -> None:
        """Hard stop; joins worker threads."""
        self._stop.set()
        self.finished.set()
        # The transmit worker ends on the sentinel or the shut socket, not a closed fd.
        if self._wire_sock is not None:
            with contextlib.suppress(OSError):
                self._wire_sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(queue.Full):
            self._tx_queue.put_nowait(None)
        for sock in (self._wire_sock, self._listen_sock, self._app_listen_sock):
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.close()
        for io in self._flow_ios():
            # close() does not wake a reader blocked in recv; shutdown() does.
            with contextlib.suppress(OSError):
                io.sock.shutdown(socket.SHUT_RDWR)
            self._release(io)
        for t in self._threads:
            t.join(timeout)

    def _flow_ios(self) -> list[FlowIO]:
        flows = self.session.snapshot() if self.session is not None else []
        return [flow.io for flow in flows if flow.io is not None]

    # --- application side (UShaper role) ---

    def _app_accept_loop(self):
        while not self._stop.is_set() and not self._closing.is_set():
            try:
                conn, addr = self._app_listen_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._spawn(lambda c=conn, a=addr: self._register_app_flow(c, a), "register")

    def _register_app_flow(self, conn: socket.socket, addr):
        try:
            conn.settimeout(10)
            line = _read_line(conn)
            req = json.loads(line.decode())
            dst_host, dst_port = req["dst_host"], int(req["dst_port"])
        except (SessionError, ValueError, KeyError) as exc:
            log.warning("registration from %s rejected: %s", addr, exc)
            self._reject_app(conn, f"bad registration: {exc}")
            return
        if req.get("reliability", True) is not True:
            self._reject_app(conn, "unreliable mode is not supported")
            return
        flow = self.session.open_flow(dst_host, dst_port, FlowIO(conn))
        if flow is None:
            self._reject_app(conn, "no free flow slot")
            return
        conn.settimeout(None)
        conn.sendall(json.dumps({"ok": True, "flow_id": flow.flow_id}).encode() + b"\n")
        self._start_proxy(flow)
        log.info("flow %d registered for %s:%s", flow.flow_id, dst_host, dst_port)

    @staticmethod
    def _reject_app(conn: socket.socket, reason: str):
        try:
            conn.sendall(json.dumps({"ok": False, "error": reason}).encode() + b"\n")
        except OSError:
            pass
        conn.close()

    def _start_proxy(self, flow: Flow):
        self._spawn(lambda: self._app_reader(flow.io), f"read-{flow.flow_id}")
        flow.io.writer = self._spawn(lambda: self._app_writer(flow.io), f"write-{flow.flow_id}")

    def _app_reader(self, io: FlowIO):
        try:
            while not self._stop.is_set():
                data = io.sock.recv(APP_CHUNK)
                if not data:
                    break
                io.handoff.put(data)
        except OSError:
            pass
        io.handoff.put(_EOF)

    def _app_writer(self, io: FlowIO):
        try:
            while not self._stop.is_set():
                item = io.rx_q.get()
                if item is _EOF:
                    with contextlib.suppress(OSError):
                        io.sock.shutdown(socket.SHUT_WR)
                    return
                io.sock.sendall(item)
        except OSError:
            pass

    def _release(self, io: FlowIO | None):
        # The idle timeout needs no flow, so it counts from the last teardown.
        self._last_activity = time.monotonic()
        if io is None or io.dead:
            return
        io.dead = True
        io.rx_q.put(_EOF)
        with contextlib.suppress(OSError):
            io.sock.close()

    # --- prepare loop (DShaper role) ---

    def _sleep_until(self, deadline: float):
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.05))

    def _drain_until(self, deadline: float):
        while not self._stop.is_set() and time.monotonic() < deadline:
            self._drain_handoffs()
            time.sleep(max(0.0, min(deadline - time.monotonic(), DRAIN_EVERY)))

    def _drain_handoffs(self, closing: bool = False):
        """Offer each flow's handed-over chunks to the session, oldest first.

        While ``closing``, a flow with nothing left to hand over ends its
        stream, so its FIN follows its last byte.
        """
        for flow in self.session.snapshot():
            io = flow.io
            if io is None:
                continue
            while True:
                if io.staged is None:
                    try:
                        io.staged = io.handoff.get_nowait()
                    except queue.Empty:
                        if closing:
                            self.session.app_eof(flow)
                        break
                if io.staged is _EOF:
                    io.staged = None
                    self.session.app_eof(flow)
                    break
                if not self.session.offer(flow, io.staged):
                    break
                io.staged = None

    def _prepare_loop(self):
        cfg = self.cfg
        session = self.session
        t_sec = cfg.params.interval / NS
        t_prep_sec = cfg.t_prep / NS
        t_enq_sec = cfg.t_enq / NS
        epoch = time.monotonic()
        k = 0
        graceful = False
        try:
            while not self._stop.is_set():
                k += 1
                deadline = epoch + k * t_sec
                self._drain_until(deadline)
                if self._stop.is_set():
                    break
                if self._closing.is_set():
                    session.close()
                    self._drain_handoffs(closing=True)

                wire_tick, ended = session.tick(k)

                if time.monotonic() - deadline > t_prep_sec:
                    self._overruns["prep_overruns"] += 1
                self._sleep_until(deadline + t_prep_sec)
                self.handoff_offsets.append(time.monotonic() - deadline)
                self._tx_queue.put(wire_tick)
                if time.monotonic() - deadline > t_prep_sec + t_enq_sec:
                    self._overruns["enq_overruns"] += 1
                if self.tick_log is not None:
                    self.tick_log(*session.tick_stats[-1])

                for flow in ended:
                    self._release(flow.io)
                if session.done:
                    graceful = True
                    break
                if (
                    cfg.idle_timeout > 0
                    and not self._closing.is_set()
                    and not session.flows
                    and time.monotonic() - self._last_activity > cfg.idle_timeout / NS
                ):
                    log.info("idle timeout, closing session")
                    self._closing.set()
        except (SessionError, OSError) as exc:
            log.warning("prepare loop stopped: %s", exc)
        finally:
            self._tx_queue.put(None)
            if graceful:
                self._loop_ended_gracefully()
            else:
                self.finished.set()

    def _loop_ended_gracefully(self):
        with self._graceful_lock:
            self._graceful_ends += 1
            if self._graceful_ends == 2:
                self.finished.set()

    # --- wire workers ---

    def _tx_loop(self):
        try:
            while True:
                wire_tick = self._tx_queue.get()
                if wire_tick is None:
                    break
                _send_pieces(self._wire_sock, wire_tick)
        except OSError as exc:
            if not self._stop.is_set():
                log.warning("transmit worker stopped: %s", exc)
            self.finished.set()
        finally:
            try:
                self._wire_sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def _rx_loop(self):
        session = self.session
        recv = partial(_recv_exact, self._wire_sock)
        try:
            while not self._stop.is_set():
                # Nothing of a tick stays referenced here while the next one is read.
                self._on_events(session.receive(*session.codec_rx.read_tick(recv)))
        except (SessionError, OSError) as exc:
            if not self._stop.is_set() and not self._closing.is_set():
                log.warning("receive worker stopped: %s", exc)
        if self._stop.is_set() or not self._closing.is_set():
            self.finished.set()
            return
        # The wire ended during a close: hand what arrived to the applications
        # before the session counts as finished.
        self._deliver_received()
        self._loop_ended_gracefully()

    def _on_events(self, events: list[tuple]):
        for kind, *args in events:
            if kind == "open":
                self._open_remote_flow(*args)
            elif kind == "bye":
                self._closing.set()
            elif args[0].io is not None:  # "data" or "eof" for a flow with a socket
                args[0].io.rx_q.put(args[1] if kind == "data" else _EOF)

    def _deliver_received(self):
        """Let each flow's writer hand its queued bytes to the application."""
        deadline = time.monotonic() + DELIVER_TIMEOUT
        for io in self._flow_ios():
            try:
                io.rx_q.put(_EOF, timeout=max(0.0, deadline - time.monotonic()))
            except queue.Full:
                continue
            if io.writer is not None:
                io.writer.join(max(0.0, deadline - time.monotonic()))

    def _open_remote_flow(self, flow: Flow, dst_host: str, dst_port: int):
        try:
            conn = socket.create_connection((dst_host, dst_port), timeout=10)
        except OSError as exc:
            log.warning("flow %d: cannot reach %s:%s (%s)", flow.flow_id, dst_host, dst_port, exc)
            self.session.reset(flow, "connect-failed")
            return
        flow.io = FlowIO(conn)
        if self.session.flows.get(flow.flow_id) is not flow:  # the peer reset it meanwhile
            self._release(flow.io)
            return
        self._start_proxy(flow)
        log.info("flow %d opened towards %s:%s", flow.flow_id, dst_host, dst_port)
