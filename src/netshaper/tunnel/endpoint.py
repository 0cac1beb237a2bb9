"""Live tunnel endpoint: the sockets, workers and clock around a ``TunnelSession``.

Two workers run an endpoint, however many flows it carries. The loop
thread owns the tick and is the one thread that calls the session: it waits
in ``select`` until the next tick deadline or handoff time, and meanwhile,
without blocking, accepts and registers application connections, reads
their bytes into ``offer``, connects to destinations, hands each opened tick
to ``receive`` and writes delivered bytes and sealed ticks out; it makes no
tick while four are unwritten. The receive worker reads and opens each
inbound tick and hands it to the loop through a small bounded queue and a
wake-up byte.

Destinations must be numeric addresses, because a name lookup would block
the loop. A flow whose application stops reading is reset once cutoff × W/T
delivered bytes wait for it, the bound ``offer`` puts on the other direction.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import queue
import random
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from errno import EINPROGRESS
from functools import partial

from ..errors import SessionError, WireClosed
from .config import TunnelConfig
from .records import Hello, check_params_match, derive_direction_keys, random_nonce, read_hello
from .session import Flow, TunnelSession

log = logging.getLogger("netshaper.tunnel")

NS = 1_000_000_000
APP_CHUNK = 65536
LINE_MAX = 65536
OPEN_TIMEOUT = 10.0  # seconds for a registration line or a destination connect
DELIVER_TIMEOUT = 5.0
READ, WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


@dataclass(eq=False)
class FlowIO:
    """An application or destination socket; registering or connecting while ``deadline`` is set."""

    sock: socket.socket
    flow: Flow | None = None  # None while registering, and once the session has ended the flow
    deadline: float | None = None
    staged: bytes | None = None  # read but not yet offered: the registration line, or a refused chunk
    out: bytearray = field(default_factory=bytearray)  # delivered bytes not yet written
    peer_eof: bool = False  # shut the write side once ``out`` is written


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    with memoryview(buf) as view:
        pos = 0
        while pos < n:
            got = sock.recv_into(view[pos:])
            if not got:
                raise WireClosed("peer closed the tunnel connection")
            pos += got
    return buf


class TunnelEndpoint:
    """One side of a shaping tunnel; drive with start() and shutdown()/stop().

    ``establish`` makes the ``session``; ``flows``, ``shaper``, ``stats``
    (with this shell's overrun counts) and ``tick_stats`` are its own.
    """

    def __init__(self, cfg: TunnelConfig, role: str, tick_log=None, seed: int | None = None):
        if role not in ("serve", "connect"):
            raise ValueError(f"role must be serve or connect, got {role!r}")
        self.cfg = cfg
        self.role = role
        self.tick_log = tick_log
        self._rng = random.Random(seed)
        self.session: TunnelSession | None = None
        self._unsent: list[memoryview] = []  # sealed tick pieces not yet written, two a tick
        self._rx_queue: queue.Queue = queue.Queue(4)  # opened ticks, then None once the wire ends
        self._sel = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._ios: set[FlowIO] = set()
        self._wire_ended = False
        self._closing = threading.Event()
        self._threads: list[threading.Thread] = []
        self._wire_sock: socket.socket | None = None
        self._app_listen_sock: socket.socket | None = None
        self._last_activity = time.monotonic()
        self.handoff_offsets: list[float] = []
        self.session_ready = threading.Event()
        self.finished = threading.Event()

    # --- establishment ---

    def establish(self) -> None:
        """Connect or accept the wire socket, run the parameter handshake, make the session."""
        if self.role == "connect":
            sock = socket.create_connection(self.cfg.peer_addr, timeout=10)
        else:
            with socket.create_server(self.cfg.listen_addr) as listener:
                listener.settimeout(30)
                sock, _ = listener.accept()
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
            self.session = session = TunnelSession(self.cfg, tx_key, rx_key, self._rng)
        except Exception:
            sock.close()
            raise
        session.stats.update(prep_overruns=0, enq_overruns=0)
        self.flows, self.shaper, self.stats, self.tick_stats = (
            session.flows, session.shaper, session.stats, session.tick_stats
        )
        sock.settimeout(None)
        self._wire_sock = sock
        self._last_activity = time.monotonic()
        self.session_ready.set()
        log.info("%s: session established with %s", self.role, sock.getpeername())

    def start(self) -> None:
        self.establish()
        self._chunk = min(APP_CHUNK, self.session.cap)  # a chunk the cap can take
        self._sel.register(self._wake_r, READ, self._on_wake)
        if self.cfg.app_listen_addr is not None:
            self._app_listen_sock = socket.create_server(self.cfg.app_listen_addr)
            self._app_listen_sock.setblocking(False)
            self._sel.register(self._app_listen_sock, READ, self._on_accept)
        for target, name in ((self._loop, "loop"), (self._rx_loop, "rx")):
            self._threads.append(threading.Thread(target=target, name=f"{self.role}-{name}", daemon=True))
            self._threads[-1].start()

    def shutdown(self) -> None:
        """Graceful close: flow closes and the session bye ride shaped ticks."""
        self._closing.set()

    def stop(self, timeout: float = 10.0) -> None:
        """Hard stop: drops unwritten ticks, joins both workers, then closes every socket."""
        self.finished.set()
        self._wake()
        # The receive worker ends on the shut socket, not a closed fd.
        if self._wire_sock is not None:
            with contextlib.suppress(OSError):
                self._wire_sock.shutdown(socket.SHUT_RDWR)
        for t in self._threads:
            t.join(timeout)
        for io in list(self._ios):
            self._close(io)
        self._sel.close()
        for sock in (self._wire_sock, self._app_listen_sock, self._wake_r, self._wake_w):
            if sock is not None:
                sock.close()

    def _wake(self):
        with contextlib.suppress(OSError):  # a full pair already holds a wake-up
            self._wake_w.send(b"\0")

    # --- the loop (DShaper role) ---

    def _loop(self):
        cfg = self.cfg
        session = self.session
        stats = self.stats
        t_sec = cfg.params.interval / NS
        t_prep_sec = cfg.t_prep / NS
        t_enq_sec = cfg.t_enq / NS
        epoch = time.monotonic()
        k = 0
        try:
            while not self.finished.is_set() and not session.done:
                k += 1
                deadline = epoch + k * t_sec
                self._serve_until(deadline)
                if self.finished.is_set():
                    break
                if self._closing.is_set():
                    session.close()
                    for flow in session.flows.values():  # a staged chunk still goes before the FIN
                        if flow.io is None or flow.io.staged is None:
                            session.app_eof(flow)

                wire_tick, ended = session.tick(k)

                if time.monotonic() - deadline > t_prep_sec:
                    stats["prep_overruns"] += 1
                # epoll rounds a timeout up to whole milliseconds, so the last one is slept.
                self._serve_until(deadline + t_prep_sec - 0.001)
                time.sleep(max(0.0, deadline + t_prep_sec - time.monotonic()))
                self.handoff_offsets.append(time.monotonic() - deadline)
                # Two pieces a tick: while four ticks are unwritten, wait for one to go.
                self._serve_until(math.inf, lambda: len(self._unsent) < 7)
                self._unsent += map(memoryview, wire_tick)
                self._write_wire()
                if time.monotonic() - deadline > t_prep_sec + t_enq_sec:
                    stats["enq_overruns"] += 1
                if self.tick_log is not None:
                    self.tick_log(*self.tick_stats[-1])
                for flow in ended:
                    self._release(flow.io)
                    # The idle timeout needs no flow, so it counts from the last teardown.
                    self._last_activity = time.monotonic()
                self._after_tick()
                if (
                    cfg.idle_timeout > 0
                    and not self._closing.is_set()
                    and not session.flows
                    and time.monotonic() - self._last_activity > cfg.idle_timeout / NS
                ):
                    log.info("idle timeout, closing session")
                    self._closing.set()
            if session.done:  # write the last ticks, then deliver the peer's that are still on the wire
                linger = time.monotonic() + DELIVER_TIMEOUT
                self._serve_until(linger, lambda: not self._unsent)
                self._wire_sock.shutdown(socket.SHUT_WR)
                self._serve_until(linger, lambda: self._wire_ended and not any(io.out for io in self._ios))
        except (SessionError, OSError) as exc:
            if not self.finished.is_set():
                log.warning("loop stopped: %s", exc)
        finally:
            self.finished.set()

    def _serve_until(self, t: float, done=lambda: False):
        """Serve socket events until monotonic time ``t``, ``done()`` or the end; at least one pass."""
        while True:
            for key, mask in self._sel.select(0.0 if done() else min(1.0, t - time.monotonic())):
                key.data(mask)
            if self.finished.is_set() or done() or time.monotonic() >= t:
                return

    def _write_wire(self, mask: int = WRITE):
        """Write what the kernel takes of the unwritten pieces; select the wire while any is left."""
        unsent = self._unsent
        with contextlib.suppress(BlockingIOError):
            while unsent:  # the fd stays blocking for the receive worker, so each call says not to wait
                sent = self._wire_sock.sendmsg(unsent, (), socket.MSG_DONTWAIT)
                while unsent and sent >= len(unsent[0]):
                    sent -= len(unsent.pop(0))
                if sent:
                    unsent[0] = unsent[0][sent:]
        key = self._sel.get_map().get(self._wire_sock)
        if unsent and key is None:
            self._sel.register(self._wire_sock, WRITE, self._write_wire)
        elif key is not None and not unsent:
            self._sel.unregister(self._wire_sock)

    def _after_tick(self):
        """Offer the chunks the session refused; end registrations and connects past due."""
        now = time.monotonic()
        for io in list(self._ios):
            if io.flow is not None and io.staged is not None and self.session.offer(io.flow, io.staged):
                io.staged = None
                self._watch(io)
            elif io.deadline is not None and now > io.deadline:
                if io.flow is None:
                    self._reject(io, "registration timed out")
                else:
                    self._fail(io, "connect-failed", "connect timed out")

    # --- sockets ---

    def _watch(self, io: FlowIO):
        """Select ``io`` for what its state waits on; close it once released and written."""
        flow = io.flow
        if io.deadline is not None:  # the registration line, or the connect's outcome
            events = WRITE if flow else READ
        elif flow is None and not io.out:
            return self._close(io)
        else:
            reading = flow is not None and io.staged is None and not (flow.tx_eof or flow.rst)
            events = (WRITE if io.out else 0) | (READ if reading else 0)
        key = self._sel.get_map().get(io.sock)
        if key is not None and key.events != events:
            self._sel.unregister(io.sock)
        if events and (key is None or key.events != events):
            self._sel.register(io.sock, events, partial(self._on_io, io))

    def _close(self, io: FlowIO):
        with contextlib.suppress(KeyError):
            self._sel.unregister(io.sock)
        self._ios.discard(io)
        io.sock.close()

    def _release(self, io: FlowIO | None):
        """The session ended the flow: write what is left, then close."""
        if io in self._ios:
            io.flow = None
            if io.deadline is not None:  # still connecting: nothing can be written
                self._close(io)
            else:
                self._watch(io)

    def _fail(self, io: FlowIO, reason: str, detail):
        """Reset the flow of a socket that failed; the next tick tears the flow down."""
        log.warning("flow %d: %s (%s)", io.flow.flow_id, reason, detail)
        if not io.flow.rst:
            self.session.reset(io.flow, reason)
        io.flow.io = None
        self._close(io)

    def _on_io(self, io: FlowIO, mask: int):
        if io not in self._ios:  # closed earlier in this batch of events
            return
        flow = io.flow
        try:
            if io.deadline is not None and flow is None:
                self._read_registration(io)
                return
            if io.deadline is not None:
                err = io.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if err:
                    self._fail(io, "connect-failed", os.strerror(err))
                    return
                io.deadline = None
            if mask & WRITE and io.out:
                del io.out[: io.sock.send(io.out)]
            if mask & WRITE and io.peer_eof and not io.out:
                io.sock.shutdown(socket.SHUT_WR)
            if mask & READ and flow is not None and not (flow.tx_eof or flow.rst):
                data = io.sock.recv(self._chunk)
                if not data:
                    self.session.app_eof(flow)
                elif not self.session.offer(flow, data):
                    io.staged = data
        except BlockingIOError:
            pass
        except OSError as exc:
            if flow is None:
                self._close(io)
            else:
                self._fail(io, "app-error", exc)
            return
        self._watch(io)

    # --- application side (UShaper role) ---

    def _on_accept(self, mask: int):
        with contextlib.suppress(OSError):
            conn, _ = self._app_listen_sock.accept()
            conn.setblocking(False)
            io = FlowIO(conn, deadline=time.monotonic() + OPEN_TIMEOUT, staged=b"")
            self._ios.add(io)
            self._watch(io)

    def _read_registration(self, io: FlowIO):
        chunk = io.sock.recv(self._chunk)
        io.staged += chunk
        head, newline, rest = io.staged.partition(b"\n")
        if not chunk or len(head) > LINE_MAX:
            self._reject(io, "registration line too long" if chunk else "closed before finishing the line")
            return
        if not newline:
            return
        try:
            req = json.loads(head)
            dst_host, dst_port = str(req["dst_host"]), int(req["dst_port"])
            if req.get("reliability", True) is not True:
                raise ValueError("unreliable mode is not supported")
        except (ValueError, KeyError, TypeError) as exc:
            self._reject(io, f"bad registration: {exc}")
            return
        flow = None if self._closing.is_set() else self.session.open_flow(dst_host, dst_port, io)
        if flow is None:
            self._reject(io, "the session is closing" if self._closing.is_set() else "no free flow slot")
            return
        io.flow, io.deadline, io.staged = flow, None, rest or None
        io.out += json.dumps({"ok": True, "flow_id": flow.flow_id}).encode() + b"\n"
        self._watch(io)
        log.info("flow %d registered for %s:%s", flow.flow_id, dst_host, dst_port)

    def _reject(self, io: FlowIO, reason: str):
        log.warning("registration rejected: %s", reason)
        with contextlib.suppress(OSError):  # a short reply on a fresh socket
            io.sock.send(json.dumps({"ok": False, "error": reason}).encode() + b"\n")
        self._close(io)

    # --- destination side ---

    def _on_events(self, events: list[tuple]):
        for kind, *args in events:
            if kind == "open":
                self._open_remote_flow(*args)
            elif kind == "bye":
                self._closing.set()
            elif args[0].io is not None:  # "data" or "eof" for a flow with a socket
                io = args[0].io
                if kind == "eof":
                    io.peer_eof = True
                elif len(io.out) + len(args[1]) > self.session.cap:
                    self._fail(io, "stalled", f"{len(io.out)} bytes unread")
                    continue
                else:
                    io.out += args[1]
                if io.deadline is None:  # connected: write at once
                    self._on_io(io, WRITE)

    def _open_remote_flow(self, flow: Flow, dst_host: str, dst_port: int):
        try:  # numeric addresses only: a name lookup would block the loop
            if not 0 < dst_port < 65536:  # getaddrinfo would take it modulo 65536
                raise ValueError(f"port {dst_port} out of range")
            family, kind, proto, _, addr = socket.getaddrinfo(
                dst_host, dst_port, type=socket.SOCK_STREAM, flags=socket.AI_NUMERICHOST
            )[0]
            sock = socket.socket(family, kind, proto)
        except (OSError, ValueError) as exc:
            log.warning("flow %d: cannot reach %s:%s (%s)", flow.flow_id, dst_host, dst_port, exc)
            self.session.reset(flow, "connect-failed")
            return
        flow.io = io = FlowIO(sock, flow, time.monotonic() + OPEN_TIMEOUT)
        self._ios.add(io)
        io.sock.setblocking(False)
        err = io.sock.connect_ex(addr)
        if err not in (0, EINPROGRESS):
            self._fail(io, "connect-failed", os.strerror(err))
            return
        self._watch(io)
        log.info("flow %d opening towards %s:%s", flow.flow_id, dst_host, dst_port)

    def _on_wake(self, mask: int):
        self._wake_r.recv(4096)
        with contextlib.suppress(queue.Empty):
            while (opened := self._rx_queue.get_nowait()) is not None:
                self._on_events(self.session.receive(*opened))
            self._wire_ended = True
            if not self._closing.is_set():
                self.finished.set()

    # --- the receive worker ---

    def _rx_loop(self):
        read_tick = self.session.codec_rx.read_tick
        recv = partial(_recv_exact, self._wire_sock)
        try:
            while not self.finished.is_set():
                # Nothing of a tick stays referenced here while the next one is read.
                self._hand_to_loop(read_tick(recv))
        except (SessionError, OSError) as exc:
            if not self.finished.is_set() and not self._closing.is_set():
                # A closed wire is how a peer's stop() looks from here.
                level = logging.INFO if isinstance(exc, WireClosed) else logging.WARNING
                log.log(level, "receive worker stopped: %s", exc)
        self._hand_to_loop(None)

    def _hand_to_loop(self, opened):
        while not self.finished.is_set():
            with contextlib.suppress(queue.Full):
                self._rx_queue.put(opened, timeout=0.1)
                self._wake()
                return
