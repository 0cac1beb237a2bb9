"""Live tunnel endpoint: application proxy, fixed-phase shaping loop, wire workers.

Three execution contexts per endpoint share state through narrow channels:
application socket threads produce byte chunks into bounded per-flow handoff
queues; the prepare thread owns the shaping state, drains the handoffs while
it waits for each interval boundary (so a handoff queue is a burst buffer,
not a per-tick rate cap), runs step, frames, encode and seal at the boundary
and hands the sealed tick to the transmit worker, which writes it with one
call; the receive worker owns the inbound wire stream and feeds per-flow
delivery queues. Control messages (flow open/close, session bye) ride the
shaped control stream, so no wire byte leaves outside a shaped interval.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import queue
import random
import socket
import threading
import time
from dataclasses import dataclass, field

from ..dpcore import gaussian_sigma
from ..errors import SessionError
from ..shaping import Shaper
from .config import TunnelConfig
from .frames import KIND_CONTROL, KIND_DATA, KIND_DUMMY, build_frames, decode_block, encode_block
from .records import (
    CIPHER_NULL,
    Hello,
    RecordCodec,
    check_params_match,
    derive_direction_keys,
    random_nonce,
    read_hello,
)

log = logging.getLogger("netshaper.tunnel")

NS = 1_000_000_000
CONTROL_FLOW = 0
APP_CHUNK = 16384
HANDOFF_CHUNKS = 64
DRAIN_EVERY = 0.002  # seconds between handoff drains while a tick waits
RX_CHUNKS = 64
DELIVER_TIMEOUT = 5.0
_EOF = object()


@dataclass
class FlowEntry:
    """Per-flow state shared between the proxy threads and the prepare loop."""

    flow_id: int
    sock: socket.socket | None
    handoff: queue.Queue = field(default_factory=lambda: queue.Queue(HANDOFF_CHUNKS))
    rx_q: queue.Queue = field(default_factory=lambda: queue.Queue(RX_CHUNKS))
    staged: bytes | None = None
    buffer: bytearray = field(default_factory=bytearray)
    tx_offset: int = 0
    rx_offset: int = 0
    tx_eof: bool = False
    fin_sent: bool = False
    fin_rcvd: bool = False
    rst: bool = False
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
    """One side of a shaping tunnel; drive with start()/stop() or run()."""

    def __init__(self, cfg: TunnelConfig, role: str, tick_log=None, seed: int | None = None):
        if role not in ("serve", "connect"):
            raise ValueError(f"role must be serve or connect, got {role!r}")
        self.cfg = cfg
        self.role = role
        self.tick_log = tick_log
        params = cfg.params
        self.sigma = gaussian_sigma(params.delta_w, params.epsilon_t, params.delta_t)
        cap = None
        if math.isfinite(params.cutoff):
            cap = int(params.cutoff) * params.intervals_per_window
        self.shaper = Shaper(params, self.sigma, random.Random(seed))
        self._queue_cap = cap
        self.flows: dict[int, FlowEntry] = {}
        self._flows_lock = threading.Lock()
        self._control_outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._control_tx = bytearray()
        self._control_tx_offset = 0
        self._control_rx = bytearray()
        self._control_rx_offset = 0
        self._pending_frames: dict[int, list[tuple[int, bytes]]] = {}
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
        self._codec_tx: RecordCodec | None = None
        self._codec_rx: RecordCodec | None = None
        self._last_activity = time.monotonic()
        self.stats = {
            "ticks": 0,
            "wire_bytes": 0,
            "dummy_rx": 0,
            "payload_rx": 0,
            "integrity_errors": 0,
            "prep_overruns": 0,
            "enq_overruns": 0,
            "ttl_drops": 0,
            "flows_rejected": 0,
        }
        self.tick_stats: list[tuple[int, int, int, int, int]] = []
        self.handoff_offsets: list[float] = []
        self.session_ready = threading.Event()
        self.finished = threading.Event()

    # --- establishment ---

    def _spawn(self, target, name) -> threading.Thread:
        t = threading.Thread(target=target, name=f"{self.role}-{name}", daemon=True)
        t.start()
        with self._flows_lock:  # flow threads spawn flow threads
            self._threads = [u for u in self._threads if u.is_alive()] + [t]
        return t

    def establish(self) -> None:
        """Connect or accept the wire socket and run the parameter handshake."""
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
            if self.role == "connect":
                sock.sendall(hello)
                peer = read_hello(lambda n: _recv_exact(sock, n), self.cfg.psk)
            else:
                peer = read_hello(lambda n: _recv_exact(sock, n), self.cfg.psk)
                sock.sendall(hello)
            if peer.role == self.role:
                raise SessionError(f"both endpoints configured as {self.role!r}")
            check_params_match(self.cfg.wire_params(), peer.params)
            if self.role == "connect":
                salt = my_nonce + peer.nonce
            else:
                salt = peer.nonce + my_nonce
            if self.cfg.cipher == CIPHER_NULL:
                tx_key = rx_key = None
            else:
                c2s, s2c = derive_direction_keys(self.cfg.psk, salt)
                tx_key, rx_key = (c2s, s2c) if self.role == "connect" else (s2c, c2s)
            self._codec_tx = RecordCodec(tx_key, self.cfg.mtu, self.cfg.flows_max)
            self._codec_rx = RecordCodec(
                rx_key, self.cfg.mtu, self.cfg.flows_max, self.cfg.params.cutoff
            )
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

    def run(self) -> None:
        """start() and block until the session finishes."""
        self.start()
        self.finished.wait()

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
                try:
                    sock.close()
                except OSError:
                    pass
        with self._flows_lock:
            entries = list(self.flows.values())
        for entry in entries:
            # close() does not wake a reader blocked in recv; shutdown() does.
            if entry.sock is not None:
                try:
                    entry.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._teardown_flow(entry)
        for t in self._threads:
            t.join(timeout)

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
        entry = None
        with self._flows_lock:
            flow_id = self._allocate_flow_id()
            if flow_id is not None:
                entry = FlowEntry(flow_id, conn)
                self.flows[flow_id] = entry
        if entry is None:
            self.stats["flows_rejected"] += 1
            self._reject_app(conn, "no free flow slot")
            return
        self._send_control(
            {"op": "open", "flow": flow_id, "dst_host": dst_host, "dst_port": dst_port}
        )
        conn.settimeout(None)
        conn.sendall(json.dumps({"ok": True, "flow_id": flow_id}).encode() + b"\n")
        self._touch()
        self._spawn(lambda: self._app_reader(entry), f"read-{flow_id}")
        entry.writer = self._spawn(lambda: self._app_writer(entry), f"write-{flow_id}")
        log.info("flow %d registered for %s:%s", flow_id, dst_host, dst_port)

    @staticmethod
    def _reject_app(conn: socket.socket, reason: str):
        try:
            conn.sendall(json.dumps({"ok": False, "error": reason}).encode() + b"\n")
        except OSError:
            pass
        conn.close()

    def _allocate_flow_id(self) -> int | None:
        for candidate in range(1, self.cfg.flows_max + 1):
            if candidate not in self.flows:
                return candidate
        return None

    def _app_reader(self, entry: FlowEntry):
        try:
            while not self._stop.is_set():
                data = entry.sock.recv(APP_CHUNK)
                if not data:
                    break
                entry.handoff.put(data)
                self._touch()
        except OSError:
            pass
        entry.handoff.put(_EOF)

    def _app_writer(self, entry: FlowEntry):
        try:
            while not self._stop.is_set():
                item = entry.rx_q.get()
                if item is _EOF:
                    try:
                        entry.sock.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    return
                entry.sock.sendall(item)
                self._touch()
        except OSError:
            pass

    # --- control stream ---

    def _send_control(self, message: dict):
        self._control_outbox.put(json.dumps(message, sort_keys=True).encode() + b"\n")

    def _touch(self):
        self._last_activity = time.monotonic()

    # --- prepare loop (DShaper role) ---

    def _sleep_until(self, deadline: float):
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.05))

    def _drain_until(self, deadline: float, arrival: int):
        while not self._stop.is_set() and time.monotonic() < deadline:
            self._drain_handoffs(arrival)
            time.sleep(max(0.0, min(deadline - time.monotonic(), DRAIN_EVERY)))

    def _prepare_loop(self):
        cfg = self.cfg
        t_sec = cfg.params.interval / NS
        t_prep_sec = cfg.t_prep / NS
        t_enq_sec = cfg.t_enq / NS
        epoch = time.monotonic()
        k = 0
        bye_sent = False
        graceful = False
        try:
            while not self._stop.is_set():
                k += 1
                deadline = epoch + k * t_sec
                now_ns = k * cfg.params.interval
                # Bytes handed over while the tick waits are stamped one
                # interval before its boundary, so they precede its control.
                self._drain_until(deadline, now_ns - cfg.params.interval)
                if self._stop.is_set():
                    break

                if self._closing.is_set() and not bye_sent:
                    self._initiate_closes()
                    self._send_control({"op": "bye"})
                    bye_sent = True

                self._drain_control(now_ns)
                buf = self.shaper.shaping_step(now_ns)
                self._apply_flushes(buf)
                block = encode_block(self._build_tick_frames(buf), buf.dp_len, cfg.flows_max)
                wire_tick = self._codec_tx.seal(k, buf.dp_len, block)
                del block  # not kept alive through the next tick's build

                if time.monotonic() - deadline > t_prep_sec:
                    self.stats["prep_overruns"] += 1
                self._sleep_until(deadline + t_prep_sec)
                self.handoff_offsets.append(time.monotonic() - deadline)
                self._tx_queue.put(wire_tick)
                if time.monotonic() - deadline > t_prep_sec + t_enq_sec:
                    self.stats["enq_overruns"] += 1

                wire = sum(map(len, wire_tick))
                self.stats["ticks"] += 1
                self.stats["wire_bytes"] += wire
                self.tick_stats.append((k, buf.dp_len, buf.payload_bytes, buf.dummy, wire))
                if self.tick_log is not None:
                    self.tick_log(k, buf.dp_len, buf.payload_bytes, buf.dummy, wire)

                self._progress_flow_closes()
                if bye_sent and not self._control_tx and self.shaper.queued_total == 0:
                    graceful = True
                    break
                if (
                    cfg.idle_timeout > 0
                    and not self._closing.is_set()
                    and not self.flows
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

    def _drain_control(self, now_ns: int):
        while True:
            try:
                message = self._control_outbox.get_nowait()
            except queue.Empty:
                break
            self._control_tx += message
            self.shaper.enqueue(CONTROL_FLOW, len(message), now_ns)

    def _drain_handoffs(self, arrival: int):
        with self._flows_lock:
            entries = list(self.flows.values())
        for entry in entries:
            queue_size = self.shaper.queued(entry.flow_id)
            while True:
                if entry.staged is None:
                    try:
                        entry.staged = entry.handoff.get_nowait()
                    except queue.Empty:
                        break
                if entry.staged is _EOF:
                    entry.tx_eof = True
                    entry.staged = None
                    break
                if self._queue_cap is not None and queue_size + len(entry.staged) > self._queue_cap:
                    break
                chunk = entry.staged
                entry.staged = None
                self.shaper.enqueue(entry.flow_id, len(chunk), arrival)
                entry.buffer += chunk
                queue_size += len(chunk)

    def _apply_flushes(self, buf):
        # Expired spans are the oldest, so their bytes sit at the front of the
        # flow buffer; discard them before this tick's payload is extracted.
        # Teardown waits until the tick's frames are built.
        dropped_flows = set()
        for span in buf.flushed:
            if span.flow_id == CONTROL_FLOW:
                raise SessionError("control stream bytes expired in the queue")
            entry = self.flows.get(span.flow_id)
            if entry is not None:
                del entry.buffer[: span.length]
                dropped_flows.add(span.flow_id)
                self.stats["ttl_drops"] += span.length
        for flow_id in dropped_flows:
            log.warning("flow %d lost bytes to the TTL, resetting", flow_id)
            self._send_control({"op": "close", "flow": flow_id, "mode": "rst", "reason": "ttl"})
            entry = self.flows.get(flow_id)
            if entry is not None:
                entry.rst = True

    def _build_tick_frames(self, buf):
        per_flow: dict[int, int] = {}
        for span in buf.payload:
            per_flow[span.flow_id] = per_flow.get(span.flow_id, 0) + span.length
        data = []
        control_piece = None
        for flow_id, total in per_flow.items():
            if flow_id == CONTROL_FLOW:
                body = bytes(self._control_tx[:total])
                del self._control_tx[:total]
                control_piece = (self._control_tx_offset, body)
                self._control_tx_offset += total
            else:
                entry = self.flows.get(flow_id)
                if entry is None:
                    continue
                with memoryview(entry.buffer) as view:
                    body = bytes(view[:total])
                del entry.buffer[:total]
                data.append((flow_id, entry.tx_offset, body))
                entry.tx_offset += total
                self._touch()
        return build_frames(data, control_piece, buf.dummy)

    def _initiate_closes(self):
        with self._flows_lock:
            entries = list(self.flows.values())
        for entry in entries:
            if not entry.fin_sent:
                entry.tx_eof = True

    def _progress_flow_closes(self):
        # Runs on the prepare thread only; it is the sole owner of the shaper,
        # so a flow's queued bytes never vanish under a running step.
        with self._flows_lock:
            entries = list(self.flows.values())
        for entry in entries:
            if entry.rst:
                self.shaper.discard_flow(entry.flow_id)
                self._teardown_flow(entry)
                continue
            if (
                entry.tx_eof
                and not entry.fin_sent
                and entry.staged is None
                and not entry.buffer
                and self.shaper.queued(entry.flow_id) == 0
                and entry.handoff.empty()
            ):
                entry.fin_sent = True
                self._send_control({"op": "close", "flow": entry.flow_id, "mode": "fin"})
            if entry.fin_sent and entry.fin_rcvd:
                self.shaper.discard_flow(entry.flow_id)
                self._teardown_flow(entry)

    def _teardown_flow(self, entry: FlowEntry | None):
        if entry is None or entry.dead:
            return
        entry.dead = True
        entry.rx_q.put(_EOF)
        with self._flows_lock:
            self.flows.pop(entry.flow_id, None)
        if entry.sock is not None:
            try:
                entry.sock.close()
            except OSError:
                pass
        self._touch()

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
        try:
            while not self._stop.is_set():
                interval, dp_len, block = self._codec_rx.read_tick(
                    lambda n: _recv_exact(self._wire_sock, n)
                )
                if block is None:
                    self.stats["integrity_errors"] += 1
                    log.warning("tick %d dropped: record failed authentication", interval)
                    continue
                self._process_tick(interval, dp_len, block)
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

    def _deliver_received(self):
        """Let each flow's writer hand its queued bytes to the application."""
        deadline = time.monotonic() + DELIVER_TIMEOUT
        with self._flows_lock:
            entries = list(self.flows.values())
        for entry in entries:
            try:
                entry.rx_q.put(_EOF, timeout=max(0.0, deadline - time.monotonic()))
            except queue.Full:
                continue
            if entry.writer is not None:
                entry.writer.join(max(0.0, deadline - time.monotonic()))

    def _process_tick(self, interval: int, dp_len: int, block: bytes):
        frames = decode_block(block)
        if sum(f.length for f in frames) != dp_len:
            self.stats["integrity_errors"] += 1
        for frame in frames:
            if frame.kind == KIND_DUMMY:
                self.stats["dummy_rx"] += frame.length
            elif frame.kind == KIND_CONTROL:
                self._accept_control(frame)
            elif frame.kind == KIND_DATA:
                self._accept_data(frame)

    def _accept_control(self, frame):
        if frame.offset != self._control_rx_offset:
            self.stats["integrity_errors"] += 1
            return
        self._control_rx += frame.body
        self._control_rx_offset += frame.length
        while b"\n" in self._control_rx:
            line, _, rest = bytes(self._control_rx).partition(b"\n")
            self._control_rx = bytearray(rest)
            try:
                self._dispatch_control(json.loads(line.decode()))
            except (ValueError, KeyError) as exc:
                log.warning("bad control message: %s", exc)
                self.stats["integrity_errors"] += 1

    def _accept_data(self, frame):
        entry = self.flows.get(frame.flow_id)
        if entry is None or entry.sock is None:
            pending = self._pending_frames.setdefault(frame.flow_id, [])
            if len(pending) < 4096:
                pending.append((frame.offset, frame.body))
            return
        if frame.offset != entry.rx_offset:
            self.stats["integrity_errors"] += 1
            return
        entry.rx_offset += frame.length
        entry.rx_q.put(frame.body)
        self.stats["payload_rx"] += frame.length
        self._touch()

    def _dispatch_control(self, msg: dict):
        op = msg["op"]
        if op == "open":
            self._open_remote_flow(int(msg["flow"]), msg["dst_host"], int(msg["dst_port"]))
        elif op == "close":
            entry = self.flows.get(int(msg["flow"]))
            if entry is None:
                return
            if msg.get("mode") == "rst":
                entry.rst = True
                entry.rx_q.put(_EOF)
            else:
                # peer's sending side is done; our app may still send back
                entry.fin_rcvd = True
                entry.rx_q.put(_EOF)
        elif op == "bye":
            log.info("peer closed the session")
            self._closing.set()
        else:
            log.warning("unknown control op %r", op)

    def _open_remote_flow(self, flow_id: int, dst_host: str, dst_port: int):
        try:
            conn = socket.create_connection((dst_host, dst_port), timeout=10)
        except OSError as exc:
            log.warning("flow %d: cannot reach %s:%s (%s)", flow_id, dst_host, dst_port, exc)
            self._send_control(
                {"op": "close", "flow": flow_id, "mode": "rst", "reason": "connect-failed"}
            )
            return
        entry = FlowEntry(flow_id, conn)
        with self._flows_lock:
            self.flows[flow_id] = entry
        for offset, body in sorted(self._pending_frames.pop(flow_id, [])):
            if offset == entry.rx_offset:
                entry.rx_offset += len(body)
                entry.rx_q.put(body)
                self.stats["payload_rx"] += len(body)
            else:
                self.stats["integrity_errors"] += 1
        self._touch()
        self._spawn(lambda: self._app_reader(entry), f"read-{flow_id}")
        entry.writer = self._spawn(lambda: self._app_writer(entry), f"write-{flow_id}")
        log.info("flow %d opened towards %s:%s", flow_id, dst_host, dst_port)
