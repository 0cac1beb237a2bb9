"""The tunnel's tick protocol, with no socket, thread or clock.

``TunnelEndpoint`` is the shell around a ``TunnelSession``; tests drive two
sessions back to back in memory, tick by tick.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field
from typing import Any

from ..dpcore import gaussian_sigma, sample_gaussian
from ..errors import ConfigError, SessionError
from ..shaping import Shaper
from .config import TunnelConfig
from .frames import KIND_CONTROL, KIND_DATA, KIND_DUMMY, build_frames, decode_block, encode_block
from .records import RecordCodec

log = logging.getLogger("netshaper.tunnel")

CONTROL_FLOW = 0


@dataclass(eq=False)
class Flow:
    """One flow's protocol state; the control stream is one too, on flow id 0.

    ``io`` is the caller's handle for the flow; the session never reads it.
    """

    flow_id: int
    io: Any = None
    buffer: bytearray = field(default_factory=bytearray)  # offered bytes not yet sent
    tx_offset: int = 0
    rx_offset: int = 0
    tx_eof: bool = False
    fin_sent: bool = False
    fin_rcvd: bool = False
    rst: bool = False


class TunnelSession:
    """One endpoint's protocol state: offers in, sealed ticks out; opened ticks in, events out.

    The session owns the ``Shaper`` that queues every flow's bytes, the
    record codecs of both directions, the control streams and each flow's
    offsets and close flags. Control messages (flow open and close, session
    bye) are JSON lines on the control stream, which rides the shaper as
    flow 0, so no wire byte leaves outside a shaped tick.

    The session is not thread-safe: one thread makes every call (the
    endpoint's loop thread, which also owns the tick).

    Backpressure is a return value: ``offer`` refuses bytes, and takes none
    of them, while the flow holds ``cap`` (cutoff × W/T) bytes.
    """

    def __init__(self, cfg: TunnelConfig, tx_key: bytes, rx_key: bytes, rng: random.Random):
        params = cfg.params
        if not math.isfinite(params.cutoff):  # the cutoff bounds what a peer's header may announce
            raise ConfigError("a tunnel needs a finite cutoff")
        self.flows_max = cfg.flows_max
        sigma = gaussian_sigma(params.delta_w, params.epsilon_t, params.delta_t)
        self.shaper = Shaper(params, lambda: sample_gaussian(sigma, rng))
        self.codec_tx = RecordCodec(tx_key, cfg.mtu, cfg.flows_max)
        self.codec_rx = RecordCodec(rx_key, cfg.mtu, cfg.flows_max, params.cutoff)
        self.cap = int(params.cutoff) * params.intervals_per_window
        self.flows: dict[int, Flow] = {}
        self.pending: dict[int, list[tuple[int, bytes]]] = {}  # data ahead of its flow's open
        self._offered_flows: list[int] = []
        self._offered_sizes: list[int] = []
        self._outbox: list[bytes] = []
        self._control = Flow(CONTROL_FLOW)
        self._control_rx = bytearray()  # the start of a control line still arriving
        self.closing = False
        self.bye_sent = False
        self.stats = {
            "ticks": 0,
            "wire_bytes": 0,
            "dummy_rx": 0,
            "payload_rx": 0,
            "integrity_errors": 0,
            "ttl_drops": 0,
            "rst_drops": 0,  # bytes a reset flow dequeued: they leave as dummy
            "flows_rejected": 0,
        }
        self.tick_stats: list[tuple[int, int, int, int, int]] = []

    # --- application side ---

    def open_flow(self, dst_host: str, dst_port: int, io: Any = None) -> Flow | None:
        """Register a local flow towards a destination; None when every flow slot is taken."""
        flow_id = next((i for i in range(1, self.flows_max + 1) if i not in self.flows), None)
        if flow_id is None:
            self.stats["flows_rejected"] += 1
            return None
        flow = self.flows[flow_id] = Flow(flow_id, io)
        self._send_control({"op": "open", "flow": flow_id, "dst_host": dst_host, "dst_port": dst_port})
        return flow

    def offer(self, flow: Flow, data: bytes) -> bool:
        """Take application bytes for the next tick; False, taking nothing, at the flow's cap."""
        if len(flow.buffer) + len(data) > self.cap:
            return False
        flow.buffer += data
        self._offered_flows.append(flow.flow_id)
        self._offered_sizes.append(len(data))
        return True

    def app_eof(self, flow: Flow) -> None:
        """The application sends no more; the flow's FIN follows its last queued byte."""
        flow.tx_eof = True

    def reset(self, flow: Flow, reason: str) -> None:
        """Abort a flow: the peer is told, and the next tick tears it down."""
        flow.rst = True
        self._send_control({"op": "close", "flow": flow.flow_id, "mode": "rst", "reason": reason})

    def close(self) -> None:
        """Close the session: its bye is queued once every flow has queued its FIN or been reset."""
        self.closing = True

    @property
    def done(self) -> bool:
        """The bye is queued, and nothing waits in the outbox, the control stream or the shaper.

        Read after a tick, the bye and every FIN queued before it have left.
        """
        waiting = self._outbox or self._control.buffer or self.shaper.queued_total
        return self.bye_sent and not waiting

    def _send_control(self, message: dict) -> None:
        self._outbox.append(json.dumps(message, sort_keys=True).encode() + b"\n")

    # --- transmit ---

    def tick(self, k: int) -> tuple[tuple[bytes, bytes], list[Flow]]:
        """Shape interval k: its sealed wire pieces, and the flows this tick tore down.

        Bytes offered since the previous tick arrive one interval before this
        tick's boundary, so they precede its control messages; all of them
        enter the shaper in one ``extend``.
        """
        interval = self.shaper.params.interval
        now = k * interval
        flows, self._offered_flows = self._offered_flows, []
        sizes, self._offered_sizes = self._offered_sizes, []
        times = [now - interval] * len(sizes)
        for message in self._outbox:
            self._control.buffer += message
            times.append(now)
            flows.append(CONTROL_FLOW)
            sizes.append(len(message))
        self._outbox.clear()
        self.shaper.extend(times, flows, sizes)
        buf = self.shaper.shaping_step(now)
        self._expire(buf.flushed)
        block = encode_block(self._frames(buf), buf.dp_len, self.flows_max)
        wire = self.codec_tx.seal(k, buf.dp_len, block)
        size = len(wire[0]) + len(wire[1])
        self.stats["ticks"] += 1
        self.stats["wire_bytes"] += size
        self.tick_stats.append((k, buf.dp_len, buf.payload_bytes, buf.dummy, size))
        return wire, self._progress_closes()

    def _expire(self, flushed):
        # Expired spans are the oldest, so their bytes sit at the front of the
        # flow buffer; discard them before this tick's payload is extracted.
        # Teardown waits until the tick's frames are built.
        for flow_id, n in zip(flushed.flows, flushed.lengths):
            if flow_id == CONTROL_FLOW:
                raise SessionError("control stream bytes expired in the queue")
            flow = self.flows[flow_id]
            del flow.buffer[:n]
            self.stats["ttl_drops"] += n
            if not flow.rst:
                log.warning("flow %d lost bytes to the TTL, resetting", flow.flow_id)
                self.reset(flow, "ttl")

    def _frames(self, buf):
        per_flow: dict[int, int] = {}
        for flow_id, n in zip(buf.payload.flows, buf.payload.lengths):
            per_flow[flow_id] = per_flow.get(flow_id, 0) + n
        data = []
        control = None
        dummy = buf.dummy
        for flow_id, total in per_flow.items():
            flow = self._control if flow_id == CONTROL_FLOW else self.flows[flow_id]
            if flow.rst:  # its stream may have a hole, so none of it leaves as data
                dummy += total
                self.stats["rst_drops"] += total
            else:
                with memoryview(flow.buffer) as view:
                    body = bytes(view[:total])
                if flow is self._control:
                    control = (flow.tx_offset, body)
                else:
                    data.append((flow_id, flow.tx_offset, body))
            del flow.buffer[:total]
            flow.tx_offset += total
        return build_frames(data, control, dummy)

    def _progress_closes(self) -> list[Flow]:
        ended = []
        for flow in list(self.flows.values()):
            if not flow.rst and flow.tx_eof and not flow.fin_sent and not flow.buffer:
                flow.fin_sent = True
                self._send_control({"op": "close", "flow": flow.flow_id, "mode": "fin"})
            if flow.rst or (flow.fin_sent and flow.fin_rcvd):
                self.shaper.discard_flow(flow.flow_id)
                del self.flows[flow.flow_id]
                ended.append(flow)
        if self.closing and not self.bye_sent and all(f.fin_sent or f.rst for f in self.flows.values()):
            self._send_control({"op": "bye"})
            self.bye_sent = True
        return ended

    # --- receive ---

    def receive(self, interval: int, dp_len: int, block: bytes | None) -> list[tuple]:
        """Decode one opened tick (None: it failed authentication) into events, in order.

        ``("data", flow, body)``: bytes for the flow's application.
        ``("open", flow, host, port)``: the peer opened a flow; connect it.
        ``("eof", flow)``: the peer closed (FIN) or reset the flow.
        ``("bye",)``: the peer closes the session.
        """
        events: list[tuple] = []
        if block is None:
            self.stats["integrity_errors"] += 1
            log.warning("tick %d dropped: record failed authentication", interval)
            return events
        frames = decode_block(block)
        if sum(f.length for f in frames) != dp_len:
            self.stats["integrity_errors"] += 1
        for frame in frames:
            if frame.kind == KIND_DUMMY:
                self.stats["dummy_rx"] += frame.length
            elif frame.kind == KIND_CONTROL:
                self._accept_control(frame, events)
            elif frame.kind == KIND_DATA:
                flow = self.flows.get(frame.flow_id)
                if flow is not None:
                    self._deliver(flow, frame.offset, frame.body, events)
                    continue
                pending = self.pending.setdefault(frame.flow_id, [])
                if len(pending) < 4096:
                    pending.append((frame.offset, frame.body))
        return events

    def _deliver(self, flow: Flow, offset: int, body: bytes, events: list) -> None:
        if offset != flow.rx_offset:
            self.stats["integrity_errors"] += 1
            return
        flow.rx_offset += len(body)
        self.stats["payload_rx"] += len(body)
        events.append(("data", flow, body))

    def _accept_control(self, frame, events: list) -> None:
        if frame.offset != self._control.rx_offset:
            self.stats["integrity_errors"] += 1
            return
        self._control.rx_offset += frame.length
        *lines, self._control_rx = (self._control_rx + frame.body).split(b"\n")
        for line in lines:
            try:
                self._dispatch_control(json.loads(line), events)
            except (ValueError, KeyError) as exc:
                log.warning("bad control message: %s", exc)
                self.stats["integrity_errors"] += 1

    def _dispatch_control(self, msg: dict, events: list) -> None:
        op = msg["op"]
        if op == "open":
            flow = Flow(int(msg["flow"]))
            self.flows[flow.flow_id] = flow
            events.append(("open", flow, msg["dst_host"], int(msg["dst_port"])))
            for offset, body in sorted(self.pending.pop(flow.flow_id, [])):
                self._deliver(flow, offset, body, events)
        elif op == "close":
            flow = self.flows.get(int(msg["flow"]))
            if flow is None:
                return
            if msg.get("mode") == "rst":
                flow.rst = True
            else:
                flow.fin_rcvd = True  # the peer's sending side is done; ours may still send
            events.append(("eof", flow))
        elif op == "bye":
            log.info("peer closed the session")
            events.append(("bye",))
        else:
            log.warning("unknown control op %r", op)
