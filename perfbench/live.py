"""Live loopback tunnel workloads.

Each endpoint runs in its own child process (``endpoint.py``), so the two do
not share an interpreter lock, as in any deployment. A child drives the public
``TunnelEndpoint`` API and sends its ``stats``, ``tick_stats``,
``handoff_offsets``, resource usage and peak thread count back as JSON lines
on its standard output. The children are plain subprocesses, waited for on
every path out, so a run leaves no process behind.
The load generator is this process: the main thread sends, and one
``selectors`` thread runs the destination server (sink or echo) and reads the
replies. Traffic crosses the host loopback, not a real link.
"""

from __future__ import annotations

import json
import os
import random
import resource
import select
import selectors
import socket
import subprocess
import sys
import threading
import time
from bisect import bisect_left

from netshaper.dpcore import DpParams, gaussian_sigma
from netshaper.tunnel import RecordCodec, TunnelConfig, TunnelEndpoint

from common import Checks, Outcome, nearest_rank, tail_percentile
from layers import time_dpcore, time_frames_records

MS = 1_000_000
LINK = "host loopback, not a real link"
FLOWS_MAX = 8
MTU = 1400
DELTA_W = 25_000.0
DELTA = 1e-6
EPSILON = 2.0

# T, T_prep, T_enq, W in ms; cutoff in bytes
SHAPES = {
    "tunnel-bulk": dict(T=20, T_prep=10, T_enq=4, W=2000, cutoff=4_000_000),
    "tunnel-rpc": dict(T=10, T_prep=5, T_enq=2, W=1000, cutoff=400_000),
}
BULK_CHUNK = 65536
RPC_SIZE = 512
RPC_RATE = 200.0  # requests per second, open loop
DRAIN_TIMEOUT_S = 15.0
SESSIONS = 4
# Set-up-only sessions, back to back, before the measured ones. A set-up that
# follows seconds of light load, as after an rpc session, takes up to twice
# as long on this kind of host as one that follows another set-up, so the
# measured sessions' own set-ups would time the host's idle state rather than
# the endpoint's start. The first set-up of a run is slow the same way; it
# is not counted.
SETUPS = 7
# Above p90 the bulk chunk latency is set by scheduling stalls on a shared
# 2-core host: across runs of the same code its p99 ranged from 95 to 189 ms
# while its p90 stayed within 82-84 ms.
BULK_TAIL_PERCENTILE = 90
PATTERN = 1 << 22
# Bulk bytes sent but not yet at the sink. Without a cap the kernel's socket
# buffer autotuning decides how much data queues, and so the latency. 4 MiB is
# about twice what keeps the tunnel at its handoff ceiling.
BULK_WINDOW = 1 << 22


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def configs(workload: str, wire_port: int, app_port: int) -> tuple[TunnelConfig, TunnelConfig]:
    """Serve and connect configurations; both endpoints build them alike."""
    shape = SHAPES[workload]
    params = DpParams(
        epsilon_t=EPSILON, delta_t=DELTA, delta_w=DELTA_W,
        interval=shape["T"] * MS, window=shape["W"] * MS, cutoff=float(shape["cutoff"]),
    )
    wire = ("127.0.0.1", wire_port)
    common = dict(
        listen_addr=wire, peer_addr=wire, params=params, psk=random.Random(workload).randbytes(32),
        t_prep=shape["T_prep"] * MS, t_enq=shape["T_enq"] * MS, flows_max=FLOWS_MAX, mtu=MTU,
    )
    serve = TunnelConfig(**common)
    connect = TunnelConfig(**common, app_listen_addr=("127.0.0.1", app_port))
    return serve, connect


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def endpoint_main(cfg: TunnelConfig, role: str, seed: int, stop_in, out) -> None:
    """Child process: run one endpoint until told to stop, then report.

    ``stop_in`` is read for the stop line; messages go to ``out``.
    """
    endpoint = TunnelEndpoint(cfg, role, seed=seed)
    deadline = time.monotonic() + 20
    while True:
        try:
            endpoint.start()
            break
        except ConnectionRefusedError:
            # the serve child may not be listening yet
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)
    ready = time.monotonic()
    cpu_ready = _cpu_s()
    _send(out, ["ready", ready])
    threads_peak = threading.active_count()
    while not select.select([stop_in], [], [], 0.02)[0]:
        threads_peak = max(threads_peak, threading.active_count())
    stop_in.readline()
    live_wall = time.monotonic() - ready
    live_cpu = _cpu_s() - cpu_ready
    t0 = time.monotonic()
    endpoint.shutdown()
    endpoint.finished.wait(5)
    endpoint.stop(timeout=2)
    stop_s = time.monotonic() - t0
    _send(out, {
        "role": role,
        "stats": dict(endpoint.stats),
        "tick_stats": list(endpoint.tick_stats),
        "handoff_offsets": list(endpoint.handoff_offsets),
        "cpu_s": live_cpu,
        "wall_s": live_wall,
        "threads_peak": threads_peak,
        "stop_s": stop_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })


def _send(out, message) -> None:
    out.write(json.dumps(message) + "\n")
    out.flush()


def _recv(proc: subprocess.Popen, timeout: float):
    """The child's next message, or None if none comes within ``timeout`` s."""
    if not select.select([proc.stdout], [], [], timeout)[0]:
        return None
    line = proc.stdout.readline()
    return json.loads(line) if line else None


class EndpointPair:
    """Serve and connect endpoints, each in a child process."""

    def __init__(self, workload: str, seed: str):
        wire_port, app_port = _free_port(), _free_port()
        self.serve_cfg, self.connect_cfg = configs(workload, wire_port, app_port)
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "endpoint.py")
        self.children: list[subprocess.Popen] = []
        self.started = time.monotonic()
        try:
            for role in ("serve", "connect"):
                noise_seed = random.Random(f"noise/{seed}/{role}").getrandbits(64)
                argv = [sys.executable, script, workload, role, str(noise_seed), str(wire_port), str(app_port)]
                self.children.append(subprocess.Popen(
                    argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8",
                ))
        except BaseException:
            self.close()
            raise

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from process start until both sessions are ready."""
        last = 0.0
        for proc in self.children:
            message = _recv(proc, timeout)
            if message is None:
                raise RuntimeError("tunnel endpoint did not become ready")
            last = max(last, message[1])
        return last - self.started

    def stop(self) -> list[dict]:
        """Stop both endpoints together and collect their reports."""
        reports = []
        try:
            for proc in self.children:
                proc.stdin.write("stop\n")
                proc.stdin.flush()
            for proc in self.children:
                report = _recv(proc, 30)
                if report is not None:
                    reports.append(report)
        finally:
            self.close(grace=10)
        return reports

    def close(self, grace: float = 0) -> None:
        """Wait up to ``grace`` seconds for each child to exit, then kill it."""
        for proc in self.children:
            try:
                proc.stdin.close()  # end of input also tells the child to stop
            except OSError:
                pass
            try:
                proc.wait(grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


# --- load generator ---


class LoadGenerator:
    """Destination server and reply reader, run by one selectors thread.

    Create it, open the application flow, then ``start``: the selector is
    only touched by its own thread after that.
    """

    def __init__(self, mode: str, seed: str):
        self.mode = mode
        self.sel = selectors.DefaultSelector()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.setblocking(False)
        self.port = self.listener.getsockname()[1]
        self.sel.register(self.listener, selectors.EVENT_READ, self._accept)
        self._running = True
        self._out: dict[socket.socket, bytearray] = {}  # echo bytes not yet sent back
        rng = random.Random(f"payload/{seed}")
        pattern = rng.randbytes(PATTERN)
        self.pattern = memoryview(pattern + pattern)  # every slice of <= PATTERN bytes is contiguous
        self.mismatches = 0
        # bulk sink: cumulative bytes received and when
        self.received = 0
        self.arrivals: list[tuple[int, float]] = []
        # rpc: echoed requests in order, with their arrival times
        self.rpc_blocks = [rng.randbytes(RPC_SIZE - 8) for _ in range(64)]
        self.reply_buf = bytearray()
        self.replies: list[float] = []
        self.thread = threading.Thread(target=self._loop, name="loadgen-select", daemon=True)

    def start(self, client: socket.socket | None = None) -> None:
        if client is not None:
            self.sel.register(client, selectors.EVENT_READ, self._replies)
        self.thread.start()

    def request(self, seq: int) -> bytes:
        return seq.to_bytes(8, "big") + self.rpc_blocks[seq % len(self.rpc_blocks)]

    def _loop(self):
        while self._running:
            for key, events in self.sel.select(0.05):
                key.data(key.fileobj, events)

    def _accept(self, sock, events):
        conn, _ = sock.accept()
        conn.setblocking(False)
        if self.mode == "bulk":
            self.sel.register(conn, selectors.EVENT_READ, self._sink)
        else:
            self._out[conn] = bytearray()
            self.sel.register(conn, selectors.EVENT_READ, self._echo)

    def _close(self, conn):
        self.sel.unregister(conn)
        conn.close()

    def _sink(self, conn, events):
        try:
            data = conn.recv(1 << 18)
        except BlockingIOError:
            return
        if not data:
            self._close(conn)
            return
        start = self.received % PATTERN
        if self.pattern[start : start + len(data)] != data:
            self.mismatches += 1
        self.received += len(data)
        self.arrivals.append((self.received, time.perf_counter()))

    def _echo(self, conn, events):
        out = self._out[conn]
        if events & selectors.EVENT_READ:
            try:
                data = conn.recv(1 << 16)
            except BlockingIOError:
                data = None
            if data == b"":
                self._close(conn)
                return
            if data:
                out += data
        if out:
            try:
                del out[: conn.send(out)]
            except BlockingIOError:
                pass
        self.sel.modify(conn, selectors.EVENT_READ | (selectors.EVENT_WRITE if out else 0), self._echo)

    def _replies(self, conn, events):
        data = conn.recv(1 << 16)
        now = time.perf_counter()
        if not data:
            self._close(conn)
            return
        self.reply_buf += data
        while len(self.reply_buf) >= RPC_SIZE:
            message = bytes(self.reply_buf[:RPC_SIZE])
            del self.reply_buf[:RPC_SIZE]
            if message != self.request(len(self.replies)):
                self.mismatches += 1
            self.replies.append(now)

    def close(self) -> None:
        self._running = False
        if self.thread.is_alive():
            self.thread.join(5)
        for key in list(self.sel.get_map().values()):
            key.fileobj.close()
        self.sel.close()


def _open_flow(app_addr, dst_port: int) -> socket.socket:
    client = socket.create_connection(app_addr, timeout=10)
    request = {"dst_host": "127.0.0.1", "dst_port": dst_port, "reliability": True}
    client.sendall(json.dumps(request).encode() + b"\n")
    line = b""
    while not line.endswith(b"\n"):
        piece = client.recv(1)
        if not piece:
            raise RuntimeError("tunnel closed the application connection")
        line += piece
    if not json.loads(line).get("ok"):
        raise RuntimeError(f"flow rejected: {line!r}")
    client.settimeout(None)
    return client


def _bulk_phase(pair: EndpointPair, seed: str, seconds: float, checks: Checks) -> dict:
    """Closed loop: push seeded bytes as fast as the tunnel takes them, then drain.

    At most BULK_WINDOW bytes are outstanding; a chunk is offered once the
    sink has the bytes that make room for it.
    """
    load = LoadGenerator("bulk", seed)
    offers: list[tuple[int, float]] = []  # (end offset, time the chunk was offered)
    sent = 0
    try:
        with _open_flow(pair.connect_cfg.app_listen_addr, load.port) as client:
            load.start()
            first = time.perf_counter()
            while time.perf_counter() - first < seconds:
                while sent + BULK_CHUNK - load.received > BULK_WINDOW:
                    time.sleep(0.002)
                start = sent % PATTERN
                offers.append((sent + BULK_CHUNK, time.perf_counter()))
                client.sendall(load.pattern[start : start + BULK_CHUNK])
                sent += BULK_CHUNK
            deadline = time.perf_counter() + DRAIN_TIMEOUT_S
            while load.received < sent and time.perf_counter() < deadline:
                time.sleep(0.005)
    finally:
        load.close()
    checks.check(load.received == sent, f"sink got {load.received} of {sent} bytes")
    checks.check(load.mismatches == 0, "sink got bytes that differ from those sent")
    offsets = [n for n, _ in load.arrivals]
    latencies = []
    for end, offered in offers:
        i = bisect_left(offsets, end)
        if i < len(offsets):
            latencies.append((load.arrivals[i][1] - offered) * 1e3)
    last = load.arrivals[-1][1] if load.arrivals else time.perf_counter()
    return {"bytes": load.received, "wall_s": last - first, "latencies_ms": latencies}


def _rpc_phase(pair: EndpointPair, seed: str, seconds: float, checks: Checks) -> dict:
    """Open loop: 512-byte requests due every 1/RPC_RATE s, echoed back through the tunnel."""
    load = LoadGenerator("rpc", seed)
    try:
        # the selector thread closes the client socket in load.close()
        client = _open_flow(pair.connect_cfg.app_listen_addr, load.port)
        load.start(client)
        first = time.perf_counter() + 0.05
        count = int(seconds * RPC_RATE)
        dues = [first + i / RPC_RATE for i in range(count)]
        lags = []
        for seq, due in enumerate(dues):
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append((time.perf_counter() - due) * 1e3)
            client.sendall(load.request(seq))
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while len(load.replies) < count and time.perf_counter() < deadline:
            time.sleep(0.005)
    finally:
        load.close()
    replies = list(load.replies)
    for seq in range(count):
        checks.check(seq < len(replies), f"request {seq} got no reply")
    checks.check(load.mismatches == 0, "an echoed request differs from the one sent")
    return {
        "requests": len(replies),
        "wall_s": (replies[-1] if replies else time.perf_counter()) - first,
        "latencies_ms": [(t - due) * 1e3 for t, due in zip(replies, dues)],
        "gen_lag_ms": lags,
    }


def _check_reports(reports: list[dict], codec: RecordCodec, checks: Checks) -> None:
    checks.check(len(reports) == 2, "an endpoint did not report")
    for report in reports:
        role = report["role"]
        for k, dp_len, _, _, wire in report["tick_stats"]:
            checks.check(
                wire == codec.wire_bytes_for_tick(dp_len),
                f"{role} tick {k}: wire bytes are not a function of dp_len",
            )
        checks.check(report["stats"]["integrity_errors"] == 0, f"{role}: integrity errors")
        checks.check(report["stats"]["ttl_drops"] == 0, f"{role}: TTL drops")


def _setup_once(workload: str, seed: str, checks: Checks) -> float:
    """Start an endpoint pair, stop it once both are ready; seconds to ready."""
    pair = EndpointPair(workload, seed)
    try:
        setup = pair.wait_ready()
        checks.check(len(pair.stop()) == 2, "an endpoint did not report after set-up")
    finally:
        pair.close()
    return setup


def run_tunnel(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """1 + SETUPS set-ups, then SESSIONS fresh endpoint pairs in turn, each measured for seconds / SESSIONS.

    Pooling sessions averages over the phase between the two endpoints' tick
    grids, which is set by when each process started and moves latency by up
    to one interval.
    """
    checks = Checks()
    phase = _bulk_phase if workload == "tunnel-bulk" else _rpc_phase
    setup = [_setup_once(workload, f"{seed}/setup/{i}", checks) for i in range(1 + SETUPS)][1:]
    session_setup: list[float] = []
    phases: list[dict] = []
    sessions: list[list[dict]] = []
    for session in range(SESSIONS):
        pair = EndpointPair(workload, f"{seed}/{session}")
        try:
            session_setup.append(pair.wait_ready())
            phases.append(phase(pair, f"{seed}/{session}", seconds / SESSIONS, checks))
            sessions.append(pair.stop())
        finally:
            pair.close()
    codec = RecordCodec(bytes(32), MTU, FLOWS_MAX)
    for reports in sessions:
        _check_reports(reports, codec, checks)
    reports = [r for rs in sessions for r in rs]
    latencies = [x for p in phases for x in p["latencies_ms"]]
    tail = tail_percentile(len(latencies))
    if workload == "tunnel-bulk":
        tail = min(tail, BULK_TAIL_PERCENTILE)
    wall = sum(p["wall_s"] for p in phases)
    out = Outcome(
        checks,
        setup_s=setup,
        latency_ms=(nearest_rank(latencies, 50), nearest_rank(latencies, tail)),
        peak_rss_mb=max(r["maxrss_mb"] for r in reports),
    )
    out.info |= {
        "link": LINK,
        "sessions": SESSIONS,
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail,
        "session_setup_s": session_setup,
    }
    if workload == "tunnel-bulk":
        delivered = sum(p["bytes"] for p in phases) / 1e6
        out.ops_per_s = delivered / wall
        out.info["goodput_MBps"] = (out.ops_per_s, "MB/s")
        out.info["delivered_MB"] = delivered
        out.info["chunk_latency_p99_ms"] = (nearest_rank(latencies, 99), "ms")
    else:
        out.ops_per_s = sum(p["requests"] for p in phases) / wall
        out.info["rpc_rtt_p50_ms"] = (out.latency_ms[0], "ms")
        out.info["rpc_rtt_p99_ms"] = (nearest_rank(latencies, 99), "ms")
        out.info["gen_lag_ms_p99"] = (nearest_rank([x for p in phases for x in p["gen_lag_ms"]], 99), "ms")
    if trace:
        out.layers = _tunnel_layers(workload, phases, reports, seed, checks)
        out.trace = {"endpoint_reports": sessions}
    return out


def _per_op_ms(workload: str, phases: list[dict]) -> float:
    if workload == "tunnel-bulk":
        return sum(p["wall_s"] for p in phases) * 1e3 / (sum(p["bytes"] for p in phases) / 1e6)
    return nearest_rank([x for p in phases for x in p["latencies_ms"]], 50)


def _tunnel_layers(workload, phases, reports, seed, checks) -> dict[str, float]:
    """Endpoint figures pooled over both roles and every session."""
    t_prep_ms = SHAPES[workload]["T_prep"]
    offsets = [o * 1e3 - t_prep_ms for r in reports for o in r["handoff_offsets"]]
    stats = [r["stats"] for r in reports]
    ticks = [t for r in reports for t in r["tick_stats"]]
    payload = sum(t[2] for t in ticks)
    connect_ticks = [t for r in reports if r["role"] == "connect" for t in r["tick_stats"]]
    connect_wall = sum(r["wall_s"] for r in reports if r["role"] == "connect")
    half = len(phases) // 2
    layers = {
        "tunnel.ticks": sum(s["ticks"] for s in stats),
        "tunnel.prep_overruns": sum(s["prep_overruns"] for s in stats),
        "tunnel.enq_overruns": sum(s["enq_overruns"] for s in stats),
        "tunnel.handoff_offset_ms_p50": nearest_rank(offsets, 50),
        "tunnel.handoff_offset_ms_p99": nearest_rank(offsets, 99),
        "tunnel.cpu_s": sum(r["cpu_s"] for r in reports),
        "tunnel.cpu_util": max(r["cpu_s"] / r["wall_s"] for r in reports),
        "tunnel.threads_peak": max(r["threads_peak"] for r in reports),
        "tunnel.payload_per_tick_p50_bytes": max(
            nearest_rank([t[2] for t in r["tick_stats"]], 50) for r in reports
        ),
        "tunnel.wire_overhead": sum(t[4] for t in ticks) / payload,
        "tunnel.integrity_errors": sum(s["integrity_errors"] for s in stats),
        "tunnel.ttl_drops": sum(s["ttl_drops"] for s in stats),
        "tunnel.stop_s": max(r["stop_s"] for r in reports),
        # the live path carries no tracing, so this compares the later sessions with the earlier ones
        "bench.trace_overhead_pct": (
            _per_op_ms(workload, phases[half:]) / _per_op_ms(workload, phases[:half]) - 1.0
        ) * 100.0,
    }
    if workload == "tunnel-rpc":
        layers["bench.gen_lag_ms_p99"] = nearest_rank([x for p in phases for x in p["gen_lag_ms"]], 99)
    sigma = gaussian_sigma(DELTA_W, EPSILON, DELTA)
    n = len(connect_ticks)
    layers |= time_dpcore(sigma, DELTA_W, EPSILON, DELTA, n, n, seed, checks)
    layers["dpcore.busy_share"] = layers["dpcore.sample_gaussian_ns"] * n / 1e9 / connect_wall
    layers |= time_frames_records(
        [(dp_len, [(1, payload)]) for _, dp_len, payload, _, _ in connect_ticks], FLOWS_MAX, seed, checks
    )
    return layers
