"""Line-oriented key=value tunnel configuration."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ..dpcore import DpParams
from ..errors import ConfigError

MS = 1_000_000

REQUIRED_KEYS = (
    "listen_addr",
    "peer_addr",
    "psk_hex",
    "T_ms",
    "W_ms",
    "delta_w_bytes",
    "epsilon",
    "delta",
    "cutoff_bytes",
    "flows_max",
)

OPTIONAL_KEYS = (
    "T_prep_ms",
    "T_enq_ms",
    "app_listen_addr",
    "mtu",
    "idle_timeout_ms",
)


@dataclass(frozen=True)
class TunnelConfig:
    listen_addr: tuple[str, int]
    peer_addr: tuple[str, int]
    params: DpParams
    psk: bytes
    t_prep: int  # ns
    t_enq: int  # ns
    flows_max: int
    app_listen_addr: tuple[str, int] | None = None
    mtu: int = 1400
    idle_timeout: int = 0  # ns, 0 disables

    def wire_params(self) -> dict:
        """Parameter set both endpoints must agree on at establish time."""
        return {
            "T_ns": self.params.interval,
            "W_ns": self.params.window,
            "delta_w_bytes": self.params.delta_w,
            "epsilon": self.params.epsilon_t,
            "delta": self.params.delta_t,
            "cutoff_bytes": self.params.cutoff,
            "flows_max": self.flows_max,
            "mtu": self.mtu,
        }


def _parse_addr(value: str, key: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"{key} must be host:port, got {value!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ConfigError(f"{key} has a non-numeric port: {value!r}") from None
    if not 0 < port_num < 65536:
        raise ConfigError(f"{key} port out of range: {port_num}")
    return host, port_num


def _parse_psk(value: str) -> bytes:
    try:
        psk = bytes.fromhex(value)
    except ValueError:
        raise ConfigError("psk_hex is not valid hex") from None
    if len(psk) != 32:
        raise ConfigError(f"psk_hex must encode 32 bytes, got {len(psk)}")
    return psk


def _ms_to_ns(value: str, key: str) -> int:
    try:
        ms = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number of milliseconds, got {value!r}") from None
    if ms <= 0:
        raise ConfigError(f"{key} must be positive")
    return int(round(ms * MS))


def parse_config(text: str) -> TunnelConfig:
    """Parse key=value lines (# comments and blank lines allowed)."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in REQUIRED_KEYS and key not in OPTIONAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = value
    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        verb = "is" if len(missing) == 1 else "are"
        raise ConfigError(f"missing config keys: {', '.join(missing)} {verb} required")
    psk = _parse_psk(values["psk_hex"])

    try:
        epsilon = float(values["epsilon"])
        delta = float(values["delta"])
        delta_w = float(values["delta_w_bytes"])
        cutoff = float(values["cutoff_bytes"])
        flows_max = int(values["flows_max"])
        mtu = int(values.get("mtu", "1400"))
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from None
    if not math.isfinite(cutoff):  # it bounds each tick a peer may announce and each flow's buffers
        raise ConfigError(f"cutoff_bytes must be finite, got {cutoff}")
    if flows_max < 1:
        raise ConfigError(f"flows_max must be >= 1, got {flows_max}")

    params = DpParams(
        epsilon_t=epsilon,
        delta_t=delta,
        delta_w=delta_w,
        interval=_ms_to_ns(values["T_ms"], "T_ms"),
        window=_ms_to_ns(values["W_ms"], "W_ms"),
        cutoff=cutoff,
    )
    t_prep = _ms_to_ns(values.get("T_prep_ms", "6"), "T_prep_ms")
    t_enq = _ms_to_ns(values.get("T_enq_ms", "1"), "T_enq_ms")
    if t_prep + t_enq > params.interval:
        raise ConfigError(
            f"T_prep + T_enq ({(t_prep + t_enq) / MS} ms) exceed the interval "
            f"({params.interval / MS} ms)"
        )
    idle_timeout = 0
    if "idle_timeout_ms" in values:
        idle_timeout = _ms_to_ns(values["idle_timeout_ms"], "idle_timeout_ms")

    return TunnelConfig(
        listen_addr=_parse_addr(values["listen_addr"], "listen_addr"),
        peer_addr=_parse_addr(values["peer_addr"], "peer_addr"),
        params=params,
        psk=psk,
        t_prep=t_prep,
        t_enq=t_enq,
        flows_max=flows_max,
        app_listen_addr=(
            _parse_addr(values["app_listen_addr"], "app_listen_addr")
            if "app_listen_addr" in values
            else None
        ),
        mtu=mtu,
        idle_timeout=idle_timeout,
    )


def load_config(path: str | os.PathLike) -> TunnelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
