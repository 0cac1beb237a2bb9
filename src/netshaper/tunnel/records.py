"""Sealed wire ticks and the tick read/write path.

Wire tick: [4-byte magic "NSH1"][8-byte interval index][4-byte dp_len]
[AEAD-sealed frame block], integers big-endian. The block's length is a fixed
function of dp_len, so the header alone tells the receiver how many bytes the
tick occupies and total wire bytes per tick depend only on dp_len. Counted
in records, a tick is cut at every MTU bytes; the endpoint writes it whole.

A tick is sealed with one AES-256-GCM call under per-direction keys: one tag
per tick, the nonce is the per-direction tick counter and the cleartext
header is the associated data, so the interval and dp_len are bound to the
block. Every tick is sealed and every hello carries an HMAC under the
pre-shared key: there is no unsealed mode, because frame kinds and flow ids
in clear text would show an observer the payload/dummy split.
"""

from __future__ import annotations

import hmac
import json
import math
import os
import struct
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ..errors import AuthError, ParameterMismatch, SessionError
from .frames import block_len

MAGIC = b"NSH1"
_RECORD_HEADER = struct.Struct(">4sQI")
RECORD_HEADER_LEN = _RECORD_HEADER.size  # 16
GCM_TAG_LEN = 16
PROTOCOL_VERSION = 2


class RecordError(SessionError):
    """Undecodable or unauthenticated record."""


def _hkdf_sha256(key: bytes, salt: bytes, info: bytes, length: int = 32) -> bytes:
    prk = hmac.new(salt, key, sha256).digest()
    out = b""
    block = b""
    counter = 1
    while len(out) < length:
        block = hmac.new(prk, block + info + bytes([counter]), sha256).digest()
        out += block
        counter += 1
    return out[:length]


def derive_direction_keys(psk: bytes, salt: bytes) -> tuple[bytes, bytes]:
    """(connect-to-serve key, serve-to-connect key) from the pre-shared key."""
    return (
        _hkdf_sha256(psk, salt, b"netshaper c2s"),
        _hkdf_sha256(psk, salt, b"netshaper s2c"),
    )


class RecordCodec:
    """Seals and opens one direction's ticks; owns that direction's tick counter.

    ``max_dp_len`` bounds the dp_len a received header may announce, so a
    forged header cannot make the reader allocate more than a tick can hold.
    """

    def __init__(self, key: bytes, mtu: int, flows_max: int, max_dp_len: float = math.inf):
        if mtu < RECORD_HEADER_LEN + GCM_TAG_LEN:
            raise SessionError(f"mtu {mtu} cannot hold an empty tick")
        self._aead = AESGCM(key)
        self.mtu = mtu
        self.flows_max = flows_max
        self.max_dp_len = max_dp_len
        self.seq = 0

    def wire_bytes_for_tick(self, dp_len: int) -> int:
        """Exact bytes a tick of dp_len puts on the wire; independent of content."""
        return RECORD_HEADER_LEN + block_len(dp_len, self.flows_max) + GCM_TAG_LEN

    def chunk_sizes(self, dp_len: int) -> list[int]:
        """Record lengths of a tick on the wire: MTU-sized cuts, at least one."""
        full, rest = divmod(self.wire_bytes_for_tick(dp_len), self.mtu)
        return [self.mtu] * full + ([rest] if rest else [])

    def _next_nonce(self) -> bytes:
        """The tick counter as a 96-bit nonce, then advance it."""
        self.seq += 1
        return (self.seq - 1).to_bytes(12, "big")

    def seal(self, interval: int, dp_len: int, block: bytes) -> tuple[bytes, bytes]:
        """One tick's wire bytes as two pieces: the header, then the block sealed under it.

        Kept apart so a multi-megabyte tick is not copied once more to join them.
        """
        if len(block) != block_len(dp_len, self.flows_max):
            raise RecordError(f"block length {len(block)} does not match dp_len {dp_len}")
        header = _RECORD_HEADER.pack(MAGIC, interval, dp_len)
        return header, self._aead.encrypt(self._next_nonce(), block, header)

    def seal_tick(self, interval: int, dp_len: int, block: bytes) -> list[bytes | memoryview]:
        """``seal`` cut into records of at most MTU bytes."""
        header, sealed = self.seal(interval, dp_len, block)
        first = self.mtu - RECORD_HEADER_LEN
        view = memoryview(sealed)
        rest = [view[i : i + self.mtu] for i in range(first, len(sealed), self.mtu)]
        return [header + sealed[:first], *rest]

    def read_tick(self, recv_exact: Callable[[int], bytes]) -> tuple[int, int, bytes | None]:
        """Read and open the next tick from a byte stream.

        The cleartext header fixes the tick's length, so a tick that fails
        authentication is dropped without losing stream sync: its bytes are
        still consumed and the block comes back as None for the caller to
        count.
        """
        header = recv_exact(RECORD_HEADER_LEN)
        magic, interval, dp_len = _RECORD_HEADER.unpack(header)
        if magic != MAGIC:
            raise RecordError("bad record magic")
        if dp_len > self.max_dp_len:
            raise RecordError(f"dp_len {dp_len} above the cutoff")
        sealed = recv_exact(self.wire_bytes_for_tick(dp_len) - RECORD_HEADER_LEN)
        try:
            return interval, dp_len, self._aead.decrypt(self._next_nonce(), sealed, header)
        except InvalidTag:
            return interval, dp_len, None


# --- establishment handshake ---

_HELLO_LEN = struct.Struct(">I")
HMAC_LEN = 32


@dataclass(frozen=True)
class Hello:
    role: str
    nonce: bytes
    params: dict

    def encode(self, psk: bytes) -> bytes:
        payload = json.dumps(
            {
                "version": PROTOCOL_VERSION,
                "role": self.role,
                "nonce": self.nonce.hex(),
                "params": self.params,
            },
            sort_keys=True,
        ).encode()
        mac = hmac.new(psk, payload, sha256).digest()
        return MAGIC + _HELLO_LEN.pack(len(payload) + len(mac)) + payload + mac


def read_hello(recv_exact: Callable[[int], bytes], psk: bytes) -> Hello:
    magic = recv_exact(4)
    if magic != MAGIC:
        raise SessionError("peer did not speak the tunnel protocol")
    (length,) = _HELLO_LEN.unpack(recv_exact(4))
    if not 0 < length <= 65536:
        raise SessionError(f"implausible hello length {length}")
    raw = recv_exact(length)
    if length <= HMAC_LEN:
        raise AuthError("hello too short to be authenticated")
    payload, mac = raw[:-HMAC_LEN], raw[-HMAC_LEN:]
    if not hmac.compare_digest(hmac.new(psk, payload, sha256).digest(), mac):
        raise AuthError("peer failed pre-shared-key authentication")
    try:
        body = json.loads(payload.decode())
        hello = Hello(body["role"], bytes.fromhex(body["nonce"]), body["params"])
        version = body["version"]
    except (ValueError, KeyError) as exc:
        raise SessionError(f"malformed hello: {exc}") from exc
    if version != PROTOCOL_VERSION:
        raise ParameterMismatch(f"peer speaks protocol version {version}, not {PROTOCOL_VERSION}")
    return hello


def check_params_match(mine: dict, theirs: dict) -> None:
    if mine != theirs:
        diffs = sorted(
            k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k)
        )
        raise ParameterMismatch(f"endpoints disagree on: {', '.join(diffs)}")


def random_nonce() -> bytes:
    return os.urandom(16)
