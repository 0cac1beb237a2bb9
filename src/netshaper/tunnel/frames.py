"""Frame codec for shaped ticks.

Each tick's frames are concatenated and padded to a length that depends only
on the tick's shaped length (and the tunnel's flow limit), so the bytes
handed to the record layer never reveal the payload/dummy split or the number
of active flows. Frame bodies sum to exactly the shaped length; headers and
padding are deterministic framing overhead.

Frame header (big-endian): kind u8, flow_id u32, offset u64, length u32.
Padding bytes are 0xFF, which is not a valid frame kind.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

KIND_DATA = 0
KIND_DUMMY = 1
KIND_CONTROL = 2

_HEADER = struct.Struct(">BIQI")
FRAME_HEADER_LEN = _HEADER.size  # 17

PAD_BYTE = 0xFF

# dummy frames and the control stream share the reserved flow id 0; payload
# flow ids start at 1
RESERVED_FLOW_ID = 0


class FrameError(ValueError):
    """Malformed frame block."""


@dataclass(frozen=True)
class Frame:
    kind: int
    flow_id: int
    offset: int
    body: bytes

    @property
    def length(self) -> int:
        return len(self.body)


def max_frames(dp_len: int, flows_max: int) -> int:
    """Most frames a tick of dp_len bytes can carry.

    Every data/control frame moves at least one body byte and there are at
    most flows_max data sources plus the control stream, plus one dummy frame.
    """
    if dp_len == 0:
        return 0
    return min(flows_max + 1, dp_len) + 1


def block_len(dp_len: int, flows_max: int) -> int:
    """Plaintext block size for a tick: bodies plus worst-case headers."""
    if dp_len == 0:
        return 0
    return dp_len + FRAME_HEADER_LEN * max_frames(dp_len, flows_max)


def encode_block(frames: list[Frame], dp_len: int, flows_max: int) -> bytes:
    """Concatenate frames and pad to the deterministic block length."""
    total_body = sum(f.length for f in frames)
    if total_body != dp_len:
        raise FrameError(f"frame bodies sum to {total_body}, expected dp_len {dp_len}")
    if len(frames) > max_frames(dp_len, flows_max):
        raise FrameError(f"{len(frames)} frames exceed the per-tick bound")
    for f in frames:
        if f.kind not in (KIND_DATA, KIND_DUMMY, KIND_CONTROL):
            raise FrameError(f"invalid frame kind {f.kind}")
        if f.kind != KIND_DUMMY and f.length == 0:
            raise FrameError("zero-length data/control frame")
        if f.kind == KIND_DUMMY and (f.length == 0 or f.flow_id != RESERVED_FLOW_ID):
            raise FrameError("dummy frames must carry bytes on the reserved flow id")
    parts = []
    for f in frames:
        parts += (_HEADER.pack(f.kind, f.flow_id, f.offset, f.length), f.body)
    encoded = sum(map(len, parts))
    target = block_len(dp_len, flows_max)
    if encoded > target:
        raise FrameError(f"encoded frames ({encoded}) exceed block length {target}")
    parts.append(bytes([PAD_BYTE]) * (target - encoded))
    return b"".join(parts)  # the one copy of each body


def decode_block(block: bytes) -> list[Frame]:
    """Parse frames from a padded block; verifies the padding tail."""
    frames: list[Frame] = []
    pos = 0
    while pos < len(block):
        if block[pos] == PAD_BYTE:
            if any(b != PAD_BYTE for b in block[pos:]):
                raise FrameError("garbage inside padding")
            break
        if pos + FRAME_HEADER_LEN > len(block):
            raise FrameError("truncated frame header")
        kind, flow_id, offset, length = _HEADER.unpack_from(block, pos)
        if kind not in (KIND_DATA, KIND_DUMMY, KIND_CONTROL):
            raise FrameError(f"invalid frame kind {kind}")
        pos += FRAME_HEADER_LEN
        if pos + length > len(block):
            raise FrameError("frame body runs past the block")
        frames.append(Frame(kind, flow_id, offset, bytes(block[pos : pos + length])))
        pos += length
    return frames


def build_frames(
    data: list[tuple[int, int, bytes]],
    control: tuple[int, bytes] | None,
    dummy_len: int,
) -> list[Frame]:
    """Assemble one tick's frames: payload first, then control, dummy last.

    ``data`` holds (flow_id, offset, body) per flow; ``control`` the control
    stream's (offset, body). Zero-length dummy frames are omitted; receivers
    recover the dummy count from dp_len minus the other bodies.
    """
    frames = [Frame(KIND_DATA, flow_id, offset, body) for flow_id, offset, body in data]
    if control is not None and control[1]:
        frames.append(Frame(KIND_CONTROL, RESERVED_FLOW_ID, control[0], control[1]))
    if dummy_len > 0:
        frames.append(Frame(KIND_DUMMY, RESERVED_FLOW_ID, 0, bytes(dummy_len)))
    return frames
