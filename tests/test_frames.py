"""Frame codec, record layer, and tunnel config tests."""

import random

import pytest

from netshaper.errors import AuthError, ConfigError, ParameterMismatch, SessionError
from netshaper.tunnel.config import parse_config
from netshaper.tunnel.frames import (
    FRAME_HEADER_LEN,
    KIND_DATA,
    KIND_DUMMY,
    Frame,
    FrameError,
    block_len,
    build_frames,
    decode_block,
    encode_block,
    max_frames,
)
from netshaper.tunnel.records import (
    Hello,
    RecordCodec,
    RecordError,
    check_params_match,
    derive_direction_keys,
    read_hello,
)

KEY = bytes(range(32))


def feeder(data: bytes):
    view = memoryview(data)
    pos = [0]

    def recv_exact(n: int) -> bytes:
        chunk = bytes(view[pos[0] : pos[0] + n])
        assert len(chunk) == n, "feeder ran dry"
        pos[0] += n
        return chunk

    return recv_exact


# --- frames ---


def test_frame_header_size():
    assert FRAME_HEADER_LEN == 17


def test_build_frames_spec_example():
    frames = build_frames([(1, 0, b"x" * 100)], None, 50)
    assert [(f.kind, f.flow_id, f.length) for f in frames] == [
        (KIND_DATA, 1, 100),
        (KIND_DUMMY, 0, 50),
    ]


def test_zero_dummy_omitted():
    frames = build_frames([(1, 0, b"abc")], None, 0)
    assert [f.kind for f in frames] == [KIND_DATA]


def test_block_round_trip():
    frames = build_frames([(1, 0, b"abc"), (2, 64, b"defg")], (10, b'{"op":"x"}\n'), 5)
    dp_len = 3 + 4 + 11 + 5
    block = encode_block(frames, dp_len, flows_max=8)
    assert len(block) == block_len(dp_len, 8)
    decoded = decode_block(block)
    assert decoded == frames


def test_block_length_independent_of_split():
    # same dp_len, radically different payload fractions -> identical block
    dp_len = 1000
    all_payload = encode_block(build_frames([(1, 0, b"p" * 1000)], None, 0), dp_len, 16)
    all_dummy = encode_block(build_frames([], None, 1000), dp_len, 16)
    mixed = encode_block(
        build_frames([(1, 0, b"p" * 300), (2, 0, b"q" * 300)], (0, b"c" * 100), 300), dp_len, 16
    )
    assert len(all_payload) == len(all_dummy) == len(mixed) == block_len(dp_len, 16)


def test_block_rejects_wrong_total():
    with pytest.raises(FrameError):
        encode_block(build_frames([(1, 0, b"abc")], None, 0), 5, 8)


def test_block_rejects_zero_length_data():
    with pytest.raises(FrameError):
        encode_block([Frame(KIND_DATA, 1, 0, b"")], 0, 8)


def test_decode_rejects_garbage_padding():
    frames = build_frames([(1, 0, b"abc")], None, 0)
    block = bytearray(encode_block(frames, 3, 8))
    block[-1] = 0x41
    with pytest.raises(FrameError):
        decode_block(bytes(block))


def test_decode_rejects_bad_kind():
    block = bytes([7]) + bytes(FRAME_HEADER_LEN - 1)
    with pytest.raises(FrameError):
        decode_block(block)


def test_max_frames_bounds():
    assert max_frames(0, 128) == 0
    assert max_frames(1, 128) == 2
    assert max_frames(10, 4) == 6
    assert max_frames(10_000, 128) == 130


def test_random_round_trips():
    rng = random.Random(5)
    for _ in range(500):
        flows = rng.randint(1, 6)
        data = []
        offset = 0
        for flow in range(1, flows + 1):
            if rng.random() < 0.7:
                body = rng.randbytes(rng.randint(1, 400))
                data.append((flow, offset, body))
                offset += len(body)
        control = (0, rng.randbytes(rng.randint(1, 60))) if rng.random() < 0.5 else None
        dummy = rng.randint(0, 500)
        frames = build_frames(data, control, dummy)
        dp_len = sum(f.length for f in frames)
        if dp_len == 0:
            assert encode_block(frames, 0, 8) == b""
            continue
        block = encode_block(frames, dp_len, 8)
        assert decode_block(block) == frames


# --- records ---


def test_seal_and_read_tick_round_trip():
    tx = RecordCodec(KEY, mtu=256, flows_max=4)
    rx = RecordCodec(KEY, mtu=256, flows_max=4)
    frames = build_frames([(1, 0, b"hello world" * 30)], None, 70)
    dp_len = sum(f.length for f in frames)
    block = encode_block(frames, dp_len, 4)
    records = tx.seal_tick(3, dp_len, block)
    assert all(len(r) <= 256 for r in records)
    interval, got_len, got_block = rx.read_tick(feeder(b"".join(records)))
    assert (interval, got_len, got_block) == (3, dp_len, block)


def test_wire_bytes_deterministic_in_dp_len():
    codec = RecordCodec(KEY, mtu=512, flows_max=8)
    other = RecordCodec(KEY, mtu=512, flows_max=8)
    for dp_len, pieces in [
        (400, ([(1, 0, b"a" * 400)], None, 0)),
        (400, ([], None, 400)),
        (400, ([(1, 0, b"a" * 100), (2, 0, b"b" * 100)], None, 200)),
    ]:
        frames = build_frames(*pieces)
        block = encode_block(frames, dp_len, 8)
        records = codec.seal_tick(1, dp_len, block)
        assert sum(len(r) for r in records) == other.wire_bytes_for_tick(dp_len)


def test_empty_tick_is_one_record():
    codec = RecordCodec(KEY, mtu=256, flows_max=4)
    records = codec.seal_tick(9, 0, b"")
    assert len(records) == 1
    rx = RecordCodec(KEY, mtu=256, flows_max=4)
    assert rx.read_tick(feeder(records[0])) == (9, 0, b"")


def test_tampered_record_dropped_without_desync():
    tx = RecordCodec(KEY, mtu=256, flows_max=4)
    rx = RecordCodec(KEY, mtu=256, flows_max=4)
    block = encode_block(build_frames([], None, 10), 10, 4)
    (record,) = tx.seal_tick(1, 10, block)
    tampered = bytearray(record)
    tampered[-1] ^= 1
    clean = tx.seal_tick(2, 10, block)
    stream = feeder(bytes(tampered) + b"".join(clean))
    assert rx.read_tick(stream) == (1, 10, None)  # dropped, counted by the caller
    assert rx.read_tick(stream) == (2, 10, block)  # stream stays in sync


def test_wrong_key_yields_no_plaintext():
    tx = RecordCodec(KEY, mtu=256, flows_max=4)
    rx = RecordCodec(bytes(32), mtu=256, flows_max=4)
    (record,) = tx.seal_tick(1, 0, b"")
    assert rx.read_tick(feeder(record)) == (1, 0, None)


def test_bad_magic_is_fatal():
    rx = RecordCodec(KEY, mtu=256, flows_max=4)
    with pytest.raises(RecordError):
        rx.read_tick(feeder(b"XXXX" + bytes(200)))


def test_header_above_the_cutoff_is_fatal():
    tx = RecordCodec(KEY, mtu=256, flows_max=4)
    rx = RecordCodec(KEY, mtu=256, flows_max=4, max_dp_len=9)
    block = encode_block(build_frames([], None, 10), 10, 4)
    with pytest.raises(RecordError, match="above the cutoff"):
        rx.read_tick(feeder(b"".join(tx.seal_tick(1, 10, block))))


def test_codec_rejects_bad_sizes():
    with pytest.raises(SessionError, match="mtu"):
        RecordCodec(KEY, mtu=31, flows_max=4)
    with pytest.raises(RecordError, match="block length"):
        RecordCodec(KEY, mtu=256, flows_max=4).seal(1, 10, bytes(10))


def test_direction_keys_differ():
    c2s, s2c = derive_direction_keys(KEY, b"salt" * 8)
    assert c2s != s2c and len(c2s) == len(s2c) == 32


# --- hello / parameter agreement ---


def test_hello_round_trip():
    hello = Hello("connect", bytes(16), {"T_ns": 1})
    got = read_hello(feeder(hello.encode(KEY)), KEY)
    assert got == hello


def test_hello_bad_psk():
    hello = Hello("connect", bytes(16), {"T_ns": 1}).encode(KEY)
    with pytest.raises(AuthError):
        read_hello(feeder(hello), bytes(32))


def test_params_mismatch_names_offending_keys():
    with pytest.raises(ParameterMismatch) as exc:
        check_params_match({"T_ns": 1, "W_ns": 5}, {"T_ns": 2, "W_ns": 5})
    assert "T_ns" in str(exc.value)


# --- config ---


GOOD_CONFIG = """
# tunnel endpoint
listen_addr = 127.0.0.1:4000
peer_addr = 127.0.0.1:4001
psk_hex = {psk}
T_ms = 10
T_prep_ms = 6
T_enq_ms = 1
W_ms = 100
delta_w_bytes = 25000
epsilon = 1
delta = 1e-6
cutoff_bytes = 100000
flows_max = 128
""".format(psk="ab" * 32)


def test_parse_good_config():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.listen_addr == ("127.0.0.1", 4000)
    assert cfg.params.interval == 10_000_000
    assert cfg.params.intervals_per_window == 10
    assert cfg.params.cutoff == 100_000
    assert cfg.flows_max == 128
    assert cfg.mtu == 1400
    assert len(cfg.psk) == 32


def test_parse_missing_key():
    with pytest.raises(ConfigError, match="missing config keys"):
        parse_config("listen_addr = 127.0.0.1:4000\n")


def test_parse_needs_the_cutoff():
    text = GOOD_CONFIG.replace("cutoff_bytes = 100000\n", "")
    with pytest.raises(ConfigError, match="cutoff_bytes is required"):
        parse_config(text)


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_parse_rejects_a_cutoff_that_is_not_finite(value):
    with pytest.raises(ConfigError, match="cutoff_bytes must be finite"):
        parse_config(GOOD_CONFIG.replace("cutoff_bytes = 100000", f"cutoff_bytes = {value}"))


def test_parse_malformed_psk():
    with pytest.raises(ConfigError, match="psk_hex"):
        parse_config(GOOD_CONFIG.replace("ab" * 32, "zz"))


def test_parse_short_psk():
    with pytest.raises(ConfigError, match="32 bytes"):
        parse_config(GOOD_CONFIG.replace("ab" * 32, "abcd"))


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(GOOD_CONFIG + "bogus = 1\n")


def test_parse_rejects_window_not_multiple():
    with pytest.raises(ConfigError):
        parse_config(GOOD_CONFIG.replace("W_ms = 100", "W_ms = 25"))


def test_parse_rejects_phase_overflow():
    bad = GOOD_CONFIG.replace("T_prep_ms = 6", "T_prep_ms = 12")
    with pytest.raises(ConfigError, match="exceed the interval"):
        parse_config(bad)


def test_null_cipher_skips_psk():
    text = "\n".join(
        line for line in GOOD_CONFIG.splitlines() if not line.startswith("psk_hex")
    )
    with pytest.raises(ConfigError, match="psk_hex is required"):
        parse_config(text)
