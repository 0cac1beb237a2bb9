"""Stream ingestion, windowed representation, and distance tests."""

import io
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netshaper.errors import ConfigError, TraceParseError
from netshaper.traces import (
    DIRECTIONS,
    PacketRecord,
    Stream,
    neighboring_distance,
    pairwise_distance_distribution,
    parse_trace,
    windowed_repr,
)


def make_stream(points, direction="out"):
    return Stream.from_records(PacketRecord(t, n, 1, direction) for t, n in points)


def random_stream(rng, n, t_max=10_000, len_max=2000, align=1):
    points = [(rng.randrange(0, t_max // align) * align, rng.randint(1, len_max)) for _ in range(n)]
    return make_stream(points)


# --- Stream ---


def packets(stream):
    return list(zip(stream.times.tolist(), stream.lengths.tolist()))


records = st.lists(
    st.builds(
        PacketRecord, st.integers(0, 40), st.integers(1, 3000), st.integers(0, 9), st.sampled_from(DIRECTIONS)
    )
)


@settings(max_examples=200)
@given(records, st.randoms(use_true_random=False))
def test_from_records_is_a_stable_sort_by_time(recs, rng):
    rng.shuffle(recs)
    s = Stream.from_records(recs)
    expect = sorted(recs, key=lambda r: r.t)
    assert packets(s) == [(r.t, r.length) for r in expect]
    assert s.inbound.tolist() == [r.direction == "in" for r in expect]
    assert s.times.dtype == s.lengths.dtype == np.int64 and s.inbound.dtype == bool
    assert len(s) == len(recs) and s.total_bytes == sum(r.length for r in recs)


@pytest.mark.parametrize(
    "columns",
    [
        ([5, 3], [1, 1], None),
        ([-1, 3], [1, 1], None),
        ([1, 3], [1, 0], None),
        ([1, 3], [1, 1], [True]),
        ([[1]], [[1]], None),
    ],
    ids=["unsorted", "negative-time", "zero-length", "short-mask", "2-d"],
)
def test_bad_columns_raise_value_error(columns):
    with pytest.raises(ValueError):
        Stream(*columns)


@pytest.mark.parametrize(
    "record",
    [PacketRecord(-1, 10, 1), PacketRecord(1, 0, 1), PacketRecord(1, 10, 1, "sideways")],
    ids=["negative-time", "zero-length", "bad-direction"],
)
def test_bad_records_raise_value_error(record):
    with pytest.raises(ValueError):
        Stream.from_records([PacketRecord(5, 10, 1), record])


@pytest.mark.parametrize("columns", [([2**63], [1]), ([1], [2**64])], ids=["time", "length"])
def test_columns_past_int64_raise(columns):
    with pytest.raises(OverflowError):
        Stream(*columns)
    with pytest.raises(OverflowError):
        Stream.from_records([PacketRecord(*columns[0], *columns[1], 1)])


@given(records)
def test_streams_are_immutable(recs):
    s = Stream.from_records(recs)
    for column in (s.times, s.lengths, s.inbound):
        with pytest.raises(ValueError):
            column[:] = 0
    with pytest.raises(AttributeError):
        s.times = np.zeros(len(s), np.int64)


@pytest.mark.parametrize("points", [[], [(5, 100), (5, 200), (2**40, 300)]])
def test_columns_are_a_cache_that_equality_hash_and_pickle_ignore(points):
    # The int64 columns are the stream itself now: no object-array cache is left to
    # ignore, and equality, hash, repr and pickle follow the columns' content.
    built, plain = make_stream(points), make_stream(points)
    assert set(vars(built)) == {"times", "lengths", "inbound"}
    assert packets(built) == points and built.times.dtype == built.lengths.dtype == np.int64
    assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)
    for stream in (built, plain):
        back = pickle.loads(pickle.dumps(stream))
        assert back == stream and hash(back) == hash(stream) and packets(back) == points
        assert not (back.times.flags.writeable or back.lengths.flags.writeable)


@given(records, st.randoms(use_true_random=False))
def test_equal_hash_and_pickle_by_content(recs, rng):
    s = Stream.from_records(recs)
    twin = Stream(s.times.tolist(), s.lengths, s.inbound.tolist())
    assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)
    back = pickle.loads(pickle.dumps(s))
    assert back == s and hash(back) == hash(s) and not back.times.flags.writeable
    if recs:
        i = rng.randrange(len(recs))
        other = recs[:i] + [recs[i]._replace(length=recs[i].length + 1)] + recs[i + 1 :]
        assert Stream.from_records(other) != s
    assert s != packets(s)


@given(records)
def test_filter_direction_keeps_the_order_of_a_mixed_stream(recs):
    s = Stream.from_records(recs)
    for direction in DIRECTIONS:
        kept = [(r.t, r.length) for r in sorted(recs, key=lambda r: r.t) if r.direction == direction]
        part = s.filter_direction(direction)
        assert packets(part) == kept and part.inbound.tolist() == [direction == "in"] * len(kept)
    with pytest.raises(ValueError):
        s.filter_direction("sideways")


# --- parse_trace ---


def test_parse_empty_file_with_header():
    s = parse_trace(io.StringIO("t_ns,len_bytes,flow_id,dir\n"))
    assert len(s) == 0


def test_parse_two_rows():
    s = parse_trace(io.StringIO("t_ns,len_bytes,flow_id,dir\n0,100,1,out\n5,200,1,out\n"))
    assert packets(s) == [(0, 100), (5, 200)]


def test_parse_ignores_unknown_columns():
    s = parse_trace(io.StringIO("t_ns,len_bytes,flow_id,dir,junk\n3,9,2,in,zzz\n"))
    assert s == Stream([3], [9], [True])


def test_parse_shuffled_equals_sorted(tmp_path):
    rng = random.Random(7)
    rows = [(rng.randrange(0, 10**6), rng.randint(1, 1500), rng.randrange(4), rng.choice(["in", "out"]))
            for _ in range(1000)]
    header = "t_ns,len_bytes,flow_id,dir\n"
    sorted_csv = header + "".join(f"{t},{n},{f},{d}\n" for t, n, f, d in sorted(rows))
    shuffled = rows[:]
    rng.shuffle(shuffled)
    shuffled_csv = header + "".join(f"{t},{n},{f},{d}\n" for t, n, f, d in shuffled)
    assert parse_trace(io.StringIO(shuffled_csv)) == parse_trace(io.StringIO(sorted_csv))


def test_parse_from_path(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t_ns,len_bytes,flow_id,dir\n1,10,0,out\n")
    assert parse_trace(p).total_bytes == 10


@pytest.mark.parametrize(
    "row,lineno",
    [
        ("1,0,1,out", 2),
        ("1,-5,1,out", 2),
        ("x,10,1,out", 2),
        ("1,10,1,sideways", 2),
        ("-1,10,1,out", 2),
        (f"{2**63},10,1,out", 2),
        (f"1,{2**63},1,out", 2),
    ],
)
def test_parse_bad_rows(row, lineno):
    with pytest.raises(TraceParseError) as exc:
        parse_trace(io.StringIO(f"t_ns,len_bytes,flow_id,dir\n{row}\n"))
    assert exc.value.line_number == lineno


def test_parse_bad_row_reports_later_line():
    body = "t_ns,len_bytes,flow_id,dir\n1,10,1,out\n2,20,1,out\n3,0,1,out\n"
    with pytest.raises(TraceParseError) as exc:
        parse_trace(io.StringIO(body))
    assert exc.value.line_number == 4


def test_parse_missing_header_column():
    with pytest.raises(TraceParseError):
        parse_trace(io.StringIO("t_ns,len_bytes,flow_id\n1,10,1\n"))


# --- windowed_repr ---


def test_windowed_repr_empty_stream():
    v = windowed_repr(make_stream([]), 0, 5_000, 1_000)
    assert v.values == (0, 0, 0, 0, 0)


def test_windowed_repr_single_record():
    v = windowed_repr(make_stream([(0, 500)]), 0, 5_000_000_000, 1_000_000_000)
    assert v.values == (500, 0, 0, 0, 0)


def test_windowed_repr_rejects_non_multiple():
    with pytest.raises(ConfigError):
        windowed_repr(make_stream([]), 0, 2500, 1000)


def test_windowed_repr_matches_per_packet_oracle():
    rng = random.Random(11)
    for _ in range(50):
        s = random_stream(rng, 40)
        t_w = rng.randrange(-2000, 8000)
        window, interval = 4000, 500
        got = windowed_repr(s, t_w, window, interval)
        expect = [0] * (window // interval)
        for t, n in packets(s):
            for j in range(len(expect)):
                lo = t_w + j * interval
                if lo <= t < lo + interval:
                    expect[j] += n
        assert got.values == tuple(expect)


def test_windowed_repr_conserves_bytes():
    rng = random.Random(13)
    for _ in range(50):
        s = random_stream(rng, 30, t_max=3000)
        v = windowed_repr(s, 0, 4000, 200)
        assert sum(v.values) == sum(n for t, n in packets(s) if 0 <= t < 4000)


# --- neighboring_distance ---


def brute_force_distance(a, b, window, interval):
    """Independent scan: every candidate start, per-packet bucket sums."""
    k = window // interval
    starts = set()
    a, b = packets(a), packets(b)
    for t, _ in a + b:
        for j in range(k + 1):
            starts.add(t - j * interval)
    best = 0
    for t_w in starts:
        diff = 0
        for j in range(k):
            lo, hi = t_w + j * interval, t_w + (j + 1) * interval
            sa = sum(n for t, n in a if lo <= t < hi)
            sb = sum(n for t, n in b if lo <= t < hi)
            diff += abs(sa - sb)
        best = max(best, diff)
    return best


@st.composite
def oracle_cases(draw):
    """(a, b, window, interval) with ties, empty streams and unaligned times.

    The base offset puts some streams next to 2**62 and some so close to
    2**63 that t + window leaves int64, which only rebasing survives.
    """
    interval = draw(st.sampled_from([7, 100, 250]))
    window = interval * draw(st.integers(1, 6))
    span = 12 * interval
    base = draw(st.sampled_from([0, 2**62, 2**63 - 1 - span]))
    pool = draw(st.lists(st.integers(0, span), min_size=1, max_size=4))
    aligned = st.integers(0, 12).map(lambda j: j * interval)
    times = st.one_of(st.sampled_from(pool), aligned, st.integers(0, span))
    points = st.lists(st.tuples(times.map(lambda t: base + t), st.integers(1, 2000)), max_size=8)
    return make_stream(draw(points)), make_stream(draw(points)), window, interval


@settings(max_examples=300)
@given(oracle_cases())
def test_distance_equals_brute_force_oracle(case):
    a, b, window, interval = case
    assert neighboring_distance(a, b, window, interval) == brute_force_distance(a, b, window, interval)


@settings(max_examples=300)
@given(oracle_cases(), st.integers(-8, 14))
def test_windowed_repr_equals_per_packet_loop(case, shift):
    a, _, window, interval = case
    t_w = (int(a.times[0]) if len(a) else 0) + shift * interval // 3
    expect = [0] * (window // interval)
    for t, n in packets(a):
        if t_w <= t < t_w + window:
            expect[(t - t_w) // interval] += n
    got = windowed_repr(a, t_w, window, interval).values
    assert got == tuple(expect)
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize(
    "points",
    [[(0, 1), (2**63 - 1000, 1)], [(0, 2**62), (5, 2**62)]],
    ids=["timestamp-span", "byte-total"],
)
def test_distance_rejects_int64_overflow(points):
    s = make_stream(points)
    with pytest.raises(ConfigError):
        neighboring_distance(s, make_stream([]), 2000, 1000)
    with pytest.raises(ConfigError):
        windowed_repr(s, 0, 2000, 1000)


def test_windowed_repr_of_a_window_past_2_63():
    # t_w itself lies outside int64; the stream's offset from it does not.
    s = make_stream([(2**63 - 101, 7)])
    assert windowed_repr(s, 2**63 + 1065, 2000, 1000).values == (0, 0)
    assert windowed_repr(s, 2**63 - 1101, 2000, 1000).values == (0, 7)


def test_distance_identity():
    rng = random.Random(3)
    s = random_stream(rng, 20)
    assert neighboring_distance(s, s, 5000, 1000) == 0


def test_distance_single_packet_difference():
    a = make_stream([(100, 1000), (2100, 700)])
    b = make_stream([(100, 1500), (2100, 700)])
    for window, interval in [(1000, 1000), (5000, 1000), (4000, 2000)]:
        assert neighboring_distance(a, b, window, interval) == 500


def test_distance_matches_brute_force():
    rng = random.Random(17)
    for _ in range(30):
        a = random_stream(rng, 20, t_max=6000)
        b = random_stream(rng, 20, t_max=6000)
        assert neighboring_distance(a, b, 3000, 500) == brute_force_distance(a, b, 3000, 500)


def test_distance_symmetric():
    rng = random.Random(19)
    for _ in range(20):
        a = random_stream(rng, 15)
        b = random_stream(rng, 15)
        assert neighboring_distance(a, b, 4000, 1000) == neighboring_distance(b, a, 4000, 1000)


def test_distance_triangle_on_aligned_streams():
    # On interval-aligned timestamps the candidate scan covers every window
    # that matters, so the triangle inequality holds exactly.
    rng = random.Random(23)
    for _ in range(40):
        a = random_stream(rng, 12, align=1000)
        b = random_stream(rng, 12, align=1000)
        c = random_stream(rng, 12, align=1000)
        dab = neighboring_distance(a, b, 4000, 1000)
        dbc = neighboring_distance(b, c, 4000, 1000)
        dac = neighboring_distance(a, c, 4000, 1000)
        assert dac <= dab + dbc


def test_distance_monotone_in_interval():
    # Coarser buckets can only cancel differences or keep them, which requires
    # each interval in the chain to divide the next (unions of finer buckets);
    # e.g. 2000 -> 3000 can legitimately increase the distance.
    rng = random.Random(29)
    for _ in range(25):
        a = random_stream(rng, 15, t_max=8000)
        b = random_stream(rng, 15, t_max=8000)
        window = 6000
        prev = None
        for interval in (500, 1000, 2000, 6000):
            d = neighboring_distance(a, b, window, interval)
            if prev is not None:
                assert d <= prev
            prev = d


# --- pairwise_distance_distribution ---


def test_pairwise_identical_streams():
    s = make_stream([(0, 100), (1000, 200)])
    table = pairwise_distance_distribution([s, s], 2000, 1000)
    assert (table.p50, table.p90, table.p99, table.max) == (0, 0, 0, 0)


def test_pairwise_tiny_enumeration():
    # Three bursts of distinct sizes at t=0, far apart in size: pairwise
    # distances are the size differences {100, 200, 300}.
    a = make_stream([(0, 100)])
    b = make_stream([(0, 200)])
    c = make_stream([(0, 400)])
    table = pairwise_distance_distribution([a, b, c], 1000, 1000)
    assert table.max == 300
    assert table.p50 == 200
    assert table.pairs == 3


def test_pairwise_requires_two_streams():
    with pytest.raises(ConfigError):
        pairwise_distance_distribution([make_stream([(0, 1)])], 1000, 1000)


def test_pairwise_matches_double_loop():
    rng = random.Random(31)
    streams = [random_stream(rng, 10, t_max=5000) for _ in range(10)]
    table = pairwise_distance_distribution(streams, 2000, 500)
    dists = sorted(
        neighboring_distance(streams[i], streams[j], 2000, 500)
        for i in range(len(streams))
        for j in range(i + 1, len(streams))
    )
    assert table.pairs == len(dists) == 45
    assert table.max == dists[-1]
    import math

    assert table.p50 == dists[math.ceil(0.50 * 45) - 1]
    assert table.p90 == dists[math.ceil(0.90 * 45) - 1]
    assert table.p99 == dists[math.ceil(0.99 * 45) - 1]
