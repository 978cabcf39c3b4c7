"""The stream-integrity monitor's chunk digests (DESIGN.md §11.1).

Per connection the monitor keeps the raw bytes of the open chunk, a
running sha256 over the closed chunks and the prefix digest at each
closed boundary; a replica that lags behind a closed chunk is checked
by digest when it completes the chunk.  The units below pin the
boundary cases, and a differential holds the monitor to the
whole-stream algorithm it replaced (``WholeStreamOracle``), except in
its one documented limit.
"""

import hashlib
from types import SimpleNamespace
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.invariants import InvariantSet, monitors
from repro.invariants.monitors import CHUNK

from .test_monitors import _fake_state

CONN = ("192.20.225.20", 7, "10.0.0.9", 40000)  # what ``_fake_state`` is keyed by
KEY = "/".join(map(str, CONN))


class WholeStreamOracle:
    """The algorithm the chunk digests replaced: a copy of the whole
    canonical stream (up to ``cap``), every deposit compared against
    it byte for byte."""

    def __init__(self, cap):
        self.cap = cap
        self.canon = bytearray()
        self.length = 0
        self.violated = False

    def on_deposit(self, start, data):
        canon = self.canon
        end = start + len(data)
        overlap_end = min(end, len(canon))
        if start < overlap_end and bytes(canon[start:overlap_end]) != data[: overlap_end - start]:
            self.violated = True
        elif end > len(canon) and len(canon) < self.cap:
            if start > len(canon):
                self.violated = True
            else:
                canon.extend(data[len(canon) - start :])
        self.length = max(self.length, end)

    def digest(self):
        return {KEY: (self.length, hashlib.sha256(bytes(self.canon)).hexdigest())}


def _monitor():
    invset = InvariantSet(SimpleNamespace(now=0.5))
    return invset, invset.stream_integrity


def _stream(n):
    return bytes((i * 7 + i // 251) % 256 for i in range(n))


def _corrupt(data, offset):
    return data[:offset] + bytes([data[offset] ^ 0x5A]) + data[offset + 1 :]


class TestChunkBoundaries:
    def test_divergence_inside_a_closed_chunk_found_when_the_replica_completes_it(self):
        invset, monitor = _monitor()
        a, b = _fake_state("hs_0"), _fake_state("hs_1")
        stream = _stream(2 * CHUNK + 5)
        bad = _corrupt(stream, 150)
        monitor.on_deposit(a, 0, stream[:100])
        monitor.on_deposit(b, 0, stream[:100])
        monitor.on_deposit(a, 100, stream[100:])  # closes two chunks; b lags at 100
        monitor.on_deposit(b, 100, bad[100:200])
        assert invset.violations == []  # inside a closed chunk: not checkable yet
        monitor.on_deposit(b, 200, bad[200:CHUNK])
        assert [v.detail for v in invset.violations] == [
            f"replica hs_1 deposited bytes [200, {CHUNK}) that differ from the canonical stream"
        ]

    def test_divergence_in_a_deposit_that_straddles_a_boundary(self):
        invset, monitor = _monitor()
        a, b = _fake_state("hs_0"), _fake_state("hs_1")
        stream = _stream(3 * CHUNK)
        bad = _corrupt(stream, CHUNK - 1)
        monitor.on_deposit(a, 0, stream)
        monitor.on_deposit(b, 0, bad[: CHUNK - 10])
        assert invset.violations == []
        monitor.on_deposit(b, CHUNK - 10, bad[CHUNK - 10 : CHUNK + 10])
        assert invset.violated_monitors() == ["stream-integrity"]
        assert f"[{CHUNK - 10}, {CHUNK + 10})" in invset.violations[0].detail

    def test_divergence_past_the_boundary_of_a_straddling_deposit(self):
        invset, monitor = _monitor()
        a, b = _fake_state("hs_0"), _fake_state("hs_1")
        stream = _stream(3 * CHUNK)
        bad = _corrupt(stream, CHUNK + 3)
        monitor.on_deposit(a, 0, stream)
        monitor.on_deposit(b, 0, bad[: CHUNK - 10])
        monitor.on_deposit(b, CHUNK - 10, bad[CHUNK - 10 : CHUNK + 10])
        assert invset.violations == []  # the first chunk matched; the second is open
        monitor.on_deposit(b, CHUNK + 10, bad[CHUNK + 10 : 2 * CHUNK])
        assert invset.violated_monitors() == ["stream-integrity"]

    def test_replica_first_seen_after_chunks_closed_is_checked_from_offset_zero(self):
        invset, monitor = _monitor()
        a, joiner, bad_joiner = (_fake_state(f"hs_{i}") for i in range(3))
        stream = _stream(3 * CHUNK + 77)
        monitor.on_deposit(a, 0, stream)
        monitor.on_deposit(joiner, 0, stream[: 2 * CHUNK + 9])  # a live join's replay
        monitor.on_deposit(joiner, 2 * CHUNK + 9, stream[2 * CHUNK + 9 :])
        assert invset.violations == []
        monitor.on_deposit(bad_joiner, 0, _corrupt(stream, 5)[: CHUNK + 1])
        assert invset.violated_monitors() == ["stream-integrity"]

    def test_replica_first_seen_inside_a_closed_chunk_is_compared_from_the_open_one(self):
        invset, monitor = _monitor()
        a, late = _fake_state("hs_0"), _fake_state("hs_1")
        stream = _stream(CHUNK + 50)
        monitor.on_deposit(a, 0, stream)
        monitor.on_deposit(late, 10, _corrupt(stream, 20)[10:CHUNK])
        assert invset.violations == []  # no hash of [0, 10) to continue: unchecked
        monitor.on_deposit(late, CHUNK, _corrupt(stream, CHUNK + 1)[CHUNK:])
        assert invset.violated_monitors() == ["stream-integrity"]

    def test_replica_stopped_inside_a_closed_chunk_leaves_it_unchecked(self):
        """The documented limit (``STREAM_CAP``'s comment)."""
        invset, monitor = _monitor()
        a, b = _fake_state("hs_0"), _fake_state("hs_1")
        stream = _stream(2 * CHUNK)
        monitor.on_deposit(a, 0, stream)
        monitor.on_deposit(b, 0, _corrupt(stream, 40)[:100])
        assert invset.violations == []

    def test_digest_over_several_chunks_is_the_whole_stream_sha256(self):
        invset, monitor = _monitor()
        a, b = _fake_state("hs_0"), _fake_state("hs_1")
        stream = _stream(5 * CHUNK + 123)
        for pos in range(0, len(stream), 1460):
            monitor.on_deposit(a, pos, stream[pos : pos + 1460])
        monitor.on_deposit(b, 0, stream[:4000])
        assert invset.violations == []
        assert monitor.digest() == {
            KEY: (len(stream), hashlib.sha256(stream).hexdigest())
        }

    def test_digest_past_a_small_stream_cap_keeps_the_overshooting_deposit(self):
        with patch.object(monitors, "STREAM_CAP", 2 * CHUNK + 100):
            invset, monitor = _monitor()
            a = _fake_state("hs_0")
            stream = _stream(4 * CHUNK)
            for pos in range(0, len(stream), 1000):
                monitor.on_deposit(a, pos, stream[pos : pos + 1000])
            kept = 33_000  # the first deposit end at or past the cap
            assert monitor.digest() == {
                KEY: (len(stream), hashlib.sha256(stream[:kept]).hexdigest())
            }
            assert invset.violations == []


# -- differential against the whole-stream algorithm -------------------------


@st.composite
def deposit_runs(draw):
    chunk = draw(st.sampled_from([4, 8, 16]))
    cap = draw(st.sampled_from([monitors.STREAM_CAP, 3 * chunk + 1, 5 * chunk]))
    length = draw(st.integers(min_value=0, max_value=10 * chunk))
    stream = draw(st.binary(min_size=length, max_size=length))
    replicas = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        stop = draw(st.integers(min_value=0, max_value=length))  # lag: may stop early
        sizes, pos = [], 0
        while pos < stop:
            size = draw(st.integers(min_value=1, max_value=min(stop - pos, 3 * chunk)))
            sizes.append(size)
            pos += size
        replicas.append(sizes)
    corrupt = None
    if length and draw(st.booleans()):
        corrupt = (
            draw(st.integers(min_value=0, max_value=len(replicas) - 1)),
            draw(st.integers(min_value=0, max_value=length - 1)),
        )
    order = draw(st.permutations([i for i, sizes in enumerate(replicas) for _ in sizes]))
    return chunk, cap, stream, replicas, corrupt, order


@settings(max_examples=300, deadline=None)
@given(run=deposit_runs())
def test_chunk_digests_match_the_whole_stream_algorithm(run):
    """1-3 replicas, random contiguous deposits, any interleaving, an
    optional one-byte corruption: the same digest and the same verdict,
    except where a replica stopped inside a closed chunk holding the
    corrupt byte (the limit), and except that after a divergence is
    reported the canonical bytes may differ (the deposit that completes
    a diverged chunk counts as differing, whichever deposit diverged)."""
    chunk, cap, stream, replicas, corrupt, order = run
    datas = [stream] * len(replicas)
    if corrupt is not None:
        replica, offset = corrupt
        datas[replica] = _corrupt(stream, offset)
    with patch.object(monitors, "CHUNK", chunk), patch.object(monitors, "STREAM_CAP", cap):
        invset, monitor = _monitor()
        oracle = WholeStreamOracle(cap)
        states = [_fake_state(f"hs_{i}") for i in range(len(replicas))]
        positions = [0] * len(replicas)
        taken = [0] * len(replicas)
        for i in order:
            start = positions[i]
            data = datas[i][start : start + replicas[i][taken[i]]]
            taken[i] += 1
            positions[i] = start + len(data)
            monitor.on_deposit(states[i], start, data)
            oracle.on_deposit(start, data)
        digest = monitor.digest()
        base = monitor.streams[CONN].base if order else 0
    expected = oracle.digest() if order else {}
    violated = invset.violated_monitors()
    if violated != (["stream-integrity"] if oracle.violated else []):
        # The limit: missed only where some replica stopped inside a
        # closed chunk, past that chunk's start and the corrupt byte.
        assert oracle.violated and violated == []
        offset = corrupt[1]
        assert any(p - p % chunk <= offset < p < base for p in positions)
    if violated:
        assert {k: v[0] for k, v in digest.items()} == {k: v[0] for k, v in expected.items()}
    else:
        assert digest == expected
