"""Tests for TCP send/receive buffers, including a property-based
comparison of the reassembler against a naive reference model."""

import pytest
from hypothesis import given, strategies as st

from repro.tcp import Reassembler, SendBuffer, SocketBuffer
from repro.tcp.buffers import UNGATED, BufferError


class TestSendBuffer:
    def test_append_and_read(self):
        buf = SendBuffer(100)
        assert buf.append(b"hello world") == 11
        assert buf.read(0, 5) == b"hello"
        assert buf.read(6, 100) == b"world"

    def test_capacity_limits_append(self):
        buf = SendBuffer(10)
        assert buf.append(b"x" * 20) == 10
        assert buf.append(b"y") == 0
        assert buf.free_space == 0

    def test_ack_frees_space(self):
        buf = SendBuffer(10)
        buf.append(b"0123456789")
        buf.ack_to(4)
        assert buf.free_space == 4
        assert buf.append(b"abcd") == 4
        assert buf.read(10, 4) == b"abcd"

    def test_read_below_base_raises(self):
        buf = SendBuffer(10)
        buf.append(b"0123456789")
        buf.ack_to(5)
        with pytest.raises(BufferError):
            buf.read(3, 2)

    def test_ack_beyond_end_raises(self):
        buf = SendBuffer(10)
        buf.append(b"abc")
        with pytest.raises(BufferError):
            buf.ack_to(4)

    def test_ack_is_monotonic(self):
        buf = SendBuffer(10)
        buf.append(b"0123456789")
        buf.ack_to(5)
        buf.ack_to(3)  # regression is a no-op
        assert buf.base == 5

    def test_read_spans_chunks_when_coalescing(self):
        buf = SendBuffer(100)
        buf.append(b"aaa")
        buf.append(b"bbb")
        assert buf.read(0, 6) == b"aaabbb"

    def test_boundary_preservation(self):
        buf = SendBuffer(100, preserve_boundaries=True)
        buf.append(b"aaa")
        buf.append(b"bbb")
        assert buf.read(0, 6) == b"aaa"
        assert buf.read(3, 6) == b"bbb"
        assert buf.read(1, 6) == b"aa"

    def test_read_past_end_empty(self):
        buf = SendBuffer(100)
        buf.append(b"abc")
        assert buf.read(3, 10) == b""

    def test_whole_append_of_bytes_skips_copy(self):
        data = b"x" * 50
        buf = SendBuffer(100)
        assert buf.append(data) == 50
        assert buf._chunks[-1] is data  # stored by reference, not copied
        assert buf.read(0, 50) == data

    def test_partial_or_mutable_append_still_copies(self):
        big = b"y" * 100
        buf = SendBuffer(60)
        assert buf.append(big) == 60
        assert buf._chunks[-1] == b"y" * 60
        assert buf._chunks[-1] is not big
        mutable = bytearray(b"abcd")
        buf2 = SendBuffer(100)
        buf2.append(mutable)
        mutable[0] = ord("z")  # caller mutation must not leak in
        assert buf2.read(0, 4) == b"abcd"

    def test_boundary_preservation_with_zero_copy_appends(self):
        buf = SendBuffer(100, preserve_boundaries=True)
        buf.append(b"aaaa")
        buf.append(b"bbbb")
        buf.append(bytearray(b"cc"))
        assert buf.read(0, 10) == b"aaaa"
        assert buf.read(4, 10) == b"bbbb"
        assert buf.read(8, 10) == b"cc"

    def test_ack_compaction_keeps_reads_correct(self):
        buf = SendBuffer(10_000)
        payload = bytes(range(256)) * 4  # 1024 B in 128 appends of 8
        for i in range(0, len(payload), 8):
            buf.append(payload[i : i + 8])
        buf.ack_to(800)  # trims 100 chunks, past the compaction trigger
        assert buf.base == 800
        assert buf.read(800, 224) == payload[800:]
        buf.append(b"tail")
        assert buf.read(1024, 4) == b"tail"

    @given(
        preserve=st.booleans(),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.binary(min_size=0, max_size=40)),
                st.tuples(
                    st.just("read"),
                    st.integers(min_value=0, max_value=400),
                    st.integers(min_value=-1, max_value=50),
                ),
                st.tuples(st.just("ack"), st.integers(min_value=0, max_value=400)),
                st.tuples(st.just("commit"), st.integers(min_value=0, max_value=400)),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_matches_bytearray_model(self, preserve, ops):
        """append / read / ack_to / a moving commit point against a flat
        bytearray of the whole stream plus the list of write boundaries:
        a read never passes the commit point."""
        capacity = 128
        buf = SendBuffer(capacity, preserve_boundaries=preserve)
        stream = bytearray()
        boundaries = []  # end offset of every accepted write
        base = 0
        commit = UNGATED
        for op in ops:
            end = len(stream)
            if op[0] == "append":
                data = op[1]
                accept = min(len(data), max(0, capacity - (end - base)))
                assert buf.append(data) == accept
                if accept:
                    stream += data[:accept]
                    boundaries.append(len(stream))
            elif op[0] == "read":
                offset, max_len = op[1] % (end + 3), op[2]
                if offset < base:
                    with pytest.raises(BufferError):
                        buf.read(offset, max_len)
                    continue
                stop = min(end, commit, offset + max(0, max_len))
                if preserve and offset < stop:
                    stop = min(stop, next(b for b in boundaries if b > offset))
                assert buf.read(offset, max_len) == bytes(stream[offset:stop])
            elif op[0] == "commit":
                # Anywhere, behind the base too: a promotion can pull it back.
                commit = buf.commit = op[1] % (end + 3)
            else:
                offset = op[1] % (end + 3)
                if offset > end:
                    with pytest.raises(BufferError):
                        buf.ack_to(offset)
                    continue
                buf.ack_to(offset)
                base = max(base, offset)
            assert (buf.base, buf.end) == (base, len(stream))
            assert buf.free_space == max(0, capacity - (len(stream) - base))


class TestReassembler:
    def test_in_order(self):
        r = Reassembler()
        r.add(0, b"abc")
        r.add(3, b"def")
        assert r.take() == b"abcdef"
        assert r.take_point == 6

    def test_out_of_order_held(self):
        r = Reassembler()
        r.add(3, b"def")
        assert r.staged_bytes == 0
        assert r.out_of_order_bytes == 3
        r.add(0, b"abc")
        assert r.take() == b"abcdef"

    def test_duplicate_ignored(self):
        r = Reassembler()
        r.add(0, b"abc")
        gained = r.add(0, b"abc")
        assert gained == 0
        assert r.duplicate_bytes == 3
        assert r.take() == b"abc"

    def test_partial_overlap_with_delivered(self):
        r = Reassembler()
        r.add(0, b"abcd")
        r.add(2, b"cdef")
        assert r.take() == b"abcdef"

    def test_overlap_between_pending_fragments(self):
        r = Reassembler()
        r.add(4, b"efgh")
        r.add(2, b"cdef")
        r.add(0, b"ab")
        assert r.take() == b"abcdefgh"

    def test_take_limited(self):
        r = Reassembler()
        r.add(0, b"abcdef")
        assert r.take(2) == b"ab"
        assert r.take_point == 2
        assert r.staged_bytes == 4
        assert r.take(100) == b"cdef"

    def test_empty_add_is_noop(self):
        r = Reassembler()
        assert r.add(0, b"") == 0

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.integers(min_value=0, max_value=60),
                    st.integers(min_value=1, max_value=20),
                ),
                st.tuples(st.just("take"), st.integers(min_value=0, max_value=30)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_reference_model(self, ops):
        """Arbitrary overlapping slices of a known stream, interleaved
        with partial takes, against a byte-per-slot model: every
        counter agrees after every step and the bytes handed out are
        the stream, in order, uncorrupted."""
        stream = bytes(range(100))
        r = Reassembler()
        held = [False] * 100  # the model: which stream bytes have arrived
        in_order_end = take_point = duplicates = gained_total = 0
        for op in ops:
            if op[0] == "add":
                _, offset, length = op
                gained_total += r.add(offset, stream[offset : offset + length])
                for pos in range(offset, offset + length):
                    duplicates += held[pos]
                    held[pos] = True
                while in_order_end < 100 and held[in_order_end]:
                    in_order_end += 1
            else:
                n = min(op[1], in_order_end - take_point)
                assert r.take(op[1]) == stream[take_point : take_point + n]
                take_point += n
            ranges, pos = [], in_order_end
            while pos < 100:
                if held[pos]:
                    start = pos
                    while pos < 100 and held[pos]:
                        pos += 1
                    ranges.append((start, pos))
                else:
                    pos += 1
            assert r.in_order_end == in_order_end == gained_total
            assert r.take_point == take_point
            assert r.staged_bytes == in_order_end - take_point
            assert r.out_of_order_ranges() == ranges
            assert r.out_of_order_bytes == sum(end - start for start, end in ranges)
            assert r.duplicate_bytes == duplicates
        assert r.take() == stream[take_point:in_order_end]
        assert r.staged_bytes == 0 and r.take_point == in_order_end


class TestReassemblerAdversarial:
    """Worst-case arrival orders for the sorted-offset fragment index."""

    def test_fully_reversed_arrival(self):
        """Every segment arrives in exactly reversed order: nothing
        drains until the first segment lands, the out-of-order
        accounting matches the held ranges throughout, and the stream
        comes out intact with zero duplicate bytes."""
        seg = 100
        payload = bytes(range(256)) * 25  # 6400 B
        offsets = list(range(0, len(payload), seg))
        r = Reassembler()
        for off in reversed(offsets):
            gained = r.add(off, payload[off : off + seg])
            if off > 0:
                assert gained == 0
                ranges = r.out_of_order_ranges()
                assert ranges == [(off, len(payload))]
                assert r.out_of_order_bytes == len(payload) - off
            else:
                assert gained == len(payload)
        assert r.take() == payload
        assert r.duplicate_bytes == 0
        assert r.out_of_order_bytes == 0
        assert r.out_of_order_ranges() == []

    def test_reversed_arrival_with_full_retransmissions(self):
        """The same reversed stream, every segment sent twice (a
        retransmission storm): the stream is still intact and the
        duplicate accounting is exactly one extra copy of each byte."""
        seg = 64
        payload = bytes(range(256)) * 8  # 2048 B
        r = Reassembler()
        for off in reversed(range(0, len(payload), seg)):
            r.add(off, payload[off : off + seg])
            r.add(off, payload[off : off + seg])
        assert r.take() == payload
        assert r.duplicate_bytes == len(payload)
        assert r.out_of_order_bytes == 0

    def test_interleaved_gaps_track_sack_ranges(self):
        """Alternating even/odd segments: the range list reflects the
        comb of gaps, then collapses once the odd segments land."""
        seg = 10
        payload = bytes(range(200))
        evens = [off for off in range(0, 200, seg) if (off // seg) % 2 == 0]
        odds = [off for off in range(0, 200, seg) if (off // seg) % 2 == 1]
        r = Reassembler()
        for off in evens[1:]:  # hold back segment 0 so nothing drains
            r.add(off, payload[off : off + seg])
        assert r.out_of_order_ranges() == [(off, off + seg) for off in evens[1:]]
        assert r.out_of_order_bytes == seg * len(evens[1:])
        for off in odds:
            r.add(off, payload[off : off + seg])
        assert r.out_of_order_ranges() == [(seg, 200)]
        r.add(0, payload[:seg])
        assert r.take() == payload
        assert r.duplicate_bytes == 0


class TestSocketBuffer:
    def test_deposit_read(self):
        buf = SocketBuffer()
        buf.deposit(b"abc")
        buf.deposit(b"def")
        assert buf.size == 6
        assert buf.read(4) == b"abcd"
        assert buf.read() == b"ef"
        assert buf.size == 0

    def test_totals(self):
        buf = SocketBuffer()
        buf.deposit(b"abcdef")
        buf.read(2)
        assert buf.total_deposited == 6
        assert buf.total_read == 2

    def test_empty_read(self):
        assert SocketBuffer().read() == b""

    def test_empty_deposit_noop(self):
        buf = SocketBuffer()
        buf.deposit(b"")
        assert buf.size == 0
