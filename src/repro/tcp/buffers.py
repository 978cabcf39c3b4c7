"""Send and receive buffers for the TCP stack.

All offsets here are *stream offsets*: unbounded integers counting
payload bytes from the start of the connection (offset 0 is the first
payload byte after the SYN).  The TCB converts to 32-bit wire sequence
numbers at the edge.

The receive path is split in two stages on purpose:

    segments --> Reassembler (contiguous "staged" bytes)
             --> deposit --> SocketBuffer (readable by the application)

Plain TCP deposits staged bytes immediately; HydraNet-FT's ft-TCP gates
the deposit on the acknowledgement channel (paper §4.3), which is why
the stage boundary exists.

The gates are two plain ints the ft-TCP layer pushes: a send buffer's
``commit`` (no byte at or past it is ever read out for sending) and a
reassembler's ``ceiling`` (no byte at or past it is deposited).  Both
are ``UNGATED`` on a connection nothing gates.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from typing import Optional

#: The commit point of an ungated stream: past any stream offset.
UNGATED = 1 << 62


class BufferError(RuntimeError):
    pass


def _pop_bytes(buf, max_bytes: int) -> bytes:
    """Remove and return up to ``max_bytes`` from the front of the byte
    chunks ``buf`` holds, splitting the last chunk taken if need be —
    the general case behind the whole-chunk fast paths of ``take`` /
    ``read``.  A Reassembler and a SocketBuffer hold chunks the same
    way: the front one in ``_head`` (``b""`` when there is none), which
    is usually all there is, and those waiting behind it in ``_queue``,
    a deque created when the first one has to wait."""
    pieces: list[bytes] = []
    chunk, queue = buf._head, buf._queue
    while chunk and len(chunk) <= max_bytes:
        pieces.append(chunk)
        max_bytes -= len(chunk)
        chunk = queue.popleft() if queue else b""
    if chunk and max_bytes > 0:
        pieces.append(chunk[:max_bytes])
        chunk = chunk[max_bytes:]
    buf._head = chunk
    return b"".join(pieces)


class SendBuffer:
    """Outbound byte stream with retransmission storage.

    Data below ``base`` (the cumulative-ACK point) is discarded; data
    between ``base`` and ``end`` is retained for retransmission.  When
    ``preserve_boundaries`` is set, reads never span an application
    write boundary — each write becomes its own segment (the paper's
    measurement mode).  ``commit`` is the output-commit point: ``read``
    never returns a byte at or past it, so every sender is gated.
    """

    __slots__ = (
        "capacity", "preserve_boundaries", "_starts", "_chunks", "_head", "base", "end", "commit",
    )

    def __init__(self, capacity: int, preserve_boundaries: bool = False):
        self.capacity = capacity
        self.preserve_boundaries = preserve_boundaries
        # Parallel arrays: chunk start offsets (sorted, bisect-indexed
        # by `read`) and the chunk bytes.  `_head` is the index of the
        # first retained chunk; acked prefixes are trimmed lazily so
        # `ack_to` never pays a per-chunk list shift.
        self._starts: list[int] = []
        self._chunks: list[bytes] = []
        self._head = 0
        #: Lowest retained offset / next append offset.  Plain
        #: attributes (read on every segment), written only here.
        self.base = 0
        self.end = 0
        #: Written by the ft-TCP layer alone (``FtConnectionState.push_gates``).
        self.commit = UNGATED

    @property
    def free_space(self) -> int:
        free = self.capacity - self.end + self.base
        return free if free > 0 else 0

    def append(self, data: bytes) -> int:
        """Append as much of ``data`` as fits; returns bytes accepted."""
        free = self.capacity - self.end + self.base
        accept = len(data)
        if accept > free:
            accept = free if free > 0 else 0
        if accept == 0:
            return 0
        if accept == len(data) and isinstance(data, bytes):
            chunk = data  # whole-buffer append of immutable bytes: no copy
        else:
            chunk = bytes(data[:accept])
        self._starts.append(self.end)
        self._chunks.append(chunk)
        self.end += accept
        return accept

    def read(self, offset: int, max_len: int) -> bytes:
        """Bytes starting at ``offset``, up to ``max_len`` and never at or
        past ``commit`` (less when boundary preservation stops at a
        write boundary)."""
        if offset < self.base:
            raise BufferError(f"offset {offset} below base {self.base}")
        stop = self.commit if self.commit < self.end else self.end
        if max_len > stop - offset:
            max_len = stop - offset
        if max_len <= 0:
            return b""
        starts = self._starts
        chunks = self._chunks
        # Last chunk whose start is <= offset; chunks are contiguous, so
        # it contains `offset`.
        i = bisect_right(starts, offset, self._head) - 1
        chunk = chunks[i]
        piece = chunk[offset - starts[i] : offset - starts[i] + max_len]
        if self.preserve_boundaries or len(piece) == max_len:
            return piece
        pieces = [piece]
        remaining = max_len - len(piece)
        n = len(chunks)
        i += 1
        while remaining > 0 and i < n:
            chunk = chunks[i]
            if len(chunk) <= remaining:
                pieces.append(chunk)
                remaining -= len(chunk)
            else:
                pieces.append(chunk[:remaining])
                remaining = 0
            i += 1
        return b"".join(pieces)

    def ack_to(self, offset: int) -> None:
        """Discard data below ``offset`` (cumulative ACK)."""
        if offset > self.end:
            raise BufferError(f"ack beyond data: {offset} > {self.end}")
        if offset <= self.base:
            return
        self.base = offset
        starts, chunks = self._starts, self._chunks
        head, n = self._head, len(chunks)
        while head < n and starts[head] + len(chunks[head]) <= offset:
            head += 1
        self._head = head
        # Compact once the dead prefix dominates the arrays.
        if head > 32 and head * 2 >= n:
            del starts[:head]
            del chunks[:head]
            self._head = 0


class Reassembler:
    """Receive-side segment reassembly.

    Produces the *staged* contiguous byte stream; out-of-order segments
    wait in an interval map.  Overlaps and duplicates (retransmissions)
    are tolerated and clipped.
    """

    __slots__ = (
        "_head", "_queue", "staged_bytes", "in_order_end", "take_point",
        "_fragments", "_frag_offsets", "out_of_order_bytes", "duplicate_bytes", "ceiling",
    )

    def __init__(self):
        self._head = b""
        self._queue: Optional[deque[bytes]] = None
        # Plain attributes (read on every segment), written only here.
        #: Bytes staged: in order, not yet taken.
        self.staged_bytes = 0
        #: Next expected stream offset.
        self.in_order_end = 0
        #: Offset of the first staged byte.
        self.take_point = 0
        # Disjoint out-of-order fragments: offset -> bytes, with the
        # offsets mirrored in a sorted list so inserts, drains, and
        # range queries never re-sort the whole map.  Both are
        # created by the first out-of-order arrival.
        self._fragments: Optional[dict[int, bytes]] = None
        self._frag_offsets: Optional[list[int]] = None
        self.out_of_order_bytes = 0
        self.duplicate_bytes = 0
        #: The deposit ceiling: staged bytes at or past it stay staged.
        #: Written by the ft-TCP layer alone (``FtConnectionState.push_gates``).
        self.ceiling = UNGATED

    def out_of_order_ranges(self) -> list[tuple[int, int]]:
        """Disjoint [start, end) stream ranges held beyond the in-order
        point."""
        ranges: list[tuple[int, int]] = []
        fragments = self._fragments
        for offset in self._frag_offsets or ():
            end = offset + len(fragments[offset])
            if ranges and ranges[-1][1] == offset:
                ranges[-1] = (ranges[-1][0], end)
            else:
                ranges.append((offset, end))
        return ranges

    def add(self, offset: int, data: bytes) -> int:
        """Insert a segment's payload at ``offset``.  Returns the number
        of new in-order bytes made available."""
        if not data:
            return 0
        in_order_end = self.in_order_end
        end = offset + len(data)
        if end <= in_order_end:
            self.duplicate_bytes += len(data)
            return 0
        if offset < in_order_end:
            self.duplicate_bytes += in_order_end - offset
            data = data[in_order_end - offset :]
            offset = in_order_end
        if offset != in_order_end or self._frag_offsets:
            # Out of order, or a hole behind it may close: through the
            # fragment map, which hands back what became in order.
            self._insert_fragment(offset, data)
            data = self._drain_in_order()
            if not data:
                return 0
        # ``data`` is the next in-order piece: staged as it is.
        if not self.staged_bytes:
            self._head = data
        else:  # the deposit gate is holding the bytes before it
            try:
                self._queue.append(data)
            except AttributeError:  # the first chunk ever to wait
                self._queue = deque((data,))
        self.in_order_end += len(data)
        self.staged_bytes += len(data)
        return len(data)

    def _insert_fragment(self, offset: int, data: bytes) -> None:
        """Merge ``data`` into the disjoint fragment map, clipping
        overlap with existing fragments (existing bytes win — they are
        identical in honest TCP anyway)."""
        end = offset + len(data)
        if self._fragments is None:
            self._fragments, self._frag_offsets = {}, []
        fragments = self._fragments
        offsets = self._frag_offsets
        # First existing fragment that can overlap [offset, end): start
        # at the last fragment beginning at or before `offset` (it may
        # reach past `offset`), found by bisection instead of a scan.
        i = bisect_right(offsets, offset) - 1
        if i >= 0:
            frag_off = offsets[i]
            if frag_off + len(fragments[frag_off]) <= offset:
                i += 1
        else:
            i = 0
        inserts: list[tuple[int, bytes]] = []
        while offset < end and i < len(offsets):
            frag_off = offsets[i]
            if frag_off >= end:
                break
            frag_end = frag_off + len(fragments[frag_off])
            if frag_end <= offset:
                i += 1
                continue
            # Overlap: keep the non-overlapping head, step past it.
            if offset < frag_off:
                inserts.append((offset, data[: frag_off - offset]))
            overlap = min(end, frag_end) - max(offset, frag_off)
            self.duplicate_bytes += max(0, overlap)
            new_offset = frag_end
            data = data[max(0, new_offset - offset) :]
            offset = new_offset
            i += 1
        if offset < end and data:
            inserts.append((offset, data))
        for ins_off, piece in inserts:
            fragments[ins_off] = piece
            insort(offsets, ins_off)
            self.out_of_order_bytes += len(piece)

    def _drain_in_order(self) -> bytes:
        """Remove and return the fragments that have become in order
        (``b""`` when the hole at the in-order point is still open)."""
        offsets = self._frag_offsets
        fragments = self._fragments
        expected = self.in_order_end
        k = 0
        pieces: list[bytes] = []
        while k < len(offsets) and offsets[k] == expected:
            frag = fragments.pop(expected)
            pieces.append(frag)
            expected += len(frag)
            k += 1
        del offsets[:k]
        self.out_of_order_bytes -= expected - self.in_order_end
        # Coalesce fragments that drain together into one staged chunk
        # so downstream take()/deposit handle fewer, larger pieces.
        return pieces[0] if k == 1 else b"".join(pieces)

    def take(self, max_bytes: Optional[int] = None) -> bytes:
        """Remove and return up to ``max_bytes`` staged bytes (all of
        them when None)."""
        taken = self._head
        queue = self._queue
        if len(taken) == max_bytes or (max_bytes is None and not queue):
            self._head = queue.popleft() if queue else b""  # a whole chunk: nothing to join
        else:
            taken = _pop_bytes(self, self.staged_bytes if max_bytes is None else max_bytes)
        self.staged_bytes -= len(taken)
        self.take_point += len(taken)
        return taken


class SocketBuffer:
    """Deposited, application-readable bytes (the BSD so_rcv analogue)."""

    __slots__ = ("_head", "_queue", "size", "total_deposited", "total_read")

    def __init__(self):
        self._head = b""
        self._queue: Optional[deque[bytes]] = None
        #: Bytes deposited and not yet read (a plain attribute, read on
        #: every segment for the advertised window; written only here).
        self.size = 0
        self.total_deposited = 0
        self.total_read = 0

    def deposit(self, data: bytes) -> None:
        if data:
            if not self.size:
                self._head = data
            elif self._queue is None:  # the reader lags: chunks start to wait
                self._queue = deque((data,))
            else:
                self._queue.append(data)
            self.size += len(data)
            self.total_deposited += len(data)

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        data = self._head
        queue = self._queue
        if len(data) == max_bytes or (max_bytes is None and not queue):
            self._head = queue.popleft() if queue else b""  # a whole chunk: nothing to join
        else:
            data = _pop_bytes(self, self.size if max_bytes is None else max_bytes)
        self.size -= len(data)
        self.total_read += len(data)
        return data
