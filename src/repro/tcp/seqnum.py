"""32-bit TCP sequence-number arithmetic (RFC 793 comparisons).

All on-the-wire sequence numbers are 32-bit and wrap; internally the
stack works with unbounded Python stream offsets and converts at the
edge using these helpers.
"""

from __future__ import annotations

SEQ_MOD = 2**32
_HALF = 2**31


def seq_add(seq: int, delta: int) -> int:
    """Add ``delta`` (may be negative) to a sequence number, mod 2**32."""
    return (seq + delta) % SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """Signed distance ``a - b`` interpreted in the window [-2**31, 2**31)."""
    diff = (a - b) % SEQ_MOD
    if diff >= _HALF:
        diff -= SEQ_MOD
    return diff
