"""IPv4-style addressing for the simulated internetwork.

Addresses are modelled as 32-bit integers with dotted-quad parsing, and
:class:`Network` provides the CIDR arithmetic that routers and
redirectors need for longest-prefix matching.
"""

from __future__ import annotations

from typing import Iterator, Union


class AddressError(ValueError):
    """Raised for malformed addresses or exhausted allocations."""


class IPAddress(int):
    """An immutable IPv4-style address: a 32-bit ``int`` that prints
    dotted.

    Accepts dotted-quad strings, integers, or another ``IPAddress``.
    Hashing, equality and ordering are ``int``'s, so sets and dicts
    keyed by addresses probe entirely in C; an address equals its int
    value and never a string.
    """

    __slots__ = ()

    def __new__(cls, value: Union[str, int, "IPAddress"]) -> "IPAddress":
        if isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise AddressError(f"address out of range: {value}")
            return int.__new__(cls, value)
        if isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise AddressError(f"malformed address: {value!r}")
            packed = 0
            for part in parts:
                if not part.isdigit():
                    raise AddressError(f"malformed address: {value!r}")
                octet = int(part)
                if octet > 255:
                    raise AddressError(f"malformed address: {value!r}")
                packed = (packed << 8) | octet
            return int.__new__(cls, packed)
        raise AddressError(f"cannot make an address from {type(value).__name__}")

    def __str__(self) -> str:
        return f"{self >> 24}.{(self >> 16) & 0xFF}.{(self >> 8) & 0xFF}.{self & 0xFF}"

    def __repr__(self) -> str:
        return f"IPAddress('{self}')"


AddressLike = Union[str, int, IPAddress]


def as_address(value: AddressLike) -> IPAddress:
    """Coerce ``value`` to an :class:`IPAddress`."""
    return value if isinstance(value, IPAddress) else IPAddress(value)


class Network:
    """A CIDR network, e.g. ``Network('10.0.1.0/24')``."""

    __slots__ = ("_base", "_prefix_len", "_mask")

    def __init__(self, cidr: Union[str, "Network"], prefix_len: int | None = None):
        if isinstance(cidr, Network):
            self._base, self._prefix_len, self._mask = (
                cidr._base,
                cidr._prefix_len,
                cidr._mask,
            )
            return
        if prefix_len is None:
            if "/" not in cidr:
                raise AddressError(f"missing prefix length: {cidr!r}")
            addr_part, prefix_part = cidr.split("/", 1)
            prefix_len = int(prefix_part)
        else:
            addr_part = cidr
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad prefix length: {prefix_len}")
        self._prefix_len = prefix_len
        self._mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF if prefix_len else 0
        self._base = IPAddress(IPAddress(addr_part) & self._mask)

    @property
    def base(self) -> IPAddress:
        return self._base

    @property
    def prefix_len(self) -> int:
        return self._prefix_len

    @property
    def broadcast(self) -> IPAddress:
        return IPAddress(self._base | (~self._mask & 0xFFFFFFFF))

    def __contains__(self, address: AddressLike) -> bool:
        return (as_address(address) & self._mask) == self._base

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self._base == other._base and self._prefix_len == other._prefix_len

    def __hash__(self) -> int:
        return hash((self._base, self._prefix_len))

    def __str__(self) -> str:
        return f"{self._base}/{self._prefix_len}"

    def __repr__(self) -> str:
        return f"Network('{self}')"

    def hosts(self) -> Iterator[IPAddress]:
        """Iterate over usable host addresses (skips base and broadcast
        for prefixes shorter than /31)."""
        lo = self._base
        hi = self.broadcast
        if self._prefix_len >= 31:
            candidates = range(lo, hi + 1)
        else:
            candidates = range(lo + 1, hi)
        for v in candidates:
            yield IPAddress(v)

