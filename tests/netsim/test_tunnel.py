"""Tests for IP-in-IP tunnelling."""

import pytest

from repro.netsim import (
    ENCAPSULATION_OVERHEAD,
    IPAddress,
    IPPacket,
    Protocol,
    RawData,
    TunnelError,
    decapsulate,
    encapsulate,
)


def inner_packet(size=100):
    return IPPacket(
        src=IPAddress("1.1.1.1"),
        dst=IPAddress("2.2.2.2"),
        protocol=Protocol.TCP,
        payload=RawData(b"p" * size),
    )


def test_encapsulate_sets_outer_fields():
    inner = inner_packet()
    outer = encapsulate(inner, IPAddress("9.9.9.9"), IPAddress("8.8.8.8"))
    assert outer.protocol == Protocol.IPIP
    assert outer.src == IPAddress("9.9.9.9")
    assert outer.dst == IPAddress("8.8.8.8")


def test_round_trip_preserves_inner():
    inner = inner_packet()
    outer = encapsulate(inner, IPAddress("9.9.9.9"), IPAddress("8.8.8.8"))
    assert decapsulate(outer) is inner


def test_wire_size_overhead_is_one_header():
    inner = inner_packet(200)
    outer = encapsulate(inner, IPAddress("9.9.9.9"), IPAddress("8.8.8.8"))
    assert outer.wire_size == inner.wire_size + ENCAPSULATION_OVERHEAD


def test_decapsulate_rejects_non_ipip():
    with pytest.raises(TunnelError):
        decapsulate(inner_packet())


def test_decapsulate_rejects_bad_payload():
    bogus = IPPacket(
        src=IPAddress("1.1.1.1"),
        dst=IPAddress("2.2.2.2"),
        protocol=Protocol.IPIP,
        payload=RawData(b"not-encapsulated"),
    )
    with pytest.raises(TunnelError):
        decapsulate(bogus)


def test_ttl_copied_from_inner():
    inner = inner_packet()
    inner.ttl = 7
    outer = encapsulate(inner, IPAddress("9.9.9.9"), IPAddress("8.8.8.8"))
    assert outer.ttl == 7
