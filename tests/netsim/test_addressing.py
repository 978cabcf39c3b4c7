"""Tests for addresses and CIDR networks."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.netsim import AddressError, IPAddress, Network, as_address


class TestIPAddress:
    def test_parse_dotted_quad(self):
        assert int(IPAddress("10.0.0.1")) == (10 << 24) + 1

    def test_round_trip_string(self):
        assert str(IPAddress("192.20.225.20")) == "192.20.225.20"

    def test_from_int(self):
        assert str(IPAddress(0)) == "0.0.0.0"
        assert str(IPAddress(0xFFFFFFFF)) == "255.255.255.255"

    def test_copy_constructor(self):
        a = IPAddress("1.2.3.4")
        assert IPAddress(a) == a

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "", "1.2.3.-4"]
    )
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            IPAddress(bad)

    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_out_of_range_ints_rejected(self, bad):
        with pytest.raises(AddressError):
            IPAddress(bad)

    def test_is_an_int(self):
        a = IPAddress("10.0.0.1")
        value = (10 << 24) + 1
        assert isinstance(a, int)
        assert a == value and hash(a) == hash(value)
        assert {value: "x"}[a] == "x"
        assert a != "10.0.0.1"
        assert repr(a) == "IPAddress('10.0.0.1')"

    def test_formats_dotted(self):
        a = IPAddress("192.20.225.20")
        assert f"{a}" == format(a, "") == "%s" % a == str(a) == "192.20.225.20"

    def test_pickle_keeps_type(self):
        a = IPAddress("10.1.2.3")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            b = pickle.loads(pickle.dumps(a, protocol))
            assert type(b) is IPAddress and b == a and str(b) == "10.1.2.3"

    @pytest.mark.parametrize("bad", [1.5, None, b"10.0.0.1"])
    def test_other_types_rejected(self, bad):
        with pytest.raises(AddressError):
            IPAddress(bad)

    def test_hashable_and_usable_in_sets(self):
        addrs = {IPAddress("10.0.0.1"), IPAddress("10.0.0.1"), IPAddress("10.0.0.2")}
        assert len(addrs) == 2

    def test_ordering(self):
        assert IPAddress("10.0.0.1") < IPAddress("10.0.0.2")

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_int_string_round_trip(self, value):
        assert int(IPAddress(str(IPAddress(value)))) == value

    def test_as_address_coercion(self):
        assert as_address("1.1.1.1") == IPAddress("1.1.1.1")
        addr = IPAddress("2.2.2.2")
        assert as_address(addr) is addr


class TestNetwork:
    def test_contains(self):
        net = Network("10.1.2.0/24")
        assert "10.1.2.200" in net
        assert "10.1.3.1" not in net

    def test_base_is_masked(self):
        assert str(Network("10.1.2.77/24").base) == "10.1.2.0"

    def test_broadcast(self):
        assert str(Network("10.1.2.0/24").broadcast) == "10.1.2.255"

    def test_zero_prefix_contains_everything(self):
        net = Network("0.0.0.0/0")
        assert "255.255.255.255" in net
        assert "1.2.3.4" in net

    def test_slash_32_contains_only_itself(self):
        net = Network("10.0.0.5/32")
        assert "10.0.0.5" in net
        assert "10.0.0.6" not in net

    def test_missing_prefix_rejected(self):
        with pytest.raises(AddressError):
            Network("10.0.0.0")

    @pytest.mark.parametrize("bad", [-1, 33])
    def test_bad_prefix_rejected(self, bad):
        with pytest.raises(AddressError):
            Network("10.0.0.0", bad)

    def test_hosts_skips_base_and_broadcast(self):
        hosts = list(Network("10.0.0.0/30").hosts())
        assert [str(h) for h in hosts] == ["10.0.0.1", "10.0.0.2"]

    def test_hosts_slash_31_uses_both(self):
        hosts = list(Network("10.0.0.0/31").hosts())
        assert len(hosts) == 2

    def test_equality_and_hash(self):
        assert Network("10.0.0.0/24") == Network("10.0.0.99/24")
        assert len({Network("10.0.0.0/24"), Network("10.0.0.1/24")}) == 1

    def test_str(self):
        assert str(Network("10.0.0.0/24")) == "10.0.0.0/24"

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_base_always_in_network(self, value, prefix):
        net = Network(str(IPAddress(value)), prefix)
        assert net.base in net
        assert net.broadcast in net

