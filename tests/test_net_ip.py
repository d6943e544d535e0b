"""Tests for IPv4/IPv6 header handling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum
from repro.net.ip import (
    IPProtocol,
    IPv4Header,
    IPv6Header,
    addr_from_packed,
    addr_from_str,
    ip_from_str,
    ip_to_str,
)

SRC4 = ip_from_str("10.8.1.2")
DST4 = ip_from_str("170.114.10.5")


def _v4(**overrides) -> IPv4Header:
    defaults = dict(src=SRC4, dst=DST4, protocol=IPProtocol.UDP, total_length=120)
    defaults.update(overrides)
    return IPv4Header(**defaults)


def test_serialize_length_and_version():
    wire = _v4().serialize()
    assert len(wire) == 20
    assert wire[0] == 0x45  # version 4, IHL 5


def test_checksum_valid_on_serialize():
    assert internet_checksum(_v4().serialize()) == 0


def test_roundtrip():
    header = _v4(ttl=17, identification=4242, dscp=46, ecn=1)
    parsed, offset = IPv4Header.parse(header.serialize() + b"x" * 100)
    assert parsed == header
    assert offset == 20


def test_payload_length():
    assert _v4(total_length=120).payload_length == 100


def test_address_strings():
    header = _v4()
    assert header.src_str == "10.8.1.2"
    assert header.dst_str == "170.114.10.5"


def test_parse_rejects_corrupted_checksum():
    wire = bytearray(_v4().serialize())
    wire[10] ^= 0xFF
    with pytest.raises(ValueError):
        IPv4Header.parse(bytes(wire))


def test_parse_rejects_wrong_version():
    wire = bytearray(_v4().serialize())
    wire[0] = 0x65
    with pytest.raises(ValueError):
        IPv4Header.parse(bytes(wire))


def test_parse_rejects_short_buffer():
    with pytest.raises(ValueError):
        IPv4Header.parse(b"\x45" + b"\x00" * 10)


def test_parse_rejects_bad_ihl():
    wire = bytearray(_v4().serialize())
    wire[0] = 0x44  # IHL 4 < 5
    with pytest.raises(ValueError):
        IPv4Header.parse(bytes(wire))


def test_rejects_bad_address_length():
    with pytest.raises(ValueError):
        IPv4Header(src=b"\x00" * 3, dst=DST4, protocol=17, total_length=40)


def test_rejects_total_length_out_of_range():
    with pytest.raises(ValueError):
        _v4(total_length=10)
    with pytest.raises(ValueError):
        _v4(total_length=70000)


@given(
    ttl=st.integers(min_value=1, max_value=255),
    identification=st.integers(min_value=0, max_value=0xFFFF),
    total_length=st.integers(min_value=20, max_value=0xFFFF),
    dscp=st.integers(min_value=0, max_value=63),
    ecn=st.integers(min_value=0, max_value=3),
    protocol=st.integers(min_value=0, max_value=255),
)
def test_v4_roundtrip_property(ttl, identification, total_length, dscp, ecn, protocol):
    header = IPv4Header(
        src=SRC4,
        dst=DST4,
        protocol=protocol,
        total_length=total_length,
        ttl=ttl,
        identification=identification,
        dscp=dscp,
        ecn=ecn,
    )
    parsed, _offset = IPv4Header.parse(header.serialize())
    assert parsed == header


SRC6 = ip_from_str("2001:db8::1")
DST6 = ip_from_str("2001:db8::2")


def test_v6_roundtrip():
    header = IPv6Header(
        src=SRC6,
        dst=DST6,
        next_header=IPProtocol.UDP,
        payload_length=512,
        hop_limit=33,
        traffic_class=12,
        flow_label=0xABCDE,
    )
    parsed, offset = IPv6Header.parse(header.serialize())
    assert parsed == header
    assert offset == 40


def test_v6_rejects_wrong_version():
    wire = bytearray(
        IPv6Header(src=SRC6, dst=DST6, next_header=17, payload_length=0).serialize()
    )
    wire[0] = 0x45
    with pytest.raises(ValueError):
        IPv6Header.parse(bytes(wire))


def test_v6_rejects_short_buffer():
    with pytest.raises(ValueError):
        IPv6Header.parse(b"\x60" + b"\x00" * 20)


def test_v6_flow_label_range():
    with pytest.raises(ValueError):
        IPv6Header(src=SRC6, dst=DST6, next_header=17, payload_length=0, flow_label=1 << 20)


def test_ip_string_roundtrip():
    for text in ("192.0.2.7", "0.0.0.0", "255.255.255.255", "2001:db8::5"):
        assert ip_to_str(addr_from_str(text)) == text
        assert addr_from_packed(ip_from_str(text)) == addr_from_str(text)
    assert addr_from_str("::192.0.2.7") != addr_from_str("192.0.2.7")
    assert ip_to_str("192.0.2.7") == "192.0.2.7"  # rendered text passes through
