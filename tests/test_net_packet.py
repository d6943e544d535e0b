"""Tests for full-frame decoding and frame builders."""

import pytest

from repro.net.ethernet import EtherType, EthernetHeader
from repro.net.ip import addr_from_str, ip_to_str
from repro.net.packet import build_tcp_frame, build_udp_frame, parse_frame
from repro.net.tcp import TCPFlags


def test_udp_frame_roundtrip():
    frame = build_udp_frame("10.8.1.2", 50000, "170.114.10.5", 8801, b"payload!")
    parsed = parse_frame(frame, 3.5)
    assert parsed.timestamp == 3.5
    assert parsed.is_udp and not parsed.is_tcp
    assert parsed.src_ip == "10.8.1.2"
    assert parsed.dst_ip == "170.114.10.5"
    assert parsed.src_port == 50000
    assert parsed.dst_port == 8801
    assert parsed.payload == b"payload!"


def test_udp_five_tuple():
    frame = build_udp_frame("10.8.1.2", 50000, "170.114.10.5", 8801, b"x")
    parsed = parse_frame(frame)
    src, src_port, dst, dst_port, proto = parsed.five_tuple
    assert (ip_to_str(src), src_port, ip_to_str(dst), dst_port, proto) == (
        "10.8.1.2", 50000, "170.114.10.5", 8801, 17
    )
    assert (src, dst) == (addr_from_str("10.8.1.2"), addr_from_str("170.114.10.5"))
    assert parsed.protocol == 17


def test_tcp_frame_roundtrip():
    frame = build_tcp_frame(
        "10.8.1.2", 40000, "170.114.10.5", 443,
        seq=100, ack=200, flags=TCPFlags.ACK | TCPFlags.PSH, payload=b"tls bytes",
    )
    parsed = parse_frame(frame)
    assert parsed.is_tcp
    assert parsed.tcp.seq == 100
    assert parsed.tcp.ack == 200
    assert parsed.payload == b"tls bytes"
    assert parsed.protocol == 6


def test_empty_payload_udp():
    frame = build_udp_frame("1.2.3.4", 1, "5.6.7.8", 2, b"")
    parsed = parse_frame(frame)
    assert parsed.payload == b""
    assert parsed.udp.payload_length == 0


def test_ethernet_padding_ignored():
    """Short frames padded to 60 bytes must not leak padding into payload."""
    frame = build_udp_frame("1.2.3.4", 1, "5.6.7.8", 2, b"ab")
    padded = frame + b"\x00" * (60 - len(frame))
    parsed = parse_frame(padded)
    assert parsed.payload == b"ab"


def test_non_ip_frame_degrades_gracefully():
    ether = EthernetHeader(
        dst=b"\x02" * 6, src=b"\x04" * 6, ethertype=EtherType.ARP
    )
    frame = ether.serialize() + b"arp-body"
    parsed = parse_frame(frame)
    assert parsed.ethernet is not None
    assert parsed.ipv4 is None and parsed.ipv6 is None
    assert parsed.payload == b"arp-body"
    assert parsed.five_tuple is None


def test_truncated_frame_degrades_gracefully():
    parsed = parse_frame(b"\x00" * 10)
    assert parsed.ethernet is None
    assert parsed.raw == b"\x00" * 10


def test_corrupt_ip_keeps_ethernet():
    frame = bytearray(build_udp_frame("1.2.3.4", 1, "5.6.7.8", 2, b"zz"))
    frame[14] = 0x75  # bad IP version
    parsed = parse_frame(bytes(frame))
    assert parsed.ethernet is not None
    assert parsed.ipv4 is None


def test_dscp_propagates():
    frame = build_udp_frame("1.2.3.4", 1, "5.6.7.8", 2, b"x", dscp=46)
    parsed = parse_frame(frame)
    assert parsed.ipv4.dscp == 46


@pytest.mark.parametrize("size", [0, 1, 100, 1400])
def test_various_payload_sizes(size):
    payload = bytes(size % 256 for _ in range(size))
    frame = build_udp_frame("10.0.0.1", 9, "10.0.0.2", 10, payload)
    assert parse_frame(frame).payload == payload


def test_tcp_checksum_is_computed():
    frame = build_tcp_frame("10.8.1.2", 40000, "170.114.10.5", 443, seq=1, payload=b"abc")
    parsed = parse_frame(frame)
    assert parsed.tcp.checksum != 0
