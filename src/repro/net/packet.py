"""Full-stack frame decoding and the packet records used across the library."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.net.ethernet import EtherType, EthernetHeader
from repro.net.ip import IPProtocol, IPv4Header, IPv6Header, addr_from_packed, ip_to_str
from repro.net.tcp import TCPHeader
from repro.net.udp import UDPHeader

FiveTuple = tuple[int, int, int, int, int]
"""(src, src_port, dst, dst_port, protocol) — the flow key used everywhere,
addresses in wire form (:data:`repro.net.ip.IPV6_FLAG`)."""

_ETHERTYPE_IPV4 = int(EtherType.IPV4)
_PROTO_UDP = int(IPProtocol.UDP)

#: From byte 12 of an untagged Ethernet / option-less IPv4 / UDP frame:
#: ethertype, the six leading IPv4 header words (version+IHL+TOS, total
#: length, id, flags+fragment, TTL+protocol, checksum), src, dst, then the
#: UDP ports and length.
_UNPACK_UDP4 = struct.Struct("!HHHHHHHIIHHH").unpack_from
_UDP4_PAYLOAD = 14 + 20 + 8


@dataclass(frozen=True, slots=True)
class CapturedPacket:
    """A raw captured frame with its capture timestamp.

    Attributes:
        timestamp: Capture time in seconds (float, monitor clock).
        data: The raw Ethernet frame bytes.
    """

    timestamp: float
    data: bytes


@dataclass(slots=True)
class ParsedPacket:
    """A decoded frame: what the packet path reads, plus lazy header views.

    The stored fields are all the analyzer's stages consult; any of them is
    ``None`` when the corresponding layer is absent or did not decode (an
    ARP frame has no ``src``).  The ``ethernet``/``ipv4``/``ipv6``/``udp``/
    ``tcp`` header objects are views decoded from ``raw`` on first access.

    Attributes:
        timestamp: Capture time in seconds.
        raw: The original frame bytes.
        payload: Transport payload bytes (b"" when no transport layer).
        src / dst: Wire-form IP addresses (:mod:`repro.net.ip`).
        src_port / dst_port: Ports of the decoded UDP or TCP header.
        proto: ``UDP``/``TCP`` when that header decoded, else the IP
            header's protocol number.
    """

    timestamp: float
    raw: bytes
    payload: bytes = b""
    src: Optional[int] = None
    dst: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    proto: Optional[int] = None
    _headers: Optional[tuple] = field(default=None, repr=False, compare=False)

    def _header(self, layer: int):
        headers = self._headers
        if headers is None:
            headers = self._headers = _decode_layers(self.raw)[:5]
        return headers[layer]

    @property
    def ethernet(self) -> EthernetHeader | None:
        return self._header(0)

    @property
    def ipv4(self) -> IPv4Header | None:
        return self._header(1)

    @property
    def ipv6(self) -> IPv6Header | None:
        return self._header(2)

    @property
    def udp(self) -> UDPHeader | None:
        return self._header(3)

    @property
    def tcp(self) -> TCPHeader | None:
        return self._header(4)

    @property
    def src_ip(self) -> str | None:
        return None if self.src is None else ip_to_str(self.src)

    @property
    def dst_ip(self) -> str | None:
        return None if self.dst is None else ip_to_str(self.dst)

    @property
    def protocol(self) -> int | None:
        return self.proto

    @property
    def five_tuple(self) -> FiveTuple | None:
        """The (src, src_port, dst, dst_port, proto) key, or ``None``."""
        if self.src is None or self.src_port is None:
            return None
        return (self.src, self.src_port, self.dst, self.dst_port, self.proto)

    @property
    def is_udp(self) -> bool:
        return self.proto == IPProtocol.UDP and self.src_port is not None

    @property
    def is_tcp(self) -> bool:
        return self.proto == IPProtocol.TCP and self.src_port is not None


def parse_frame(data: bytes, timestamp: float = 0.0) -> ParsedPacket:
    """Decode an Ethernet frame down to the transport payload.

    An untagged-Ethernet / option-less-IPv4 / UDP frame — what nearly every
    analyzed packet is — is built from one ``unpack_from`` over its fixed
    offsets with every check the layered parser makes (header checksum,
    ``total_length``/UDP-length trims); its header objects stay lazy.  Any
    other shape goes through :func:`_parse_layered`.
    """
    if len(data) >= _UDP4_PAYLOAD:
        words = _UNPACK_UDP4(data, 12)
        (ethertype, version_tos, total_length, _, _, ttl_proto, _,
         src, dst, src_port, dst_port, udp_length) = words
        if (
            ethertype == _ETHERTYPE_IPV4
            and version_tos >> 8 == 0x45
            and ttl_proto & 0xFF == _PROTO_UDP
            and total_length >= 28
            and udp_length >= 8
            # One's-complement sum of the header is all-ones: a u32 is
            # congruent to the sum of its halves modulo 0xFFFF.
            and sum(words[1:9]) % 0xFFFF == 0
        ):
            return ParsedPacket(
                timestamp,
                data,
                data[_UDP4_PAYLOAD : min(14 + total_length, 34 + udp_length)],
                src,
                dst,
                src_port,
                dst_port,
                _PROTO_UDP,
            )
    return _parse_layered(data, timestamp)


def _parse_layered(data: bytes, timestamp: float) -> ParsedPacket:
    """:func:`parse_frame` layer by layer through the header classes.

    The reference every shape can take.  Unknown or malformed upper layers
    degrade gracefully: the frame is still returned with the layers that did
    decode and the remaining bytes exposed as ``payload``.
    """
    ethernet, ipv4, ipv6, udp, tcp, payload = _decode_layers(data)
    ip = ipv4 or ipv6
    if ip is None:
        return ParsedPacket(
            timestamp, data, payload, _headers=(ethernet, None, None, None, None)
        )
    transport = udp or tcp
    if transport is None:
        src_port = dst_port = None
        proto = ipv4.protocol if ipv4 is not None else ipv6.next_header
    else:
        src_port, dst_port = transport.src_port, transport.dst_port
        proto = int(IPProtocol.UDP if udp is not None else IPProtocol.TCP)
    return ParsedPacket(
        timestamp,
        data,
        payload,
        addr_from_packed(ip.src),
        addr_from_packed(ip.dst),
        src_port,
        dst_port,
        proto,
        (ethernet, ipv4, ipv6, udp, tcp),
    )


def _decode_layers(data: bytes) -> tuple:
    """``(ethernet, ipv4, ipv6, udp, tcp, payload)`` of one frame."""
    ipv4 = None
    ipv6 = None
    udp = None
    tcp = None
    try:
        ethernet, offset = EthernetHeader.parse(data)
    except ValueError:
        return None, None, None, None, None, b""

    remaining = data[offset:]
    payload = remaining
    try:
        if ethernet.ethertype == EtherType.IPV4:
            ipv4, ip_len = IPv4Header.parse(remaining)
            # Trust the IP total length over the frame length (Ethernet pads
            # short frames to 60 bytes).
            body = remaining[ip_len : ipv4.total_length]
            udp, tcp, payload = _parse_transport(ipv4.protocol, body)
        elif ethernet.ethertype == EtherType.IPV6:
            ipv6, ip_len = IPv6Header.parse(remaining)
            body = remaining[ip_len : ip_len + ipv6.payload_length]
            udp, tcp, payload = _parse_transport(ipv6.next_header, body)
    except ValueError:
        # Leave whatever decoded so far; expose the rest as opaque payload.
        pass
    return ethernet, ipv4, ipv6, udp, tcp, payload


def _parse_transport(
    protocol: int, body: bytes
) -> tuple[UDPHeader | None, TCPHeader | None, bytes]:
    """Decode the transport layer of an IP payload."""
    if protocol == IPProtocol.UDP:
        udp, off = UDPHeader.parse(body)
        return udp, None, body[off : udp.length]
    if protocol == IPProtocol.TCP:
        tcp, off = TCPHeader.parse(body)
        return None, tcp, body[off:]
    return None, None, body


def build_udp_frame(
    src_ip: str,
    src_port: int,
    dst_ip: str,
    dst_port: int,
    payload: bytes,
    *,
    src_mac: bytes = b"\x02\x00\x00\x00\x00\x01",
    dst_mac: bytes = b"\x02\x00\x00\x00\x00\x02",
    ttl: int = 64,
    identification: int = 0,
    dscp: int = 0,
) -> bytes:
    """Build a complete Ethernet/IPv4/UDP frame around ``payload``.

    The UDP checksum is computed over the IPv4 pseudo-header so the frame
    survives strict re-parsing.
    """
    from repro.net.ip import ip_from_str

    src = ip_from_str(src_ip)
    dst = ip_from_str(dst_ip)
    udp_len = UDPHeader.HEADER_LEN + len(payload)
    udp = UDPHeader(src_port, dst_port, udp_len)
    udp_bytes = udp.serialize_with_checksum(payload, src, dst)
    ip = IPv4Header(
        src=src,
        dst=dst,
        protocol=IPProtocol.UDP,
        total_length=IPv4Header.HEADER_LEN + udp_len,
        ttl=ttl,
        identification=identification,
        dscp=dscp,
    )
    ether = EthernetHeader(dst=dst_mac, src=src_mac, ethertype=EtherType.IPV4)
    return ether.serialize() + ip.serialize() + udp_bytes + payload


def build_tcp_frame(
    src_ip: str,
    src_port: int,
    dst_ip: str,
    dst_port: int,
    *,
    seq: int,
    ack: int = 0,
    flags: int = 0x10,
    payload: bytes = b"",
    window: int = 65535,
    src_mac: bytes = b"\x02\x00\x00\x00\x00\x01",
    dst_mac: bytes = b"\x02\x00\x00\x00\x00\x02",
    ttl: int = 64,
    identification: int = 0,
) -> bytes:
    """Build a complete Ethernet/IPv4/TCP frame."""
    from repro.net.checksum import internet_checksum, pseudo_header_v4
    from repro.net.ip import ip_from_str

    src = ip_from_str(src_ip)
    dst = ip_from_str(dst_ip)
    tcp = TCPHeader(src_port, dst_port, seq=seq, ack=ack, flags=flags, window=window)
    tcp_bytes = tcp.serialize()
    seg_len = len(tcp_bytes) + len(payload)
    pseudo = pseudo_header_v4(src, dst, IPProtocol.TCP, seg_len)
    checksum = internet_checksum(pseudo + tcp_bytes + payload)
    tcp_bytes = tcp_bytes[:16] + checksum.to_bytes(2, "big") + tcp_bytes[18:]
    ip = IPv4Header(
        src=src,
        dst=dst,
        protocol=IPProtocol.TCP,
        total_length=IPv4Header.HEADER_LEN + seg_len,
        ttl=ttl,
        identification=identification,
    )
    ether = EthernetHeader(dst=dst_mac, src=src_mac, ethertype=EtherType.IPV4)
    return ether.serialize() + ip.serialize() + tcp_bytes + payload
