"""IPv4 and IPv6 header parsing and serialization."""

from __future__ import annotations

import enum
import ipaddress
import struct
from dataclasses import dataclass
from typing import Iterable

from repro.net.checksum import internet_checksum


class IPProtocol(enum.IntEnum):
    """IP protocol numbers this library understands."""

    ICMP = 1
    TCP = 6
    UDP = 17
    ICMPV6 = 58


#: Wire-form addresses (what crosses the packet path): an IPv4 address is
#: its host-order u32 — the value ``HeaderColumns.src``/``dst`` and the
#: prefilter's ``(addr << 16) | port`` endpoint keys already hold — and an
#: IPv6 address is its 128-bit value with this bit set on top, so a v4
#: address and its ``::a.b.c.d`` twin never compare equal.
IPV6_FLAG = 1 << 128


def addr_from_packed(packed: bytes) -> int:
    """A packed 4- or 16-byte address in wire form."""
    value = int.from_bytes(packed, "big")
    return value if len(packed) == 4 else value | IPV6_FLAG


def addr_from_str(text: str) -> int:
    """A dotted-quad or IPv6 string in wire form (configuration, tests)."""
    return addr_from_packed(ip_from_str(text))


def ip_to_str(addr: int | str) -> str:
    """Render a wire-form address — called only where text leaves the system.

    An already rendered string passes through: flow keys are opaque to the
    analyzer, so a hand-built record may carry text.
    """
    if isinstance(addr, str):
        return addr
    if addr < IPV6_FLAG:
        return f"{addr >> 24}.{addr >> 16 & 255}.{addr >> 8 & 255}.{addr & 255}"
    return str(ipaddress.IPv6Address(addr ^ IPV6_FLAG))


def ip_from_str(text: str) -> bytes:
    """Parse a dotted-quad or IPv6 string into packed bytes."""
    return ipaddress.ip_address(text).packed


def ipv4_str_to_u32(ip: str) -> int | None:
    """A dotted quad as a host-order u32; ``None`` for anything else.

    Behind the configuration-time string entry points only
    (``CaptureRules.from_networks``/``from_model``)."""
    parts = ip.split(".")
    if len(parts) != 4:
        return None
    try:
        a, b, c, d = (int(part) for part in parts)
    except ValueError:
        return None
    return (a << 24) | (b << 16) | (c << 8) | d


class PrefixTable:
    """A CIDR list compiled once into ``(network, netmask)`` integer pairs.

    The one prefix-membership implementation: the detector, the campus
    gate, the P4 capture model, the batch prefilter and the cBPF compiler
    all read :attr:`v4` (host-order u32 pairs) / :attr:`v6` (wire-form
    pairs, :data:`IPV6_FLAG` set in both halves) of the same table.
    Per-packet callers ask :meth:`contains` with the wire-form address the
    packet already carries; the string forms exist for configuration-time
    and interactive use.
    """

    __slots__ = ("v4", "v6")

    def __init__(self, cidrs: Iterable[str] = ()) -> None:
        v4: list[tuple[int, int]] = []
        v6: list[tuple[int, int]] = []
        for cidr in cidrs:
            net = ipaddress.ip_network(cidr)
            network, netmask = int(net.network_address), int(net.netmask)
            if net.version == 4:
                v4.append((network, netmask))
            else:
                v6.append((network | IPV6_FLAG, netmask | IPV6_FLAG))
        self.v4 = tuple(v4)
        self.v6 = tuple(v6)

    def contains(self, addr: int) -> bool:
        """Whether a wire-form address falls in any prefix."""
        for net, mask in self.v4 if addr < IPV6_FLAG else self.v6:
            if addr & mask == net:
                return True
        return False

    def __contains__(self, ip: str) -> bool:
        try:
            return self.contains(addr_from_str(ip))
        except ValueError:
            return False


@dataclass(frozen=True, slots=True)
class IPv4Header:
    """An IPv4 header without options (IHL is always 5).

    Attributes:
        src: Packed 4-byte source address.
        dst: Packed 4-byte destination address.
        protocol: Payload protocol number (e.g. ``IPProtocol.UDP``).
        total_length: Total datagram length including this header.
        ttl: Time to live.
        identification: IP ID field.
        dscp: Differentiated services code point (6 bits).
        ecn: Explicit congestion notification (2 bits).
        flags: The 3-bit flags field (bit 1 = don't fragment).
        fragment_offset: Fragment offset in 8-byte units.
    """

    src: bytes
    dst: bytes
    protocol: int
    total_length: int
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    ecn: int = 0
    flags: int = 0b010  # don't fragment
    fragment_offset: int = 0

    HEADER_LEN = 20
    VERSION = 4

    def __post_init__(self) -> None:
        if len(self.src) != 4 or len(self.dst) != 4:
            raise ValueError("IPv4 addresses must be 4 packed bytes")
        if not self.HEADER_LEN <= self.total_length <= 0xFFFF:
            raise ValueError(f"total_length out of range: {self.total_length}")
        if not 0 <= self.dscp <= 0x3F or not 0 <= self.ecn <= 3:
            raise ValueError("DSCP/ECN out of range")

    @property
    def src_str(self) -> str:
        return ip_to_str(addr_from_packed(self.src))

    @property
    def dst_str(self) -> str:
        return ip_to_str(addr_from_packed(self.dst))

    @property
    def payload_length(self) -> int:
        """Length of the payload following this header."""
        return self.total_length - self.HEADER_LEN

    def serialize(self) -> bytes:
        """Encode to wire format with a correct header checksum."""
        ver_ihl = (self.VERSION << 4) | 5
        tos = (self.dscp << 2) | self.ecn
        flags_frag = (self.flags << 13) | self.fragment_offset
        header = struct.pack(
            "!BBHHHBBH4s4s",
            ver_ihl,
            tos,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0,
            self.src,
            self.dst,
        )
        checksum = internet_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def parse(cls, data: bytes) -> tuple["IPv4Header", int]:
        """Decode from wire format; returns the header and payload offset.

        Options, if present, are skipped; the reported payload offset accounts
        for them.  The header checksum is verified and a ``ValueError`` is
        raised on mismatch.
        """
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"datagram too short for IPv4: {len(data)} bytes")
        ver_ihl = data[0]
        version, ihl = ver_ihl >> 4, ver_ihl & 0xF
        if version != cls.VERSION:
            raise ValueError(f"not an IPv4 header (version={version})")
        if ihl < 5:
            raise ValueError(f"invalid IHL {ihl}")
        header_len = ihl * 4
        if len(data) < header_len:
            raise ValueError("datagram shorter than stated header length")
        if internet_checksum(data[:header_len]) != 0:
            raise ValueError("IPv4 header checksum mismatch")
        tos = data[1]
        (total_length, identification, flags_frag) = struct.unpack_from("!HHH", data, 2)
        ttl, protocol = data[8], data[9]
        src, dst = data[12:16], data[16:20]
        return (
            cls(
                src=src,
                dst=dst,
                protocol=protocol,
                total_length=total_length,
                ttl=ttl,
                identification=identification,
                dscp=tos >> 2,
                ecn=tos & 3,
                flags=flags_frag >> 13,
                fragment_offset=flags_frag & 0x1FFF,
            ),
            header_len,
        )


@dataclass(frozen=True, slots=True)
class IPv6Header:
    """A fixed IPv6 header (no extension-header chain walking).

    Attributes:
        src: Packed 16-byte source address.
        dst: Packed 16-byte destination address.
        next_header: Payload protocol number.
        payload_length: Length of everything after this 40-byte header.
        hop_limit: Hop limit (TTL analogue).
        traffic_class: 8-bit traffic class.
        flow_label: 20-bit flow label.
    """

    src: bytes
    dst: bytes
    next_header: int
    payload_length: int
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0

    HEADER_LEN = 40
    VERSION = 6

    def __post_init__(self) -> None:
        if len(self.src) != 16 or len(self.dst) != 16:
            raise ValueError("IPv6 addresses must be 16 packed bytes")
        if not 0 <= self.flow_label <= 0xFFFFF:
            raise ValueError(f"flow label out of range: {self.flow_label}")

    def serialize(self) -> bytes:
        """Encode to wire format."""
        first_word = (self.VERSION << 28) | (self.traffic_class << 20) | self.flow_label
        return (
            struct.pack("!IHBB", first_word, self.payload_length, self.next_header, self.hop_limit)
            + self.src
            + self.dst
        )

    @classmethod
    def parse(cls, data: bytes) -> tuple["IPv6Header", int]:
        """Decode from wire format; returns the header and payload offset."""
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"datagram too short for IPv6: {len(data)} bytes")
        (first_word, payload_length, next_header, hop_limit) = struct.unpack_from("!IHBB", data, 0)
        version = first_word >> 28
        if version != cls.VERSION:
            raise ValueError(f"not an IPv6 header (version={version})")
        return (
            cls(
                src=data[8:24],
                dst=data[24:40],
                next_header=next_header,
                payload_length=payload_length,
                hop_limit=hop_limit,
                traffic_class=(first_word >> 20) & 0xFF,
                flow_label=first_word & 0xFFFFF,
            ),
            cls.HEADER_LEN,
        )
