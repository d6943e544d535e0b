"""RTCP sender reports, receiver reports, and SDES (RFC 3550 §6).

The paper observes that Zoom emits one RTCP sender report (SR) per media
stream per second, sometimes followed by an *empty* SDES chunk, and never
emits receiver reports on the wire (§4.2.1, §4.2.3).  The emulator uses
:class:`RTCPSenderReport` to reproduce that behaviour and the analyzer parses
compound packets back with :func:`parse_rtcp_compound`.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Iterator

from repro.rtp.rtp import RTP_VERSION

NTP_EPOCH_OFFSET = 2208988800
"""Seconds between the NTP epoch (1900) and the Unix epoch (1970)."""


class RTCPPacketType(enum.IntEnum):
    """RTCP packet types relevant to Zoom traffic."""

    SENDER_REPORT = 200
    RECEIVER_REPORT = 201
    SDES = 202
    BYE = 203
    APP = 204


def ntp_from_unix(unix_time: float) -> tuple[int, int]:
    """Convert a Unix timestamp to (NTP seconds, NTP fraction)."""
    seconds = int(unix_time) + NTP_EPOCH_OFFSET
    fraction = int((unix_time - int(unix_time)) * (1 << 32)) & 0xFFFFFFFF
    return seconds & 0xFFFFFFFF, fraction


def unix_from_ntp(ntp_seconds: int, ntp_fraction: int) -> float:
    """Convert (NTP seconds, NTP fraction) back to a Unix timestamp."""
    return ntp_seconds - NTP_EPOCH_OFFSET + ntp_fraction / (1 << 32)


@dataclass(frozen=True, slots=True)
class ReportBlock:
    """A reception report block (RFC 3550 §6.4.1)."""

    ssrc: int
    fraction_lost: int = 0
    cumulative_lost: int = 0
    highest_sequence: int = 0
    jitter: int = 0
    last_sr: int = 0
    delay_since_last_sr: int = 0

    BLOCK_LEN = 24

    def serialize(self) -> bytes:
        lost = self.cumulative_lost & 0xFFFFFF
        return struct.pack(
            "!IIIIII",
            self.ssrc,
            (self.fraction_lost << 24) | lost,
            self.highest_sequence,
            self.jitter,
            self.last_sr,
            self.delay_since_last_sr,
        )

    @classmethod
    def parse(cls, data: bytes) -> "ReportBlock":
        if len(data) < cls.BLOCK_LEN:
            raise ValueError("buffer too short for RTCP report block")
        ssrc, loss_word, highest, jitter, last_sr, dlsr = struct.unpack_from(
            "!IIIIII", data, 0
        )
        return cls(
            ssrc=ssrc,
            fraction_lost=loss_word >> 24,
            cumulative_lost=loss_word & 0xFFFFFF,
            highest_sequence=highest,
            jitter=jitter,
            last_sr=last_sr,
            delay_since_last_sr=dlsr,
        )


@dataclass(frozen=True, slots=True)
class RTCPSenderReport:
    """An RTCP sender report (SR).

    Attributes:
        ssrc: Sender's SSRC — the same value used on the RTP stream, which is
            the key the paper exploits to find RTCP inside Zoom payloads.
        ntp_seconds / ntp_fraction: Wall-clock sampling instant in NTP format.
        rtp_timestamp: RTP timestamp corresponding to the NTP instant.
        packet_count / octet_count: Cumulative sender statistics.
        report_blocks: Reception reports (empty for Zoom senders).
    """

    ssrc: int
    ntp_seconds: int
    ntp_fraction: int
    rtp_timestamp: int
    packet_count: int
    octet_count: int
    report_blocks: tuple[ReportBlock, ...] = field(default=())

    packet_type = RTCPPacketType.SENDER_REPORT

    @property
    def ntp_unix_time(self) -> float:
        """The wall-clock time of this report as a Unix timestamp."""
        return unix_from_ntp(self.ntp_seconds, self.ntp_fraction)

    def serialize(self) -> bytes:
        body = struct.pack(
            "!IIIIII",
            self.ssrc,
            self.ntp_seconds,
            self.ntp_fraction,
            self.rtp_timestamp,
            self.packet_count,
            self.octet_count,
        ) + b"".join(block.serialize() for block in self.report_blocks)
        length_words = len(body) // 4  # header word not counted
        first = (RTP_VERSION << 6) | len(self.report_blocks)
        return struct.pack("!BBH", first, self.packet_type, length_words) + body

    @classmethod
    def parse(cls, data: bytes) -> tuple["RTCPSenderReport", int]:
        header, count, total_len = _parse_common_header(
            data, RTCPPacketType.SENDER_REPORT
        )
        if len(data) < 28 + count * ReportBlock.BLOCK_LEN:
            raise ValueError("buffer too short for RTCP SR body")
        ssrc, ntp_s, ntp_f, rtp_ts, pkts, octets = struct.unpack_from("!IIIIII", data, 4)
        blocks = tuple(
            ReportBlock.parse(data[28 + i * ReportBlock.BLOCK_LEN :])
            for i in range(count)
        )
        return (
            cls(
                ssrc=ssrc,
                ntp_seconds=ntp_s,
                ntp_fraction=ntp_f,
                rtp_timestamp=rtp_ts,
                packet_count=pkts,
                octet_count=octets,
                report_blocks=blocks,
            ),
            total_len,
        )


@dataclass(frozen=True, slots=True)
class RTCPReceiverReport:
    """An RTCP receiver report (RR).

    Zoom never emits these on the wire (the paper searched and found none);
    the implementation exists so the analyzer can prove their absence and so
    the test suite can exercise the negative path.
    """

    ssrc: int
    report_blocks: tuple[ReportBlock, ...] = field(default=())

    packet_type = RTCPPacketType.RECEIVER_REPORT

    def serialize(self) -> bytes:
        body = struct.pack("!I", self.ssrc) + b"".join(
            block.serialize() for block in self.report_blocks
        )
        first = (RTP_VERSION << 6) | len(self.report_blocks)
        return struct.pack("!BBH", first, self.packet_type, len(body) // 4) + body

    @classmethod
    def parse(cls, data: bytes) -> tuple["RTCPReceiverReport", int]:
        _header, count, total_len = _parse_common_header(
            data, RTCPPacketType.RECEIVER_REPORT
        )
        if len(data) < 8 + count * ReportBlock.BLOCK_LEN:
            raise ValueError("buffer too short for RTCP RR body")
        (ssrc,) = struct.unpack_from("!I", data, 4)
        blocks = tuple(
            ReportBlock.parse(data[8 + i * ReportBlock.BLOCK_LEN :]) for i in range(count)
        )
        return cls(ssrc=ssrc, report_blocks=blocks), total_len


@dataclass(frozen=True, slots=True)
class RTCPSdes:
    """An RTCP source-description packet.

    Zoom's SDES chunks are always empty (§4.2.3): one chunk carrying the SSRC
    and a terminating zero item, nothing else.  ``items`` maps SDES item type
    to value for the single chunk.
    """

    ssrc: int
    items: tuple[tuple[int, bytes], ...] = field(default=())

    packet_type = RTCPPacketType.SDES

    def serialize(self) -> bytes:
        chunk = struct.pack("!I", self.ssrc)
        for item_type, value in self.items:
            chunk += bytes([item_type, len(value)]) + value
        chunk += b"\x00"  # end of items
        chunk += b"\x00" * ((-len(chunk)) % 4)  # pad chunk to 32-bit boundary
        first = (RTP_VERSION << 6) | 1  # one chunk
        return struct.pack("!BBH", first, self.packet_type, len(chunk) // 4) + chunk

    @classmethod
    def parse(cls, data: bytes) -> tuple["RTCPSdes", int]:
        _header, chunk_count, total_len = _parse_common_header(data, RTCPPacketType.SDES)
        if chunk_count != 1:
            raise ValueError(f"only single-chunk SDES supported, got {chunk_count}")
        if len(data) < 8:
            raise ValueError("buffer too short for SDES chunk")
        (ssrc,) = struct.unpack_from("!I", data, 4)
        items: list[tuple[int, bytes]] = []
        pos = 8
        while pos < total_len:
            item_type = data[pos]
            if item_type == 0:
                break
            length = data[pos + 1]
            items.append((item_type, bytes(data[pos + 2 : pos + 2 + length])))
            pos += 2 + length
        return cls(ssrc=ssrc, items=tuple(items)), total_len

    @property
    def is_empty(self) -> bool:
        """True when the SDES carries no items — the only kind Zoom sends."""
        return not self.items


def _parse_common_header(data: bytes, expected_type: int) -> tuple[int, int, int]:
    """Validate the 4-byte RTCP common header.

    Returns (first byte, count field, total packet length in bytes).
    """
    if len(data) < 4:
        raise ValueError("buffer too short for RTCP header")
    first, packet_type, length_words = struct.unpack_from("!BBH", data, 0)
    if first >> 6 != RTP_VERSION:
        raise ValueError(f"not RTCP (version={first >> 6})")
    if packet_type != expected_type:
        raise ValueError(f"expected RTCP type {expected_type}, got {packet_type}")
    total_len = 4 * (length_words + 1)
    if len(data) < total_len:
        raise ValueError("buffer too short for stated RTCP length")
    return first, first & 0x1F, total_len


RTCPPacket = RTCPSenderReport | RTCPReceiverReport | RTCPSdes


_PARSERS = {
    RTCPPacketType.SENDER_REPORT: RTCPSenderReport.parse,
    RTCPPacketType.RECEIVER_REPORT: RTCPReceiverReport.parse,
    RTCPPacketType.SDES: RTCPSdes.parse,
}


def walk_rtcp_compound(data: bytes) -> Iterator[tuple[int, int, RTCPPacket]]:
    """Walk a compound RTCP packet by its own length words.

    Yields ``(offset, length, report)`` for each SR, RR and SDES, with the
    byte range each packet's header states.  Other RTCP types (BYE, APP)
    are stepped over by their stated length; the walk stops at the first
    non-version-2 header, truncated packet or malformed report.
    """
    pos = 0
    while pos + 4 <= len(data):
        first, packet_type, length_words = struct.unpack_from("!BBH", data, pos)
        if first >> 6 != RTP_VERSION:
            return
        total_len = 4 * (length_words + 1)
        if pos + total_len > len(data):
            return
        parse = _PARSERS.get(packet_type)
        if parse is not None:
            try:
                report, _ = parse(data[pos : pos + total_len])
            except ValueError:
                return
            yield pos, total_len, report
        pos += total_len


def parse_rtcp_compound(data: bytes) -> list[RTCPPacket]:
    """Parse a compound RTCP packet into its constituent reports.

    Zoom sends either a lone SR or an SR immediately followed by an (empty)
    SDES (media-encapsulation types 33 and 34 respectively, Table 2).
    Unknown RTCP packet types are skipped using their stated length.
    """
    return [report for _, _, report in walk_rtcp_compound(data)]
