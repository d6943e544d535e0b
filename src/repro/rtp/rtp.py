"""RTP fixed header (RFC 3550 §5.1) with header-extension support.

The paper's analyzer locates RTP headers inside Zoom packets and then uses
the sequence number, timestamp, SSRC, payload type, and marker bit for every
downstream metric, so a faithful, round-trippable implementation matters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

RTP_VERSION = 2

_UNPACK_FIXED = struct.Struct("!BBHII").unpack_from


def walk_rtp_header(data: bytes, offset: int = 0) -> tuple | None:
    """The one RTP fixed-header walk, over ``data[offset:]``.

    Checks the version bits and that the CSRC list and any header extension
    fit in the buffer.  Returns ``(payload_type, marker, sequence,
    timestamp, ssrc, end)`` — ``end`` is where the RTP payload starts — or
    ``None`` when the bytes are not an RTP header.  Payload types 72-76
    collide with RTCP packet types 200-204 once the marker bit is masked
    off; whether to accept them is the caller's rule.
    """
    size = len(data)
    end = offset + 12
    if size < end:
        return None
    first, second, sequence, timestamp, ssrc = _UNPACK_FIXED(data, offset)
    if first >> 6 != RTP_VERSION:
        return None
    end += 4 * (first & 0x0F)
    if first & 0x10:
        if size < end + 4:
            return None
        end += 4 + 4 * ((data[end + 2] << 8) | data[end + 3])
    if size < end:
        return None
    return second & 0x7F, second >= 0x80, sequence, timestamp, ssrc, end


@dataclass(frozen=True, slots=True)
class RTPHeader:
    """An RTP fixed header plus optional extension (profile 0xBEDE etc.).

    Attributes:
        payload_type: 7-bit RTP payload type (Zoom: 98/99/110/112/113).
        sequence: 16-bit packet sequence number, per sub-stream.
        timestamp: 32-bit media timestamp in sampling-rate units.
        ssrc: 32-bit synchronization source identifier.
        marker: Marker bit; Zoom sets it on the last packet of a frame.
        padding: RTP padding bit.
        csrcs: Contributing sources; always empty in Zoom traffic (§4.2.3).
        extension_profile: 16-bit profile of the header extension, or ``None``
            when the extension bit is clear.
        extension_data: Extension body, length a multiple of 4.
    """

    payload_type: int
    sequence: int
    timestamp: int
    ssrc: int
    marker: bool = False
    padding: bool = False
    csrcs: tuple[int, ...] = field(default=())
    extension_profile: int | None = None
    extension_data: bytes = b""

    FIXED_LEN = 12

    def __post_init__(self) -> None:
        if not 0 <= self.payload_type <= 127:
            raise ValueError(f"payload type out of range: {self.payload_type}")
        if not 0 <= self.sequence <= 0xFFFF:
            raise ValueError(f"sequence out of range: {self.sequence}")
        if not 0 <= self.timestamp <= 0xFFFFFFFF:
            raise ValueError(f"timestamp out of range: {self.timestamp}")
        if not 0 <= self.ssrc <= 0xFFFFFFFF:
            raise ValueError(f"SSRC out of range: {self.ssrc}")
        if len(self.csrcs) > 15:
            raise ValueError("at most 15 CSRCs allowed")
        if self.extension_profile is not None and len(self.extension_data) % 4:
            raise ValueError("extension data length must be a multiple of 4")

    @property
    def header_len(self) -> int:
        """On-wire length of the header including CSRCs and extension."""
        length = self.FIXED_LEN + 4 * len(self.csrcs)
        if self.extension_profile is not None:
            length += 4 + len(self.extension_data)
        return length

    def serialize(self) -> bytes:
        """Encode to wire format."""
        first = (
            (RTP_VERSION << 6)
            | (int(self.padding) << 5)
            | (int(self.extension_profile is not None) << 4)
            | len(self.csrcs)
        )
        second = (int(self.marker) << 7) | self.payload_type
        out = struct.pack(
            "!BBHII", first, second, self.sequence, self.timestamp, self.ssrc
        )
        for csrc in self.csrcs:
            out += struct.pack("!I", csrc)
        if self.extension_profile is not None:
            out += struct.pack(
                "!HH", self.extension_profile, len(self.extension_data) // 4
            )
            out += self.extension_data
        return out

    @classmethod
    def parse(cls, data: bytes) -> tuple["RTPHeader", int]:
        """Decode from wire format; returns the header and payload offset."""
        walked = walk_rtp_header(data)
        if walked is None:
            raise ValueError(f"not an RTP header ({len(data)} bytes)")
        payload_type, marker, sequence, timestamp, ssrc, end = walked
        first = data[0]
        csrc_end = cls.FIXED_LEN + 4 * (first & 0x0F)
        csrcs = struct.unpack_from(f"!{first & 0x0F}I", data, cls.FIXED_LEN)
        extension_profile: int | None = None
        extension_data = b""
        if first & 0x10:
            (extension_profile,) = struct.unpack_from("!H", data, csrc_end)
            extension_data = bytes(data[csrc_end + 4 : end])
        header = cls(
            payload_type=payload_type,
            sequence=sequence,
            timestamp=timestamp,
            ssrc=ssrc,
            marker=marker,
            padding=bool(first & 0x20),
            csrcs=csrcs,
            extension_profile=extension_profile,
            extension_data=extension_data,
        )
        return header, end


def looks_like_rtp(data: bytes) -> bool:
    """Cheap plausibility check used when scanning for RTP at unknown offsets.

    :func:`walk_rtp_header` succeeds and the payload type is not in the
    RTCP packet-type range (72-76 map to RTCP types 200-204 when the marker
    bit is set).
    """
    walked = walk_rtp_header(data)
    return walked is not None and not 72 <= walked[0] <= 76
