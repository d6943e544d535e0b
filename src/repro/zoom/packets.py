"""Composition and parsing of complete Zoom UDP payloads.

A Zoom UDP payload is, outermost first (Figure 7):

* server-based traffic: ``SfuEncap (8 B) | MediaEncap | RTP-or-RTCP | media``
* P2P traffic:          ``MediaEncap | RTP-or-RTCP | media``

plus an undecoded minority of control packets (media-encapsulation types
outside Table 2's five values).  :func:`parse_zoom_payload` decodes any of
these shapes, auto-detecting whether the SFU layer is present when the caller
does not know.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.rtp.rtcp import RTCPPacket, parse_rtcp_compound
from repro.rtp.rtp import RTPHeader, looks_like_rtp, walk_rtp_header
from repro.zoom.constants import MEDIA_ENCAP_LEN, SFU_ENCAP_LEN, ZoomMediaType
from repro.zoom.media_encap import MediaEncap
from repro.zoom.sfu_encap import SfuEncap


@dataclass(frozen=True, slots=True)
class ZoomPacket:
    """A fully decoded Zoom UDP payload.

    Attributes:
        sfu: SFU encapsulation header; ``None`` for P2P packets.
        media: Media encapsulation header; ``None`` only when the SFU type
            byte says no media layer follows.
        rtp: Inner RTP header for media packets (types 13/15/16).
        rtcp: Parsed RTCP reports for RTCP packets (types 33/34).
        rtp_payload: Bytes following the RTP header (the encrypted media).
        raw: The complete original UDP payload.
    """

    sfu: Optional[SfuEncap]
    media: Optional[MediaEncap]
    rtp: Optional[RTPHeader]
    rtcp: tuple[RTCPPacket, ...]
    rtp_payload: bytes
    raw: bytes

    @property
    def is_p2p(self) -> bool:
        """True when the packet carries no SFU encapsulation layer."""
        return self.sfu is None

    @property
    def is_media(self) -> bool:
        """True for decodable RTP media packets (video/audio/screen share)."""
        return self.rtp is not None and self.media is not None and self.media.is_rtp

    @property
    def is_rtcp(self) -> bool:
        return bool(self.rtcp)

    @property
    def media_type(self) -> int | None:
        return self.media.media_type if self.media is not None else None

    def describe(self) -> str:
        """One-line human-readable summary (used by examples and the CLI)."""
        mode = "P2P" if self.is_p2p else "SFU"
        if self.is_media:
            assert self.rtp is not None and self.media is not None
            name = ZoomMediaType(self.media.media_type).name
            return (
                f"[{mode}] {name} pt={self.rtp.payload_type} "
                f"ssrc={self.rtp.ssrc:#010x} seq={self.rtp.sequence} "
                f"ts={self.rtp.timestamp} payload={len(self.rtp_payload)}B"
            )
        if self.is_rtcp:
            kinds = "+".join(type(r).__name__.removeprefix("RTCP") for r in self.rtcp)
            return f"[{mode}] RTCP {kinds}"
        media_type = self.media_type
        return f"[{mode}] control type={media_type} len={len(self.raw)}B"


def build_media_payload(
    *,
    media: MediaEncap,
    rtp: RTPHeader,
    rtp_payload: bytes,
    sfu: SfuEncap | None = None,
) -> bytes:
    """Assemble a complete Zoom UDP payload for an RTP media packet."""
    body = media.serialize() + rtp.serialize() + rtp_payload
    if sfu is not None:
        body = sfu.serialize() + body
    return body


def build_rtcp_payload(
    *,
    media: MediaEncap,
    reports: Sequence[RTCPPacket],
    sfu: SfuEncap | None = None,
) -> bytes:
    """Assemble a complete Zoom UDP payload for an RTCP packet."""
    if not media.is_rtcp:
        raise ValueError(f"media type {media.media_type} is not an RTCP type")
    body = media.serialize() + b"".join(report.serialize() for report in reports)
    if sfu is not None:
        body = sfu.serialize() + body
    return body


def build_control_payload(
    *,
    control_type: int,
    sequence: int = 0,
    body: bytes = b"",
    sfu: SfuEncap | None = None,
) -> bytes:
    """Assemble one of the ~10% undecoded control packets.

    These start with a media-encapsulation type byte outside Table 2's set,
    followed by a sequence number and opaque payload — matching the paper's
    observation that "we did see some sequence numbers in such packets".
    """
    if control_type in tuple(ZoomMediaType):
        raise ValueError(f"{control_type} is a decodable media type, not control")
    payload = bytes([control_type]) + sequence.to_bytes(2, "big") + body
    if sfu is not None:
        payload = sfu.serialize() + payload
    return payload


#: ``(encapsulation length, carries frame fields)`` of the RTP-carrying types.
_RTP_ENCAP = {
    int(media_type): (
        MEDIA_ENCAP_LEN[media_type],
        MediaEncap(int(media_type)).has_frame_fields,
    )
    for media_type in ZoomMediaType
    if media_type.is_rtp
}


def decode_media(payload: bytes, from_server: bool) -> tuple | None:
    """One pass over an RTP media payload — the packet path's decoder.

    Returns ``(media_type, direction, frame_sequence, packets_in_frame,
    payload_type, marker, sequence, rtp_timestamp, ssrc, rtp_payload_len)``
    — ``direction`` is the SFU direction byte, ``None`` on a P2P flow — read
    straight off Figure 7's offsets with no intermediate objects, or ``None``
    for everything :attr:`ZoomPacket.is_media` is false for (RTCP, control,
    truncated or malformed packets), which :func:`parse_zoom_payload`
    decodes.  The two are pinned equal by a property test.
    """
    size = len(payload)
    if from_server:
        if size <= SFU_ENCAP_LEN or payload[0] != SfuEncap.TYPE_MEDIA:
            return None
        offset = SFU_ENCAP_LEN
        direction = payload[7]
    else:
        if not size:
            return None
        offset = 0
        direction = None
    media_type = payload[offset]
    encap = _RTP_ENCAP.get(media_type)
    if encap is None or size < offset + encap[0]:
        return None
    walked = walk_rtp_header(payload, offset + encap[0])
    if walked is None or 72 <= walked[0] <= 76:
        return None
    payload_type, marker, sequence, rtp_timestamp, ssrc, end = walked
    if encap[1]:
        frame_sequence = (payload[offset + 21] << 8) | payload[offset + 22]
        packets_in_frame = payload[offset + 23]
    else:
        frame_sequence = packets_in_frame = 0
    return (
        media_type,
        direction,
        frame_sequence,
        packets_in_frame,
        payload_type,
        marker,
        sequence,
        rtp_timestamp,
        ssrc,
        size - end,
    )


def parse_zoom_payload(
    payload: bytes, *, from_server: bool | None = None
) -> ZoomPacket:
    """Decode a Zoom UDP payload.

    Args:
        payload: The raw UDP payload bytes.
        from_server: ``True`` when the flow is known to be server-based
            (port 8801), ``False`` when known P2P, ``None`` to auto-detect.
            Auto-detection tries the SFU layout first (type byte 5 plus a
            valid media layer underneath) and falls back to P2P.

    Returns:
        A :class:`ZoomPacket`.  Undecodable packets come back with only the
        layers that did parse; this mirrors the paper, which leaves ~10% of
        packets as opaque control traffic.
    """
    if from_server is None:
        if len(payload) >= SfuEncap.HEADER_LEN and payload[0] == SfuEncap.TYPE_MEDIA:
            packet = _parse_with_sfu(payload)
            if packet.media is not None:
                return packet
        return _parse_media_layers(payload, sfu=None)
    if from_server:
        return _parse_with_sfu(payload)
    return _parse_media_layers(payload, sfu=None)


def _parse_with_sfu(payload: bytes) -> ZoomPacket:
    try:
        sfu, offset = SfuEncap.parse(payload)
    except ValueError:
        return ZoomPacket(None, None, None, (), b"", payload)
    if not sfu.carries_media:
        return ZoomPacket(sfu, None, None, (), b"", payload)
    return _parse_media_layers(payload, sfu=sfu, offset=offset)


def _parse_media_layers(
    payload: bytes, *, sfu: SfuEncap | None, offset: int = 0
) -> ZoomPacket:
    try:
        media, media_len = MediaEncap.parse(payload[offset:])
    except ValueError:
        return ZoomPacket(sfu, None, None, (), b"", payload)
    inner = payload[offset + media_len :]
    if media.is_rtp and looks_like_rtp(inner):
        try:
            rtp, rtp_len = RTPHeader.parse(inner)
        except ValueError:
            return ZoomPacket(sfu, media, None, (), b"", payload)
        return ZoomPacket(sfu, media, rtp, (), inner[rtp_len:], payload)
    if media.is_rtcp:
        reports = tuple(parse_rtcp_compound(inner))
        return ZoomPacket(sfu, media, None, reports, b"", payload)
    # Control packet, unrecognized type, or an RTP type without RTP inside.
    return ZoomPacket(sfu, media, None, (), b"", payload)
