"""Composition and parsing of complete Zoom UDP payloads.

A Zoom UDP payload is, outermost first (Figure 7):

* server-based traffic: ``SfuEncap (8 B) | MediaEncap | RTP-or-RTCP | media``
* P2P traffic:          ``MediaEncap | RTP-or-RTCP | media``

plus an undecoded minority of control packets (media-encapsulation types
outside Table 2's five values).  :class:`ZoomPacket` is the one decoder of
these shapes: a single walk of Figure 7's offsets records where each layer
starts and what the packet path reads, and the header objects are parsed
from the bytes only when asked for.  :func:`parse_zoom_payload` adds
auto-detection of the SFU layer when the caller does not know.
"""

from __future__ import annotations

from typing import Sequence

from repro.rtp.rtcp import RTCPPacket, parse_rtcp_compound
from repro.rtp.rtp import RTPHeader, walk_rtp_header
from repro.zoom.constants import MEDIA_ENCAP_LEN, SFU_ENCAP_LEN, ZoomMediaType
from repro.zoom.media_encap import MediaEncap
from repro.zoom.sfu_encap import SfuEncap

_RTP_TYPES = frozenset(int(t) for t in ZoomMediaType if t.is_rtp)
_RTCP_TYPES = frozenset(int(t) for t in ZoomMediaType if t.is_rtcp)
_FRAME_TYPES = frozenset((int(ZoomMediaType.VIDEO), int(ZoomMediaType.SCREEN_SHARE)))


class ZoomPacket:
    """A Zoom UDP payload, decoded by one walk of Figure 7's offsets.

    ``from_server`` (port 8801) means an SFU layer comes first.  :attr:`sfu`,
    :attr:`media` and :attr:`rtp` are parsed from :attr:`raw` by the header
    classes on each access; the packet path reads only the fields below.

    Attributes:
        raw: The complete original UDP payload.
        has_sfu: An SFU encapsulation header was read.
        media_type: Media-encapsulation type byte; ``None`` when no media
            layer parsed (SFU type not 5, or too short for its type).
        inner: Offset of the RTP/RTCP header; set when ``media_type`` is.
        rtp_walk: :func:`~repro.rtp.rtp.walk_rtp_header`'s ``(payload_type,
            marker, sequence, timestamp, ssrc, end)`` for RTP media (types
            13/15/16; payload types 72-76 are RTCP and refused), else ``None``.
        rtcp: Parsed RTCP reports for RTCP packets (types 33/34).
    """

    __slots__ = ("raw", "has_sfu", "media_type", "inner", "rtp_walk", "rtcp")

    def __init__(self, raw: bytes, from_server: bool) -> None:
        self.raw = raw
        self.media_type = self.rtp_walk = None
        self.rtcp = ()
        size = len(raw)
        self.has_sfu = from_server and size >= SFU_ENCAP_LEN
        offset = SFU_ENCAP_LEN if from_server else 0
        if size <= offset or (from_server and raw[0] != SfuEncap.TYPE_MEDIA):
            return
        media_type = raw[offset]
        self.inner = inner = offset + MEDIA_ENCAP_LEN.get(media_type, 8)
        if size < inner:
            return
        self.media_type = media_type
        if media_type in _RTP_TYPES:
            walked = walk_rtp_header(raw, inner)
            if walked is not None and not 72 <= walked[0] <= 76:
                self.rtp_walk = walked
        elif media_type in _RTCP_TYPES:
            self.rtcp = tuple(parse_rtcp_compound(raw[inner:]))

    @property
    def sfu(self) -> SfuEncap | None:
        """SFU encapsulation header; ``None`` for P2P packets."""
        return SfuEncap.parse(self.raw)[0] if self.has_sfu else None

    @property
    def media(self) -> MediaEncap | None:
        """Media encapsulation header; ``None`` when it did not parse."""
        if self.media_type is None:
            return None
        return MediaEncap.parse(self.raw[SFU_ENCAP_LEN if self.has_sfu else 0 :])[0]

    @property
    def rtp(self) -> RTPHeader | None:
        """Inner RTP header of a media packet (types 13/15/16)."""
        if self.rtp_walk is None:
            return None
        return RTPHeader.parse(self.raw[self.inner :])[0]

    @property
    def rtp_payload(self) -> bytes:
        """Bytes following the RTP header (the encrypted media)."""
        return b"" if self.rtp_walk is None else self.raw[self.rtp_walk[5] :]

    @property
    def direction(self) -> int | None:
        """The SFU direction byte (byte 7); ``None`` without an SFU header."""
        return self.raw[7] if self.has_sfu else None

    @property
    def frame_fields(self) -> tuple[int, int]:
        """``(frame_sequence, packets_in_frame)``: media-encapsulation bytes
        21-23 for video and screen share, ``(0, 0)`` for any other type."""
        if self.media_type not in _FRAME_TYPES:
            return 0, 0
        raw = self.raw
        at = (SFU_ENCAP_LEN if self.has_sfu else 0) + 21
        return (raw[at] << 8) | raw[at + 1], raw[at + 2]

    @property
    def is_p2p(self) -> bool:
        """True when the packet carries no SFU encapsulation layer."""
        return not self.has_sfu

    @property
    def is_media(self) -> bool:
        """True for decodable RTP media packets (video/audio/screen share)."""
        return self.rtp_walk is not None

    @property
    def is_rtcp(self) -> bool:
        return bool(self.rtcp)

    def describe(self) -> str:
        """One-line human-readable summary (used by examples and the CLI)."""
        mode = "P2P" if self.is_p2p else "SFU"
        if self.rtp_walk is not None:
            payload_type, _, sequence, timestamp, ssrc, end = self.rtp_walk
            name = ZoomMediaType(self.media_type).name
            return (
                f"[{mode}] {name} pt={payload_type} ssrc={ssrc:#010x} "
                f"seq={sequence} ts={timestamp} payload={len(self.raw) - end}B"
            )
        if self.is_rtcp:
            kinds = "+".join(type(r).__name__.removeprefix("RTCP") for r in self.rtcp)
            return f"[{mode}] RTCP {kinds}"
        return f"[{mode}] control type={self.media_type} len={len(self.raw)}B"


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
    if from_server is not None:
        return ZoomPacket(payload, from_server)
    packet = ZoomPacket(payload, True)
    return packet if packet.media_type is not None else ZoomPacket(payload, False)
