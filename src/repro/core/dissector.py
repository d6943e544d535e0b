"""A Wireshark-plugin-equivalent dissector for Zoom packets (Appendix C).

Produces the same information as the paper's Wireshark plugin (Figure 18):
a tree of named fields with offsets, raw values, and display strings, for
any Zoom UDP payload — SFU encapsulation, media encapsulation, RTP with
extensions, RTCP compound packets, and the H.264 FU indicator on video.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtp.rtcp import RTCPReceiverReport, RTCPSdes, RTCPSenderReport, walk_rtcp_compound
from repro.zoom.constants import RTPPayloadType, ZoomMediaType
from repro.zoom.packets import ZoomPacket, parse_zoom_payload
from repro.zoom.sfu_encap import Direction, SfuEncap


@dataclass
class DissectedField:
    """One node of the dissection tree.

    Attributes:
        name: Field name, dotted Wireshark style (``zoom.media.type``).
        offset / length: Byte range within the UDP payload.
        value: The decoded Python value.
        display: Human-readable rendering.
        children: Sub-fields.
    """

    name: str
    offset: int
    length: int
    value: object
    display: str
    children: list["DissectedField"] = field(default_factory=list)

    def add(self, child: "DissectedField") -> "DissectedField":
        self.children.append(child)
        return child

    def render(self, indent: int = 0) -> str:
        """Wireshark-packet-details-style text rendering."""
        pad = "    " * indent
        lines = [f"{pad}{self.name}: {self.display}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def find(self, name: str) -> "DissectedField | None":
        """Depth-first lookup by exact field name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None


def _media_type_name(value: int) -> str:
    try:
        return ZoomMediaType(value).name
    except ValueError:
        return "UNKNOWN/CONTROL"


def _payload_type_name(value: int, media_type: int) -> str:
    if value == RTPPayloadType.VIDEO_MAIN:
        return "video (main)"
    if value == RTPPayloadType.FEC:
        return "FEC"
    if value == RTPPayloadType.AUDIO_SPEAKING:
        return "audio (speaking mode)"
    if value == RTPPayloadType.AUDIO_UNKNOWN:
        return "audio (mode unknown)"
    if value == RTPPayloadType.MULTIPLEX_99:
        if media_type == ZoomMediaType.AUDIO:
            return "audio (silent mode)"
        return "screen share (main)"
    return "unknown"


def dissect(payload: bytes, *, from_server: bool | None = None) -> DissectedField:
    """Dissect one Zoom UDP payload into a field tree.

    Args:
        payload: Raw UDP payload bytes.
        from_server: Force SFU-encapsulation (True), P2P (False), or
            auto-detect (None) — same semantics as
            :func:`repro.zoom.packets.parse_zoom_payload`.
    """
    packet = parse_zoom_payload(payload, from_server=from_server)
    root = DissectedField(
        name="zoom",
        offset=0,
        length=len(payload),
        value=None,
        display=packet.describe(),
    )
    cursor = 0
    if packet.sfu is not None:
        cursor = _dissect_sfu(root, packet.sfu)
    if packet.media is not None:
        media_node = DissectedField(
            name="zoom.media",
            offset=cursor,
            length=packet.media.header_len,
            value=None,
            display=f"Zoom Media Encapsulation ({_media_type_name(packet.media.media_type)})",
        )
        root.add(media_node)
        media_node.add(
            DissectedField(
                "zoom.media.type",
                cursor,
                1,
                packet.media.media_type,
                f"{packet.media.media_type} ({_media_type_name(packet.media.media_type)})",
            )
        )
        if packet.media.is_rtp:
            media_node.add(
                DissectedField(
                    "zoom.media.seq", cursor + 9, 2, packet.media.sequence,
                    str(packet.media.sequence),
                )
            )
            media_node.add(
                DissectedField(
                    "zoom.media.timestamp", cursor + 11, 4, packet.media.timestamp,
                    str(packet.media.timestamp),
                )
            )
        if packet.media.has_frame_fields:
            media_node.add(
                DissectedField(
                    "zoom.media.frame_seq", cursor + 21, 2,
                    packet.media.frame_sequence, str(packet.media.frame_sequence),
                )
            )
            media_node.add(
                DissectedField(
                    "zoom.media.pkts_in_frame", cursor + 23, 1,
                    packet.media.packets_in_frame, str(packet.media.packets_in_frame),
                )
            )
        cursor += packet.media.header_len
    if packet.rtp is not None:
        cursor = _dissect_rtp(root, packet, cursor)
    if packet.rtcp:
        _dissect_rtcp(root, packet, cursor)
    return root


def _dissect_sfu(root: DissectedField, sfu: SfuEncap) -> int:
    node = DissectedField(
        name="zoom.sfu",
        offset=0,
        length=SfuEncap.HEADER_LEN,
        value=None,
        display="Zoom SFU Encapsulation",
    )
    root.add(node)
    node.add(
        DissectedField(
            "zoom.sfu.type", 0, 1, sfu.sfu_type,
            f"{sfu.sfu_type}" + (" (media follows)" if sfu.carries_media else ""),
        )
    )
    node.add(DissectedField("zoom.sfu.seq", 1, 2, sfu.sequence, str(sfu.sequence)))
    direction_name = (
        "to SFU (0x00)" if sfu.direction == Direction.TO_SFU else
        "from SFU (0x04)" if sfu.direction == Direction.FROM_SFU else
        f"{sfu.direction:#04x}"
    )
    node.add(DissectedField("zoom.sfu.direction", 7, 1, sfu.direction, direction_name))
    return SfuEncap.HEADER_LEN


def _dissect_rtp(root: DissectedField, packet: ZoomPacket, cursor: int) -> int:
    rtp = packet.rtp
    assert rtp is not None and packet.media is not None
    node = DissectedField(
        name="rtp",
        offset=cursor,
        length=rtp.header_len,
        value=None,
        display="Real-Time Transport Protocol",
    )
    root.add(node)
    node.add(DissectedField("rtp.version", cursor, 1, 2, "RFC 1889 version (2)"))
    node.add(DissectedField("rtp.marker", cursor + 1, 1, rtp.marker, str(rtp.marker)))
    node.add(
        DissectedField(
            "rtp.p_type", cursor + 1, 1, rtp.payload_type,
            f"{rtp.payload_type} ({_payload_type_name(rtp.payload_type, packet.media.media_type)})",
        )
    )
    node.add(DissectedField("rtp.seq", cursor + 2, 2, rtp.sequence, str(rtp.sequence)))
    node.add(
        DissectedField("rtp.timestamp", cursor + 4, 4, rtp.timestamp, str(rtp.timestamp))
    )
    node.add(
        DissectedField("rtp.ssrc", cursor + 8, 4, rtp.ssrc, f"{rtp.ssrc:#010x}")
    )
    if rtp.extension_profile is not None:
        node.add(
            DissectedField(
                "rtp.ext.profile",
                cursor + 12 + 4 * len(rtp.csrcs),
                2,
                rtp.extension_profile,
                f"{rtp.extension_profile:#06x}",
            )
        )
    cursor += rtp.header_len
    if (
        packet.media.media_type in (ZoomMediaType.VIDEO, ZoomMediaType.SCREEN_SHARE)
        and len(packet.rtp_payload) >= 2
    ):
        fu = DissectedField(
            name="h264.fu",
            offset=cursor,
            length=2,
            value=packet.rtp_payload[:2],
            display="H.264 fragmentation unit (NAL) header",
        )
        root.add(fu)
        fu.add(
            DissectedField(
                "h264.fu.start", cursor + 1, 1,
                bool(packet.rtp_payload[1] & 0x80),
                str(bool(packet.rtp_payload[1] & 0x80)),
            )
        )
        fu.add(
            DissectedField(
                "h264.fu.end", cursor + 1, 1,
                bool(packet.rtp_payload[1] & 0x40),
                str(bool(packet.rtp_payload[1] & 0x40)),
            )
        )
    root.add(
        DissectedField(
            "zoom.payload",
            cursor,
            len(packet.rtp_payload),
            None,
            f"encrypted media payload ({len(packet.rtp_payload)} bytes)",
        )
    )
    return cursor


def _dissect_rtcp(root: DissectedField, packet: ZoomPacket, start: int) -> None:
    # Node ranges come from the compound's own length words, so a non-empty
    # SDES or a skipped BYE/APP before a report cannot shift it.
    for offset, length, report in walk_rtcp_compound(packet.raw[start:]):
        cursor = start + offset
        if isinstance(report, RTCPSenderReport):
            node = DissectedField(
                "rtcp.sr", cursor, length, None, "RTCP Sender Report"
            )
            node.add(DissectedField("rtcp.ssrc", cursor + 4, 4, report.ssrc, f"{report.ssrc:#010x}"))
            node.add(
                DissectedField(
                    "rtcp.ntp", cursor + 8, 8,
                    (report.ntp_seconds, report.ntp_fraction),
                    f"{report.ntp_unix_time:.6f} (unix)",
                )
            )
            node.add(
                DissectedField(
                    "rtcp.rtp_ts", cursor + 16, 4, report.rtp_timestamp,
                    str(report.rtp_timestamp),
                )
            )
            node.add(
                DissectedField(
                    "rtcp.pkt_count", cursor + 20, 4, report.packet_count,
                    str(report.packet_count),
                )
            )
            root.add(node)
        elif isinstance(report, RTCPSdes):
            display = "RTCP Source Description" + (" (empty)" if report.is_empty else "")
            node = DissectedField("rtcp.sdes", cursor, length, None, display)
            node.add(DissectedField("rtcp.sdes.ssrc", cursor + 4, 4, report.ssrc, f"{report.ssrc:#010x}"))
            root.add(node)
        elif isinstance(report, RTCPReceiverReport):
            root.add(DissectedField("rtcp.rr", cursor, length, None, "RTCP Receiver Report"))


def dissect_text(payload: bytes, *, from_server: bool | None = None) -> str:
    """One-call convenience: dissect and render as text."""
    return dissect(payload, from_server=from_server).render()
