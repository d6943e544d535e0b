"""In-network monitoring *and control* actions (§8 "Discussion").

The paper's discussion sketches what a programmable switch could do with the
parsed Zoom headers beyond measurement: "annotating packets (e.g., using
DSCP) based on their type [or] relative importance" and "selectively
forwarding layers in an SVC stream ... dynamically in response to
congestion".  This module implements both actions over captured packets:

* :class:`DscpAnnotator` rewrites the IPv4 DSCP field per decoded media
  type, so downstream queues can prioritize audio over video over screen
  share over control traffic;
* :class:`SvcLayerDropper` models temporal-layer SVC thinning: when told the
  egress is congested, it drops FEC shadow packets first and, at the
  aggressive setting, every other video frame — halving frame rate without
  corrupting the stream (frames are dropped whole, by frame sequence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.net.ethernet import EthernetHeader
from repro.net.ip import IPv4Header
from repro.net.packet import CapturedPacket, parse_frame
from repro.zoom.constants import SERVER_MEDIA_PORT, RTPPayloadType, ZoomMediaType
from repro.zoom.packets import parse_zoom_payload

#: Default DSCP plan: expedited forwarding for audio, high-priority assured
#: forwarding for video, lower AF class for screen share, best effort for
#: everything else (incl. control packets).
DEFAULT_DSCP_PLAN: dict[int, int] = {
    int(ZoomMediaType.AUDIO): 46,         # EF
    int(ZoomMediaType.VIDEO): 34,         # AF41
    int(ZoomMediaType.SCREEN_SHARE): 26,  # AF31
}
BEST_EFFORT_DSCP = 0


def _rewrite_dscp(packet: CapturedPacket, dscp: int) -> CapturedPacket:
    """Return a copy of the frame with the IPv4 DSCP field set."""
    try:
        ether, l2_len = EthernetHeader.parse(packet.data)
        ip, ip_len = IPv4Header.parse(packet.data[l2_len:])
    except ValueError:
        return packet
    if ip.dscp == dscp:
        return packet
    new_ip = IPv4Header(
        src=ip.src,
        dst=ip.dst,
        protocol=ip.protocol,
        total_length=ip.total_length,
        ttl=ip.ttl,
        identification=ip.identification,
        dscp=dscp,
        ecn=ip.ecn,
        flags=ip.flags,
        fragment_offset=ip.fragment_offset,
    )
    body = packet.data[l2_len + ip_len :]
    return CapturedPacket(packet.timestamp, packet.data[:l2_len] + new_ip.serialize() + body)


@dataclass
class DscpAnnotator:
    """Per-media-type DSCP marking of Zoom packets.

    Non-Zoom or undecodable packets get ``BEST_EFFORT_DSCP``.  The
    ``from_server`` hint follows the usual port-8801 rule when ``None``.
    """

    plan: dict[int, int] = field(default_factory=lambda: dict(DEFAULT_DSCP_PLAN))
    marked: int = 0
    best_effort: int = 0

    def annotate(self, packet: CapturedPacket) -> CapturedPacket:
        parsed = parse_frame(packet.data, packet.timestamp)
        if not parsed.is_udp:
            return packet
        from_server = SERVER_MEDIA_PORT in (parsed.src_port, parsed.dst_port)
        zoom = parse_zoom_payload(parsed.payload, from_server=from_server)
        dscp = BEST_EFFORT_DSCP
        if zoom.is_media:
            dscp = self.plan.get(zoom.media_type, BEST_EFFORT_DSCP)
        if dscp == BEST_EFFORT_DSCP:
            self.best_effort += 1
        else:
            self.marked += 1
        return _rewrite_dscp(packet, dscp)


@dataclass
class SvcLayerDropper:
    """Temporal SVC thinning under congestion.

    Args:
        congested: Predicate of capture time; when it returns True, thinning
            is active.
        drop_fec: Drop payload-type-110 shadow packets while congested.
        halve_frame_rate: Additionally drop whole odd-``frame_sequence``
            video frames (a temporal layer), halving the delivered rate.
    """

    congested: Callable[[float], bool]
    drop_fec: bool = True
    halve_frame_rate: bool = False
    passed: int = 0
    dropped_fec: int = 0
    dropped_frames: int = 0

    def admit(self, packet: CapturedPacket) -> CapturedPacket | None:
        """Forward or drop one packet; returns ``None`` when dropped."""
        if not self.congested(packet.timestamp):
            self.passed += 1
            return packet
        parsed = parse_frame(packet.data, packet.timestamp)
        if not parsed.is_udp:
            self.passed += 1
            return packet
        from_server = SERVER_MEDIA_PORT in (parsed.src_port, parsed.dst_port)
        zoom = parse_zoom_payload(parsed.payload, from_server=from_server)
        if zoom.is_media:
            if self.drop_fec and zoom.rtp.payload_type == RTPPayloadType.FEC:
                self.dropped_fec += 1
                return None
            if (
                self.halve_frame_rate
                and zoom.media_type == ZoomMediaType.VIDEO
                and zoom.frame_fields[0] % 2 == 1  # odd frame sequence
            ):
                self.dropped_frames += 1
                return None
        self.passed += 1
        return packet

    def process(self, packets) -> list[CapturedPacket]:
        """Batch convenience."""
        out = []
        for packet in packets:
            admitted = self.admit(packet)
            if admitted is not None:
                out.append(admitted)
        return out
