"""Zoom as a protocol plugin: the §4.1 detector + §4.2 dissector.

This is the original pipeline behaviour, refactored behind the
:class:`~repro.protocols.base.ProtocolPlugin` contract with **bit-identical
output** (proven by the unregenerated golden snapshots): the classify-stage
decision tree, the telemetry counter names, the detector's own counters, and
the demux accounting all match the pre-registry code path exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.detector import ZoomClass, ZoomTrafficDetector
from repro.core.metrics.latency import TCPRTTEstimator
from repro.core.streams import RTPPacketRecord
from repro.protocols.base import ProtocolPlugin, observe_rtcp, undecoded
from repro.zoom.constants import SERVER_MEDIA_PORT
from repro.zoom.packets import ZoomPacket
from repro.zoom.sfu_encap import Direction

_FROM_SFU = int(Direction.FROM_SFU)
_TO_SFU = int(Direction.TO_SFU)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import AnalyzerConfig
    from repro.core.pipeline import AnalysisResult
    from repro.core.stages.base import PacketContext
    from repro.net.packet import ParsedPacket
    from repro.telemetry.registry import Telemetry


class ZoomPlugin(ProtocolPlugin):
    """The Zoom detector/dissector pair behind the plugin contract.

    Owns the stateful :class:`~repro.core.detector.ZoomTrafficDetector`
    (the analyzer exposes the same object as ``result.detector`` so shard
    merges and the report layers keep working unchanged).
    """

    name = "zoom"
    priority = 0
    classes = tuple(ZoomClass)

    def __init__(self, detector: ZoomTrafficDetector) -> None:
        self.detector = detector
        self.stun = detector.stun
        # The one Zoom tree lives on the detector; it answers ``NOT_ZOOM``
        # rather than ``None`` for unclaimed packets, so the detector's
        # per-class counters keep counting every packet.
        self.decide = detector.decide

    @classmethod
    def from_config(cls, config: "AnalyzerConfig") -> "ZoomPlugin":
        return cls(
            ZoomTrafficDetector(
                config.zoom_subnets,
                campus_subnets=config.campus_subnets,
                stun_timeout=config.stun_timeout,
            )
        )

    # ------------------------------------------------------------- prefilter

    @property
    def prefilter_networks(self) -> tuple[tuple[int, int], ...]:
        return self.detector.matcher.v4

    # ------------------------------------------------------------- detection

    def count(self, klass: ZoomClass) -> None:
        self.detector.counters.bump(klass)

    def account_unclaimed_batch(self, count: int) -> None:
        self.detector.counters.add(ZoomClass.NOT_ZOOM, count)

    def on_claimed(self, ctx: "PacketContext", result: "AnalysisResult") -> bool:
        parsed = ctx.parsed
        klass = ctx.klass
        assert parsed is not None and klass is not None
        if klass is ZoomClass.SERVER_TLS:
            self._observe_tcp(parsed, result)
            return False
        if klass is ZoomClass.SERVER_STUN:
            result.stun_packets += 1
            return False
        if not klass.is_media or not parsed.is_udp:
            return False
        ctx.five_tuple = parsed.five_tuple
        return ctx.five_tuple is not None

    # ------------------------------------------------------------ dissection

    def dissect(
        self, ctx: "PacketContext", result: "AnalysisResult", telemetry: "Telemetry"
    ) -> bool:
        parsed = ctx.parsed
        assert parsed is not None and ctx.five_tuple is not None
        from_server = ctx.klass is ZoomClass.SERVER_MEDIA
        payload = parsed.payload
        size = len(payload)
        zoom = ZoomPacket(payload, from_server)
        walked = zoom.rtp_walk
        if walked is None:
            # RTCP, control and undecodable packets.
            if not zoom.rtcp:
                return undecoded(size, result, telemetry)
            return observe_rtcp(zoom.rtcp, zoom.media_type, size, result, telemetry)
        media_type = zoom.media_type
        direction = zoom.direction
        frame_sequence, packets_in_frame = zoom.frame_fields
        payload_type, marker, sequence, rtp_timestamp, ssrc, end = walked
        payload_len = size - end
        result.encap_packets[media_type] += 1
        result.encap_bytes[media_type] += size
        to_server: bool | None
        if direction is None:
            to_server = None
        elif direction == _FROM_SFU:
            to_server = False
        elif direction == _TO_SFU:
            to_server = True
        else:
            # Fall back on the well-known server port.
            to_server = parsed.dst_port == SERVER_MEDIA_PORT
        ctx.record = RTPPacketRecord(
            timestamp=parsed.timestamp,
            five_tuple=ctx.five_tuple,
            ssrc=ssrc,
            payload_type=payload_type,
            sequence=sequence,
            rtp_timestamp=rtp_timestamp,
            marker=marker,
            media_type=media_type,
            payload_len=payload_len,
            udp_payload_len=size,
            frame_sequence=frame_sequence,
            packets_in_frame=packets_in_frame,
            is_p2p=direction is None,
            to_server=to_server,
        )
        result.payload_type_packets[(media_type, payload_type)] += 1
        result.payload_type_bytes[(media_type, payload_type)] += payload_len
        return True

    def _observe_tcp(self, parsed: "ParsedPacket", result: "AnalysisResult") -> None:
        if parsed.src is None:
            return
        if self.detector.matcher.contains(parsed.src):
            key = (parsed.dst, parsed.src)
        else:
            key = (parsed.src, parsed.dst)
        estimator = result.tcp_rtt.get(key)
        if estimator is None:
            estimator = result.tcp_rtt[key] = TCPRTTEstimator(*key)
        estimator.observe(parsed)

    # ------------------------------------------------------------------- CLI

    def flow_tag(self, klass) -> str:
        return "p2p" if klass is ZoomClass.P2P_MEDIA else "server"

    def dissect_text(self, parsed: "ParsedPacket", klass) -> str:
        from repro.core.dissector import dissect_text

        return dissect_text(
            parsed.payload, from_server=(klass is ZoomClass.SERVER_MEDIA)
        )
