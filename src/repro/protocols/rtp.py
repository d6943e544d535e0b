"""Generic RTP-over-UDP / WebRTC plugin: same window metrics, no app headers.

WebRTC-family applications (Meet, Webex, browser calls) negotiate media
flows with ICE: cleartext STUN binding exchanges on the *same 5-tuple* the
RTP media then uses.  That makes the paper's P2P trick work without any
Zoom-specific knowledge — learn the endpoints from the STUN magic cookie,
then decode standard RFC 3550 RTP/RTCP on those endpoints:

* **Detection** — any UDP frame that `is_stun` teaches the tracker *both*
  endpoints (either end may be the monitored side) and is claimed as
  ``RTP_STUN``; a later UDP frame touching a learned endpoint whose payload
  passes the RTP (or RTCP) format check is claimed as ``RTP_MEDIA``.
* **Dissection** — RTCP compounds feed the same SR/SDES/RR accounting and
  clock sync as Zoom RTCP; RTP packets become
  :class:`~repro.core.streams.RTPPacketRecord` with the payload type mapped
  onto the canonical media-type values (``AUDIO``/``VIDEO``) so the §5
  estimators, stream table, QoE tracker, service windows, and store records
  work unchanged.
* **Frames** — plain RTP has no ``packets_in_frame`` header, but the marker
  bit flags the last packet of a video frame (RFC 3550 §5.1).  The plugin
  synthesizes stateless instant-completion frame fields on marker packets
  (``packets_in_frame=1``, ``frame_sequence=sequence``): delivered frame
  rate and frame spacing are exact, per-frame byte sizes are lower bounds
  (last packet only) — the estimate the WebRTC-QoE literature shows is
  enough for QoE scoring without application headers.

Because ICE STUN rides the media 5-tuple, flow-affine sharding keeps each
flow's STUN preamble and media on the same shard with no extra hint
replication.  (Flows that STUN only against a *separate* server address on
port 3478 still replicate through the existing hint path.)
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.core.detector import StunTracker
from repro.core.streams import RTPPacketRecord
from repro.protocols.base import ProtocolPlugin, observe_rtcp, undecoded
from repro.rtp.rtcp import parse_rtcp_compound
from repro.rtp.rtp import RTP_VERSION, looks_like_rtp, walk_rtp_header
from repro.rtp.stun import is_stun
from repro.zoom.constants import ZoomMediaType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import AnalyzerConfig
    from repro.core.pipeline import AnalysisResult
    from repro.core.stages.base import PacketContext
    from repro.net.packet import ParsedPacket
    from repro.telemetry.registry import Telemetry

#: Default payload types mapped to the audio media type; everything else
#: decodable as RTP is treated as video.  Covers the static audio PTs of
#: RFC 3551 plus Opus as commonly negotiated (111).
DEFAULT_AUDIO_PAYLOAD_TYPES = (0, 8, 9, 13, 111)


def looks_like_rtcp(payload: bytes | memoryview) -> bool:
    """Version-2 header whose packet-type field sits in the RTCP range.

    The RFC 5761 demux rule for RTP/RTCP sharing one port: payload types
    72–76 collide with RTCP packet types 200–204 (SR/RR/SDES/BYE/APP)
    once the marker bit is masked off.
    """
    if len(payload) < 4:
        return False
    if payload[0] >> 6 != RTP_VERSION:
        return False
    return 72 <= (payload[1] & 0x7F) <= 76


class RtpClass(enum.Enum):
    """Classification of one packet by the generic RTP plugin."""

    RTP_STUN = "rtp_stun"  # ICE/STUN exchange (teaches the endpoint tracker)
    RTP_MEDIA = "rtp_media"  # RTP or RTCP on a STUN-learned endpoint

    @property
    def claimed(self) -> bool:
        return True

    @property
    def is_media(self) -> bool:
        return self is RtpClass.RTP_MEDIA


class RtpPlugin(ProtocolPlugin):
    """Generic RTP/WebRTC detection and dissection (no app headers)."""

    name = "rtp"
    priority = 10
    classes = tuple(RtpClass)
    sniff_all_stun = True

    def __init__(
        self,
        *,
        stun_timeout: float = 120.0,
        audio_payload_types: tuple[int, ...] = DEFAULT_AUDIO_PAYLOAD_TYPES,
    ) -> None:
        self.stun = StunTracker(timeout=stun_timeout)
        self._audio_payload_types = frozenset(audio_payload_types)

    @classmethod
    def from_config(cls, config: "AnalyzerConfig") -> "RtpPlugin":
        return cls(
            stun_timeout=config.stun_timeout,
            audio_payload_types=config.protocols.rtp_audio_payload_types,
        )

    # ------------------------------------------------------------- detection

    def decide(self, parsed: "ParsedPacket", lookup):
        if not parsed.is_udp:
            return None, ()
        payload = parsed.payload
        src = (parsed.src, parsed.src_port)
        dst = (parsed.dst, parsed.dst_port)
        if is_stun(payload):
            # Either end may be the monitored side: the frame teaches both.
            return RtpClass.RTP_STUN, (src, dst)
        now = parsed.timestamp
        if (lookup(*src, now) or lookup(*dst, now)) and (
            looks_like_rtcp(payload) or looks_like_rtp(payload)
        ):
            return RtpClass.RTP_MEDIA, ()
        return None, ()

    def on_claimed(self, ctx: "PacketContext", result: "AnalysisResult") -> bool:
        parsed = ctx.parsed
        assert parsed is not None
        if ctx.klass is RtpClass.RTP_STUN:
            result.stun_packets += 1
            return False
        ctx.five_tuple = parsed.five_tuple
        return ctx.five_tuple is not None

    # ------------------------------------------------------------ dissection

    def dissect(
        self, ctx: "PacketContext", result: "AnalysisResult", telemetry: "Telemetry"
    ) -> bool:
        parsed = ctx.parsed
        assert parsed is not None and ctx.five_tuple is not None
        payload = parsed.payload
        if looks_like_rtcp(payload):
            reports = parse_rtcp_compound(bytes(payload))
            if not reports:
                return undecoded(len(payload), result, telemetry)
            return observe_rtcp(
                reports, int(ZoomMediaType.RTCP_SR), len(payload), result, telemetry
            )
        walked = walk_rtp_header(payload)
        if walked is None:
            return undecoded(len(payload), result, telemetry)
        payload_type, marker, sequence, rtp_timestamp, ssrc, payload_offset = walked
        if payload_type in self._audio_payload_types:
            media_type = int(ZoomMediaType.AUDIO)
        else:
            media_type = int(ZoomMediaType.VIDEO)
        # Marker-synthesized frame fields (module docstring): exact frame
        # timing, lower-bound frame sizes, zero per-flow assembler state.
        if media_type == ZoomMediaType.VIDEO and marker:
            frame_sequence = sequence
            packets_in_frame = 1
        else:
            frame_sequence = 0
            packets_in_frame = 0
        record = RTPPacketRecord(
            timestamp=parsed.timestamp,
            five_tuple=ctx.five_tuple,
            ssrc=ssrc,
            payload_type=payload_type,
            sequence=sequence,
            rtp_timestamp=rtp_timestamp,
            marker=marker,
            media_type=media_type,
            payload_len=len(payload) - payload_offset,
            udp_payload_len=len(payload),
            frame_sequence=frame_sequence,
            packets_in_frame=packets_in_frame,
            is_p2p=True,
            to_server=None,
            protocol=self.name,
        )
        result.encap_packets[media_type] += 1
        result.encap_bytes[media_type] += len(payload)
        result.payload_type_packets[(media_type, record.payload_type)] += 1
        result.payload_type_bytes[(media_type, record.payload_type)] += record.payload_len
        ctx.record = record
        return True

    # ------------------------------------------------------------------- CLI

    def flow_tag(self, klass) -> str:
        return "stun" if klass is RtpClass.RTP_STUN else "p2p"

    def dissect_text(self, parsed: "ParsedPacket", klass) -> str:
        payload = parsed.payload
        if is_stun(payload):
            return "STUN binding (ICE) — endpoint learned\n"
        if looks_like_rtcp(payload):
            reports = parse_rtcp_compound(bytes(payload))
            lines = [f"RTCP compound ({len(reports)} report(s))"]
            for report in reports:
                lines.append(
                    f"  {type(report).__name__} ssrc=0x{report.ssrc:08x}"
                )
            return "\n".join(lines) + "\n"
        walked = walk_rtp_header(payload)
        if walked is None:
            return "undecodable payload\n"
        payload_type, marker, sequence, rtp_timestamp, ssrc, payload_offset = walked
        media = "audio" if payload_type in self._audio_payload_types else "video"
        return (
            f"Real-Time Transport Protocol pt={payload_type} ({media}) "
            f"ssrc=0x{ssrc:08x} seq={sequence} "
            f"ts={rtp_timestamp} marker={int(marker)} "
            f"payload={len(payload) - payload_offset}B\n"
        )
