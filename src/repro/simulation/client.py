"""The Zoom client model: packetization of media into Zoom wire format.

A :class:`ZoomClientModel` owns the per-stream protocol state the paper
documents: one SSRC per media stream (small, structured, unique only within
the meeting — §4.2.3), independent RTP sequence spaces per substream
(main + FEC), Zoom media-encapsulation sequence/timestamp counters, the
per-frame ``frame_sequence`` / ``packets_in_frame`` fields, the marker bit
on the last packet of each frame, and once-per-second RTCP sender reports.

RTP payload bytes are drawn from a seeded RNG so they are indistinguishable
from encrypted data — which is what makes the entropy analysis of
:mod:`repro.core.entropy` classify them as random, exactly as in Figure 5c.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.rtp.rtcp import RTCPSdes, RTCPSenderReport, ntp_from_unix
from repro.rtp.rtp import RTPHeader
from repro.simulation.media import AudioPacketSpec, Frame
from repro.zoom.constants import (
    AUDIO_SAMPLING_RATE,
    VIDEO_SAMPLING_RATE,
    RTPPayloadType,
    ZoomMediaType,
)
from repro.zoom.media_encap import MediaEncap

MAX_RTP_PAYLOAD = 1050
"""Maximum RTP payload bytes per media packet before a frame is split."""

FU_INDICATOR = 0x7C
"""H.264 fragmentation-unit NAL indicator prepended to video payloads (§4.2.3)."""

RTP_EXTENSION_PROFILE = 0xBEDE
"""One-byte-header RTP extension profile Zoom media packets carry."""


@dataclass(frozen=True, slots=True)
class MediaPacket:
    """One Zoom media packet before SFU-layer wrapping.

    Attributes:
        media: The Zoom media encapsulation header.
        rtp: The inner RTP header.
        rtp_payload: The (pseudo-encrypted) payload bytes.
        frame_id: Emulator-internal frame identity for ground truth; ``None``
            for audio packets.
    """

    media: MediaEncap
    rtp: RTPHeader
    rtp_payload: bytes
    frame_id: int | None = None

    @property
    def is_fec(self) -> bool:
        return self.rtp.payload_type == RTPPayloadType.FEC

    @property
    def size(self) -> int:
        """Wire size of the media + RTP layers (without SFU encapsulation)."""
        return self.media.header_len + self.rtp.header_len + len(self.rtp_payload)


@dataclass
class _SubStreamState:
    """Independent RTP sequence space of one substream (payload type)."""

    next_sequence: int

    def take(self) -> int:
        value = self.next_sequence
        self.next_sequence = (self.next_sequence + 1) & 0xFFFF
        return value


@dataclass
class _StreamState:
    """Protocol state of one media stream (one SSRC)."""

    ssrc: int
    media_type: ZoomMediaType
    sampling_rate: int
    substreams: dict[int, _SubStreamState] = field(default_factory=dict)
    zoom_sequence: int = 0
    frame_sequence: int = 0
    packet_count: int = 0
    octet_count: int = 0
    last_rtp_timestamp: int = 0

    def sub(self, payload_type: int) -> _SubStreamState:
        if payload_type not in self.substreams:
            self.substreams[payload_type] = _SubStreamState(
                next_sequence=(self.ssrc * 131 + payload_type * 17) & 0xFFFF
            )
        return self.substreams[payload_type]

    def next_zoom_seq(self) -> int:
        value = self.zoom_sequence
        self.zoom_sequence = (self.zoom_sequence + 1) & 0xFFFF
        return value

    def next_frame_seq(self) -> int:
        value = self.frame_sequence
        self.frame_sequence = (self.frame_sequence + 1) & 0xFFFF
        return value


class ZoomClientModel:
    """Per-participant packetization state machine.

    Args:
        participant_index: Index of the participant within the meeting.
            SSRCs are derived from it as ``(index << 8) | media_type`` —
            small structured values that repeat *across* meetings, matching
            the paper's observation that SSRCs are neither globally unique
            nor random (§4.3.1) and stressing the grouping heuristic.
        fec_ratio: Fraction of video/audio packets shadowed by a payload-type
            110 FEC packet (same timestamp, separate sequence space).
        rng: Seeded random source for payload bytes and FEC sampling.
    """

    def __init__(
        self,
        participant_index: int,
        *,
        fec_ratio: float = 0.09,
        mobile: bool = False,
        rng: random.Random | None = None,
    ) -> None:
        self.participant_index = participant_index
        self.fec_ratio = fec_ratio
        self.mobile = mobile
        self._rng = rng or random.Random(participant_index)
        self._streams: dict[ZoomMediaType, _StreamState] = {}

    def stream(self, media_type: ZoomMediaType) -> _StreamState:
        """Get or create the protocol state for one media type."""
        if media_type not in self._streams:
            sampling = (
                AUDIO_SAMPLING_RATE
                if media_type == ZoomMediaType.AUDIO
                else VIDEO_SAMPLING_RATE
            )
            self._streams[media_type] = _StreamState(
                ssrc=(self.participant_index << 8) | int(media_type),
                media_type=media_type,
                sampling_rate=sampling,
            )
        return self._streams[media_type]

    def _encrypted(self, length: int) -> bytes:
        """Pseudo-encrypted payload bytes (uniform random)."""
        return self._rng.randbytes(max(length, 1))

    def _media_packet(
        self,
        stream: _StreamState,
        *,
        payload_type: int,
        rtp_timestamp: int,
        payload: bytes,
        marker: bool,
        frame_seq: int = 0,
        packets_in_frame: int = 0,
        frame_id: int | None = None,
    ) -> MediaPacket:
        rtp = RTPHeader(
            payload_type=payload_type,
            sequence=stream.sub(payload_type).take(),
            timestamp=rtp_timestamp & 0xFFFFFFFF,
            ssrc=stream.ssrc,
            marker=marker,
            extension_profile=RTP_EXTENSION_PROFILE,
            extension_data=self._encrypted(4),
        )
        media = MediaEncap(
            media_type=int(stream.media_type),
            sequence=stream.next_zoom_seq(),
            timestamp=rtp_timestamp & 0xFFFFFFFF,
            frame_sequence=frame_seq,
            packets_in_frame=packets_in_frame,
        )
        stream.packet_count += 1
        stream.octet_count += len(payload)
        stream.last_rtp_timestamp = rtp_timestamp & 0xFFFFFFFF
        return MediaPacket(media=media, rtp=rtp, rtp_payload=payload, frame_id=frame_id)

    def packetize_frame(
        self, media_type: ZoomMediaType, frame: Frame, frame_id: int
    ) -> list[MediaPacket]:
        """Split a video or screen-share frame into Zoom media packets.

        The frame is split into ``ceil(size / MAX_RTP_PAYLOAD)`` packets; each
        carries the frame's RTP timestamp, the per-frame ``frame_sequence``,
        and the total ``packets_in_frame`` count; the last packet has the RTP
        marker bit set (§4.2.3).  Video packets may be shadowed by FEC
        packets on payload type 110 with identical timestamps but their own
        sequence numbers.
        """
        if media_type not in (ZoomMediaType.VIDEO, ZoomMediaType.SCREEN_SHARE):
            raise ValueError(f"packetize_frame is for video-like media, got {media_type}")
        stream = self.stream(media_type)
        count = max(1, -(-frame.size // MAX_RTP_PAYLOAD))
        frame_seq = stream.next_frame_seq()
        main_pt = (
            int(RTPPayloadType.VIDEO_MAIN)
            if media_type == ZoomMediaType.VIDEO
            else int(RTPPayloadType.MULTIPLEX_99)
        )
        packets: list[MediaPacket] = []
        remaining = frame.size
        for i in range(count):
            chunk = min(MAX_RTP_PAYLOAD, remaining)
            remaining -= chunk
            # Video payloads start with an H.264 FU NAL header (§4.2.3).
            fu_header = bytes(
                [FU_INDICATOR, (0x80 if i == 0 else 0x00) | (0x40 if i == count - 1 else 0)]
            )
            payload = fu_header + self._encrypted(max(chunk - 2, 1))
            packets.append(
                self._media_packet(
                    stream,
                    payload_type=main_pt,
                    rtp_timestamp=frame.rtp_timestamp,
                    payload=payload,
                    marker=(i == count - 1),
                    frame_seq=frame_seq,
                    packets_in_frame=count,
                    frame_id=frame_id,
                )
            )
        if media_type == ZoomMediaType.VIDEO and self.fec_ratio > 0:
            for packet in list(packets):
                if self._rng.random() < self.fec_ratio:
                    packets.append(
                        self._media_packet(
                            stream,
                            payload_type=int(RTPPayloadType.FEC),
                            rtp_timestamp=frame.rtp_timestamp,
                            payload=self._encrypted(len(packet.rtp_payload)),
                            marker=False,
                            frame_seq=frame_seq,
                            packets_in_frame=count,
                            frame_id=None,  # FEC does not count toward delivery
                        )
                    )
        return packets

    def packetize_audio(self, spec: AudioPacketSpec) -> list[MediaPacket]:
        """Build the Zoom media packet(s) for one 20 ms audio interval."""
        stream = self.stream(ZoomMediaType.AUDIO)
        packets = [
            self._media_packet(
                stream,
                payload_type=spec.payload_type,
                rtp_timestamp=spec.rtp_timestamp,
                payload=self._encrypted(spec.payload_len),
                marker=False,
            )
        ]
        if spec.payload_type == RTPPayloadType.AUDIO_SPEAKING and (
            self._rng.random() < self.fec_ratio / 3
        ):
            packets.append(
                self._media_packet(
                    stream,
                    payload_type=int(RTPPayloadType.FEC),
                    rtp_timestamp=spec.rtp_timestamp,
                    payload=self._encrypted(spec.payload_len),
                    marker=False,
                )
            )
        return packets

    def rtcp_reports(self, now: float) -> list[tuple[MediaEncap, list]]:
        """Build the once-per-second RTCP sender reports for active streams.

        Returns (media_encap, reports) pairs ready for
        :func:`repro.zoom.packets.build_rtcp_payload`.  Roughly a quarter of
        reports carry an additional *empty* SDES (media type 34 instead of
        33), matching Table 2's relative frequencies.
        """
        out: list[tuple[MediaEncap, list]] = []
        for stream in self._streams.values():
            if stream.packet_count == 0:
                # A sender report describes sent media; nothing sent yet
                # (e.g. a screen share still static) means no SR.
                continue
            ntp_seconds, ntp_fraction = ntp_from_unix(now)
            sender_report = RTCPSenderReport(
                ssrc=stream.ssrc,
                ntp_seconds=ntp_seconds,
                ntp_fraction=ntp_fraction,
                rtp_timestamp=stream.last_rtp_timestamp,
                packet_count=stream.packet_count & 0xFFFFFFFF,
                octet_count=stream.octet_count & 0xFFFFFFFF,
            )
            # Table 2: SR+SDES (type 34) outnumbers lone SR (33) ~3:1.
            if self._rng.random() < 0.75:
                media = MediaEncap(media_type=int(ZoomMediaType.RTCP_SR_SDES))
                reports = [sender_report, RTCPSdes(ssrc=stream.ssrc)]
            else:
                media = MediaEncap(media_type=int(ZoomMediaType.RTCP_SR))
                reports = [sender_report]
            out.append((media, reports))
        return out
