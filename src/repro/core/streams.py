"""RTP stream assembly: from decoded packets to per-stream state.

A *media stream* is identified by IP 5-tuple plus SSRC (§4.3.2 step 1); a
stream contains up to three *substreams* identified by RTP payload type
(§4.2.3), each with its own sequence space.  The analyzer keeps one
:class:`MediaStream` per key and feeds each arriving
:class:`RTPPacketRecord` to the metric estimators attached to it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from repro.net.packet import FiveTuple
from repro.zoom.constants import ZoomMediaType

StreamKey = tuple[FiveTuple, int]
"""(five-tuple, SSRC) — the stream identity used throughout the analyzer."""


@dataclass(frozen=True, slots=True)
class RTPPacketRecord:
    """The normalized record the analyzer keeps per decoded media packet.

    This is the paper's "RTP packet record" (§4.3.2): everything later
    stages need, and nothing else — the raw bytes are dropped after decode.

    Attributes:
        timestamp: Monitor capture time (s).
        five_tuple: (src, src_port, dst, dst_port, proto), addresses in
            wire form — an opaque key to everything but the text renderers.
        ssrc / payload_type / sequence / rtp_timestamp / marker: RTP fields.
        media_type: Zoom media-encapsulation type (13/15/16).
        payload_len: RTP payload bytes (the encrypted media).
        udp_payload_len: Total UDP payload bytes (for flow-level rates).
        frame_sequence: Zoom frame counter (video/screen share, else 0).
        packets_in_frame: Zoom packets-per-frame field (video/screen share).
        is_p2p: Whether the packet carried no SFU encapsulation.
        to_server: True for client→SFU packets (direction byte 0x00), False
            for SFU→client (0x04), None for P2P.
        protocol: Registry name of the plugin that decoded the packet.
    """

    timestamp: float
    five_tuple: FiveTuple
    ssrc: int
    payload_type: int
    sequence: int
    rtp_timestamp: int
    marker: bool
    media_type: int
    payload_len: int
    udp_payload_len: int
    frame_sequence: int = 0
    packets_in_frame: int = 0
    is_p2p: bool = False
    to_server: bool | None = None
    protocol: str = "zoom"

    @property
    def stream_key(self) -> StreamKey:
        return (self.five_tuple, self.ssrc)

    @property
    def src(self) -> tuple[int, int]:
        return (self.five_tuple[0], self.five_tuple[1])

    @property
    def dst(self) -> tuple[int, int]:
        return (self.five_tuple[2], self.five_tuple[3])


@dataclass
class SubStreamState:
    """Per-payload-type sequence tracking within a stream."""

    payload_type: int
    packets: int = 0
    bytes: int = 0
    highest_sequence: int | None = None
    first_sequence: int | None = None

    def observe(self, record: RTPPacketRecord) -> None:
        self.packets += 1
        self.bytes += record.payload_len
        if self.first_sequence is None:
            self.first_sequence = record.sequence
        if self.highest_sequence is None or _seq_newer(
            record.sequence, self.highest_sequence
        ):
            self.highest_sequence = record.sequence


@dataclass
class MediaStream:
    """One RTP media stream as seen from the monitor.

    Accumulates identity, bounds, per-substream counters, and the packet
    records themselves (callers that only need counters can disable record
    retention via ``StreamTable(keep_records=False)``).
    """

    key: StreamKey
    media_type: int
    is_p2p: bool
    to_server: bool | None
    first_time: float = 0.0
    last_time: float = 0.0
    first_rtp_timestamp: int = 0
    last_rtp_timestamp: int = 0
    packets: int = 0
    bytes: int = 0
    substreams: dict[int, SubStreamState] = field(default_factory=dict)
    records: list[RTPPacketRecord] = field(default_factory=list)
    keep_records: bool = True
    protocol: str = "zoom"

    @property
    def ssrc(self) -> int:
        return self.key[1]

    @property
    def five_tuple(self) -> FiveTuple:
        return self.key[0]

    @property
    def duration(self) -> float:
        return max(self.last_time - self.first_time, 0.0)

    @property
    def media_type_name(self) -> str:
        try:
            return ZoomMediaType(self.media_type).name
        except ValueError:
            return f"TYPE_{self.media_type}"

    def observe(self, record: RTPPacketRecord) -> None:
        """Fold one packet into the stream state."""
        if self.packets == 0:
            self.first_time = record.timestamp
            self.first_rtp_timestamp = record.rtp_timestamp
        self.packets += 1
        self.bytes += record.payload_len
        self.last_time = max(self.last_time, record.timestamp)
        self.last_rtp_timestamp = record.rtp_timestamp
        sub = self.substreams.get(record.payload_type)
        if sub is None:
            sub = self.substreams[record.payload_type] = SubStreamState(
                record.payload_type
            )
        sub.observe(record)
        if self.keep_records:
            self.records.append(record)

    def main_substream(self) -> SubStreamState | None:
        """The substream carrying the most packets (the non-FEC one)."""
        if not self.substreams:
            return None
        return max(self.substreams.values(), key=lambda sub: sub.packets)


class StreamTable:
    """Assembles packet records into :class:`MediaStream` objects.

    Also maintains the SSRC index that step 1 of the grouping heuristic
    needs: all streams carrying a given SSRC, so that a new 5-tuple with a
    known SSRC can be checked for RTP-timestamp continuity (§4.3.2).
    """

    def __init__(self, *, keep_records: bool = True) -> None:
        self._streams: dict[StreamKey, MediaStream] = {}
        self._by_ssrc: dict[int, list[MediaStream]] = defaultdict(list)
        self._keep_records = keep_records

    @property
    def keep_records(self) -> bool:
        """Whether streams created by this table retain per-packet records."""
        return self._keep_records

    def observe(self, record: RTPPacketRecord) -> MediaStream:
        """Route one record to its stream, creating the stream if new."""
        stream = self._streams.get(record.stream_key)
        if stream is None:
            stream = MediaStream(
                key=record.stream_key,
                media_type=record.media_type,
                is_p2p=record.is_p2p,
                to_server=record.to_server,
                keep_records=self._keep_records,
                protocol=record.protocol,
            )
            self._streams[record.stream_key] = stream
            self._by_ssrc[record.ssrc].append(stream)
        stream.observe(record)
        return stream

    def __len__(self) -> int:
        return len(self._streams)

    def __iter__(self) -> Iterator[MediaStream]:
        return iter(self._streams.values())

    def get(self, key: StreamKey) -> MediaStream | None:
        return self._streams.get(key)

    def with_ssrc(self, ssrc: int) -> list[MediaStream]:
        """All streams carrying ``ssrc`` (stream copies land here together)."""
        return list(self._by_ssrc.get(ssrc, ()))

    def adopt(self, stream: MediaStream) -> None:
        """Insert an already-assembled stream (sharded-result merge).

        Flow-affine partitioning makes shard stream keys disjoint, so a key
        collision means the caller merged overlapping captures — refuse
        rather than silently conflate two streams' state.
        """
        if stream.key in self._streams:
            raise ValueError(f"stream {stream.key!r} already present in table")
        self._streams[stream.key] = stream
        self._by_ssrc[stream.ssrc].append(stream)

    def evict(self, key: StreamKey) -> MediaStream | None:
        """Remove one stream from the table (continuous-operation cleanup);
        returns it, or ``None`` if unknown."""
        stream = self._streams.pop(key, None)
        if stream is None:
            return None
        remaining = [s for s in self._by_ssrc.get(stream.ssrc, ()) if s.key != key]
        if remaining:
            self._by_ssrc[stream.ssrc] = remaining
        else:
            self._by_ssrc.pop(stream.ssrc, None)
        return stream

    def streams(self) -> list[MediaStream]:
        return list(self._streams.values())


def _seq_newer(candidate: int, reference: int) -> bool:
    """RFC 1982 style serial comparison for 16-bit RTP sequence numbers."""
    return 0 < ((candidate - reference) & 0xFFFF) < 0x8000
