"""Flow-level and per-media bit rates (§5.1).

The flow-level rate needs no Zoom parsing and is what prior work measured —
but it conflates media with control packets (~10% of packets carry no
media), mixes multiple streams multiplexed on one flow, and cannot tell a
low-rate video from audio.  The *media* bit rate counts only decoded media
payload bytes, attributed per SSRC and media type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics.binning import TimeBinner
from repro.core.streams import RTPPacketRecord
from repro.net.packet import FiveTuple


@dataclass
class BitrateMeter:
    """Binned byte counters at flow, stream, and media-type granularity.

    The demux stage feeds every media-class UDP packet, before decoding,
    to :meth:`observe_flow_bytes` (whole UDP payload, the flow-level view);
    the metrics stage feeds every decoded media record to
    :meth:`observe_media` (RTP payload bytes only, the media view).
    """

    bin_width: float = 1.0
    flow_bins: dict[FiveTuple, TimeBinner] = field(default_factory=dict)
    stream_bins: dict[tuple[FiveTuple, int], TimeBinner] = field(default_factory=dict)
    media_type_bins: dict[int, TimeBinner] = field(default_factory=dict)

    def observe_flow_bytes(self, five_tuple: FiveTuple, when: float, size: int) -> None:
        """Count UDP payload bytes at flow granularity (no parsing needed)."""
        binner = self.flow_bins.get(five_tuple)
        if binner is None:
            binner = self.flow_bins[five_tuple] = TimeBinner(self.bin_width)
        binner.add(when, size)

    def observe_media(self, record: RTPPacketRecord) -> None:
        """Count decoded media payload bytes per stream and media type."""
        key = (record.five_tuple, record.ssrc)
        stream_bin = self.stream_bins.get(key)
        if stream_bin is None:
            stream_bin = self.stream_bins[key] = TimeBinner(self.bin_width)
        stream_bin.add(record.timestamp, record.payload_len)
        type_bin = self.media_type_bins.get(record.media_type)
        if type_bin is None:
            type_bin = self.media_type_bins[record.media_type] = TimeBinner(self.bin_width)
        type_bin.add(record.timestamp, record.payload_len)

    def flow_rate_series(self, five_tuple: FiveTuple) -> list[tuple[float, float]]:
        """(bin start, bits/s) series for one flow."""
        binner = self.flow_bins.get(five_tuple)
        if binner is None:
            return []
        return [(when, 8.0 * rate) for when, rate in binner.rates()]

    def stream_rate_series(
        self, five_tuple: FiveTuple, ssrc: int
    ) -> list[tuple[float, float]]:
        """(bin start, bits/s) media-rate series for one stream."""
        binner = self.stream_bins.get((five_tuple, ssrc))
        if binner is None:
            return []
        return [(when, 8.0 * rate) for when, rate in binner.rates()]

    def media_type_rate_series(self, media_type: int) -> list[tuple[float, float]]:
        """(bin start, bits/s) aggregated over all streams of one type —
        the series behind Figure 14."""
        binner = self.media_type_bins.get(media_type)
        if binner is None:
            return []
        return [(when, 8.0 * rate) for when, rate in binner.rates()]

    def stream_rate_values(self, five_tuple: FiveTuple, ssrc: int) -> list[float]:
        """Per-bin media bit rates of one stream (for the Figure 15a CDF)."""
        binner = self.stream_bins.get((five_tuple, ssrc))
        if binner is None:
            return []
        return [8.0 * total / self.bin_width for total in binner.values()]

    def merge_from(self, other: "BitrateMeter") -> None:
        """Fold another meter's bins into this one (sharded-result merge)."""
        for table_name in ("flow_bins", "stream_bins", "media_type_bins"):
            mine: dict = getattr(self, table_name)
            theirs: dict = getattr(other, table_name)
            for key, binner in theirs.items():
                target = mine.get(key)
                if target is None:
                    target = mine[key] = TimeBinner(self.bin_width)
                target.merge_from(binner)
