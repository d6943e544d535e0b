"""Demux stage: claimed media payloads → normalized RTP records.

Counts each media-class packet's UDP payload into the flow-level bit-rate
bins, then dispatches it to the plugin that claimed it in the classify
stage; the plugin's :meth:`~repro.protocols.base.ProtocolPlugin.dissect`
decodes the payload (Zoom's proprietary SFU/media encapsulations of §4.2,
or plain RFC 3550 RTP/RTCP for the generic plugin), maintains the
Table-2/Table-3 counters, feeds RTCP sender reports to the clock-sync
collector, and emits the :class:`~repro.core.streams.RTPPacketRecord` the
assembly and metrics stages consume.

The class keeps its historical name and ``"zoom-demux"`` stage name: the
``pipeline.stop.zoom-demux`` counter is pinned by the golden snapshots, and
with the default registry the dispatch *is* the Zoom demux.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.stages.base import PacketContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisResult


class ZoomDemuxStage:
    """From claimed media-class UDP payloads to decoded RTP packet records."""

    name = "zoom-demux"

    def __init__(self, result: "AnalysisResult") -> None:
        self._result = result
        self._observe_flow_bytes = result.bitrate.observe_flow_bytes
        self._telemetry = result.telemetry

    def process(self, ctx: PacketContext) -> bool:
        parsed = ctx.parsed
        self._observe_flow_bytes(ctx.five_tuple, parsed.timestamp, len(parsed.payload))
        return ctx.plugin.dissect(ctx, self._result, self._telemetry)
