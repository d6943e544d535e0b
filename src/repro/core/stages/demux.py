"""Demux stage: claimed media payloads → normalized RTP records.

Dispatches each media-class packet to the plugin that claimed it in the
classify stage; the plugin's :meth:`~repro.protocols.base.ProtocolPlugin.
dissect` decodes the payload (Zoom's proprietary SFU/media encapsulations
of §4.2, or plain RFC 3550 RTP/RTCP for the generic plugin), maintains the
Table-2/Table-3 counters, routes RTCP reports to the bus, and emits the
:class:`~repro.core.streams.RTPPacketRecord` the assembly and metrics
stages consume.

The class keeps its historical name and ``"zoom-demux"`` stage name: the
``pipeline.stop.zoom-demux`` counter is pinned by the golden snapshots, and
with the default registry the dispatch *is* the Zoom demux.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.events import FlowBytesObserved
from repro.core.stages.base import PacketContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import EventBus
    from repro.core.pipeline import AnalysisResult


class ZoomDemuxStage:
    """From claimed media-class UDP payloads to decoded RTP packet records."""

    name = "zoom-demux"

    def __init__(self, result: "AnalysisResult", bus: "EventBus") -> None:
        self._result = result
        self._bus = bus
        self._telemetry = result.telemetry

    def process(self, ctx: PacketContext) -> bool:
        parsed = ctx.parsed
        self._bus.emit(
            FlowBytesObserved(
                timestamp=parsed.timestamp,
                five_tuple=ctx.five_tuple,
                payload_len=len(parsed.payload),
            )
        )
        return ctx.plugin.dissect(ctx, self._result, self._bus, self._telemetry)
