"""Metrics stage: per-stream §5 estimators, bit-rate bins, latency matching.

Creates the :class:`~repro.core.pipeline.StreamMetrics` bundle lazily per
stream key (so an evicted stream that resumes gets a fresh bundle) and
routes every record through it, the per-stream and per-media-type 1-second
bit-rate bins (:meth:`~repro.core.metrics.bitrate.BitrateMeter.observe_media`)
and the Method-1 latency matcher.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.stages.base import PacketContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisResult


class MetricsStage:
    """Per-stream metric estimation (§5)."""

    name = "metrics"

    def __init__(self, result: "AnalysisResult") -> None:
        self._result = result
        self._observe_media = result.bitrate.observe_media
        # Deferred import: repro.core.pipeline imports this module at its top.
        from repro.core.pipeline import StreamMetrics

        self._metrics_factory = StreamMetrics.for_media_type

    def process(self, ctx: PacketContext) -> bool:
        result = self._result
        record = ctx.record
        assert record is not None
        key = record.stream_key
        metrics = result.stream_metrics.get(key)
        if metrics is None:
            metrics = result.stream_metrics[key] = self._metrics_factory(
                record.media_type
            )
        metrics.observe(record)
        self._observe_media(record)
        result.rtp_latency.observe(record)
        return True
