"""The one-call front door: ``AnalysisSession(config).run(source)``.

Every ingestion kind (pcap file, pcapng file, capture directory, simulated
meeting, in-memory packets) goes through one analyzer; the
:class:`~repro.core.config.AnalyzerConfig` alone says how it executes
(single pass, rolling eviction, flow-sharded, with or without QoE
tracking).  The session validates that combination, attaches the QoE
tracker, and runs it; one telemetry registry covers the reader and the
analysis so ``--stats`` style reports cover the whole path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import AnalyzerConfig
from repro.core.pipeline import AnalysisResult, ZoomAnalyzer
from repro.core.sharded import ShardedAnalyzer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.source import SourceLike
    from repro.qoe.tracker import MeetingQoeTracker


class AnalysisSession:
    """Run one analysis pass described entirely by an :class:`AnalyzerConfig`.

    ``config.shards > 1`` partitions across a
    :class:`~repro.core.sharded.ShardedAnalyzer`; otherwise one
    :class:`~repro.core.pipeline.ZoomAnalyzer` runs, with idle-stream
    eviction when ``config.rolling`` is set.  The two are mutually
    exclusive — a sharded run keeps whole-capture state by design.

    Usage::

        session = AnalysisSession(AnalyzerConfig(campus_subnets=("10.8.0.0/16",)))
        result = session.run("trace.pcap")                   # any capture file
        result = session.run(CaptureDirectorySource("caps/"))
        result = session.run(SimulationSource(meeting_config))
    """

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config if config is not None else AnalyzerConfig()
        if self.config.rolling and self.config.shards > 1:
            raise ValueError("rolling eviction and sharding are mutually exclusive")
        if (
            self.config.qoe is not None
            and self.config.qoe.enabled
            and self.config.shards > 1
        ):
            # Shards see disjoint flow partitions of a meeting, so no shard
            # holds the whole meeting's window — QoE needs the unsharded view.
            raise ValueError("QoE tracking and sharding are mutually exclusive")
        #: The meeting QoE tracker of the last :meth:`run`, when configured.
        self.qoe: "MeetingQoeTracker | None" = None

    def run(self, source: "SourceLike") -> AnalysisResult:
        """Ingest ``source`` as the config describes; returns the result.

        ``source`` may be a :class:`~repro.net.source.PacketSource`, a
        capture-file path (format sniffed from magic bytes), or an iterable
        of captured/parsed packets.  The run's telemetry registry is
        threaded into the source so capture counters and pipeline counters
        land in one report.
        """
        config = self.config
        if config.shards > 1:
            return ShardedAnalyzer(config).run(source)
        analyzer = ZoomAnalyzer(config)
        if config.qoe is not None and config.qoe.enabled:
            from repro.qoe.tracker import MeetingQoeTracker

            self.qoe = MeetingQoeTracker(analyzer, config.qoe)
        result = analyzer.run(source)
        if self.qoe is not None:
            # Score the tail windows no later packet will ever watermark out.
            self.qoe.flush(final=True)
        return result
