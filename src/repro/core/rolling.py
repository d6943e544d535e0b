"""Bounded-memory continuous analysis for 24/7 operation.

A one-pass :class:`~repro.core.pipeline.ZoomAnalyzer` retains every stream
and meeting it ever saw — fine for a trace file, unbounded for a permanent
border tap.  With ``AnalyzerConfig(rolling=True)`` the analyzer owns an
:class:`IdleEviction` policy (``analyzer.eviction``) and consults it once
per :meth:`~repro.core.pipeline.ZoomAnalyzer.feed_batch`: streams idle
longer than the rolling window are finalized through the public
:meth:`~repro.core.pipeline.ZoomAnalyzer.evict_stream` API, which hands the
stream's :class:`FinalizedStream` summary to the analyzer's
``eviction_hooks`` (store, service windows, QoE tracker).  Meetings
whose last stream is gone follow, and long-lived shared state (the latency
matcher's pending table, the STUN tracker) is already bounded by design.

This addresses the operational gap between the paper's 12-hour offline study
and a deployment that never stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.streams import MediaStream, StreamKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisResult, StreamMetrics, ZoomAnalyzer


@dataclass(slots=True)
class FinalizedStream:
    """Everything retained about a stream at eviction time.

    One is also built for every stream active in a closing window
    (:func:`live_stream_snapshots`), so it is a plain slotted record: a
    frozen dataclass pays one ``object.__setattr__`` call per field.
    """

    key: StreamKey
    ssrc: int
    media_type: int
    first_time: float
    last_time: float
    packets: int
    bytes: int
    frames_completed: int
    mean_fps: float
    jitter_ms: float
    duplicates: int
    lost: int
    stall_count: int
    protocol: str = "zoom"


def summarize_stream(
    stream: MediaStream,
    metrics: "StreamMetrics | None",
    *,
    finalize: bool = False,
) -> FinalizedStream:
    """One :class:`FinalizedStream` record from a stream + its estimators.

    ``finalize=True`` closes out the loss trackers (eviction path);
    ``finalize=False`` reads them non-destructively (live snapshots).
    """
    if metrics is None:
        frames = duplicates = lost = stalls = 0
        mean_fps = jitter_ms = float("nan")
    else:
        loss = metrics.loss.report(finalize=finalize)
        frames = metrics.assembler.completed_count
        duplicates, lost = loss.duplicates, loss.lost
        stalls = metrics.stall_count
        mean_fps = metrics.framerate_delivered.mean_fps
        jitter_ms = metrics.jitter.jitter * 1000
    return FinalizedStream(
        key=stream.key,
        ssrc=stream.key[1],
        media_type=stream.media_type,
        first_time=stream.first_time,
        last_time=stream.last_time,
        packets=stream.packets,
        bytes=stream.bytes,
        frames_completed=frames,
        mean_fps=mean_fps,
        jitter_ms=jitter_ms,
        duplicates=duplicates,
        lost=lost,
        stall_count=stalls,
        protocol=stream.protocol,
    )


def live_stream_snapshots(
    result: "AnalysisResult", *, start: float = float("-inf"), end: float = float("inf")
) -> list[FinalizedStream]:
    """Point-in-time summaries of every still-open stream active in
    ``[start, end)`` (by default, all of them).

    The same shape eviction produces, but without finalizing anything —
    the windowed aggregator uses these to report on streams that span a
    closing window, and a dashboard can poll them for a live table.
    """
    return [
        summarize_stream(stream, result.stream_metrics.get(stream.key))
        for stream in result.streams
        if stream.first_time < end and stream.last_time >= start
    ]


class IdleEviction:
    """The idle-stream eviction policy of a rolling-mode analyzer.

    Built by :class:`~repro.core.pipeline.ZoomAnalyzer` when
    ``config.rolling`` is set.  The window comes from
    ``rolling_idle_timeout`` (seconds of inactivity before a stream is
    finalized) and ``rolling_sweep_interval`` (how often, in capture time,
    to scan for idle streams).  The policy adds its own ``rolling.*``
    counters (sweeps, retained-state size); eviction reasons land under
    ``pipeline.evicted.*`` via the shared eviction path.

    Attributes:
        streams_evicted: How many streams
            :meth:`~repro.core.pipeline.ZoomAnalyzer.evict_stream` has
            finalized so far.
    """

    def __init__(self, analyzer: "ZoomAnalyzer") -> None:
        self.idle_timeout = analyzer.config.rolling_idle_timeout
        self.sweep_interval = analyzer.config.rolling_sweep_interval
        self.streams_evicted = 0
        self._last_sweep = float("-inf")
        self._analyzer = analyzer

    def after_batch(self, now: float) -> None:
        """Sweep if a sweep interval of capture time has passed.

        Checked once per batch (against the batch's last timestamp), not
        per packet.  Capture timestamps are monotone-enough in practice
        that this only ever *delays* a sweep by at most one batch of
        capture time — eviction idle timeouts dwarf that — and it keeps the
        sweep check off the per-frame fast path.
        """
        if now - self._last_sweep >= self.sweep_interval:
            self.sweep(now)

    def sweep(self, now: float) -> int:
        """Finalize and evict streams idle since ``now - idle_timeout``.

        Applies uniformly to server-relayed and P2P streams — a P2P stream
        stays live for exactly as long as its packets keep being classified
        (active flows refresh their STUN binding in the detector), so idle
        eviction is the one timeout that ends it.  The sweep also purges
        expired STUN bindings: expiry is otherwise lazy per endpoint, and
        endpoints that never sent media would accumulate forever in a 24/7
        deployment.  Returns the number of streams evicted.
        """
        self._last_sweep = now
        analyzer = self._analyzer
        live = analyzer.result.streams.streams()
        stale = [
            stream for stream in live if now - stream.last_time > self.idle_timeout
        ]
        # Every plugin's endpoint state ages out here (the Zoom plugin's
        # purge is the detector's STUN tracker; the generic RTP plugin has
        # its own tracker).
        purged = sum(plugin.purge(now) for plugin in analyzer.plugins)
        tel = analyzer.result.telemetry
        if tel.enabled:
            tel.count("rolling.sweeps")
            tel.record_max("rolling.live_streams_peak", len(live))
            tel.observe("rolling.live_streams", len(live))
            if purged:
                tel.count("rolling.stun_purged", purged)
        for stream in stale:
            analyzer.evict_stream(stream.key, reason="idle")
        return len(stale)
