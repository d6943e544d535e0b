"""Tumbling-window aggregation of the live analysis event stream.

The rolling analyzer answers "what happened since the process started"; an
operator dashboard needs "what happened in the last N seconds".
:class:`WindowAggregator` is an :class:`~repro.core.events.AnalysisSink`
that folds stream/meeting events — plus each batch's frame sizes for
whole-traffic totals — into tumbling windows of *capture time*, each
summarizing per-media-type traffic and quality.  Batches enter the
analyzer *through* the aggregator (:meth:`WindowAggregator.ingest`), which
owns the volume → feed → watermark ordering.

Window lifecycle is watermark-based, the standard trick for out-of-order
tolerance with bounded state: the watermark trails the newest event
timestamp by ``lateness`` seconds, any window ending at or before the
watermark is closed and emitted, and events older than the watermark are
counted (``service.late_events``) and dropped rather than re-opening a
closed window.  A hard cap on simultaneously open windows
(``max_open_windows``) force-closes the oldest beyond it, so a capture with
a wildly wrong clock cannot grow aggregator memory without bound.

Quality metrics (frame rate, jitter, loss) are *stream-cumulative* values
sampled at window close — from streams evicted inside the window and, via
:func:`~repro.core.rolling.live_stream_snapshots`, from streams still
open.  Counting metrics (packets, bytes, bitrate, stream and meeting
counts) are exact per window; summed over all emitted windows they
reproduce the one-pass analyzer's totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.events import (
    AnalysisSink,
    MeetingFormed,
    StreamEvicted,
    StreamOpened,
    StreamUpdated,
)
from repro.core.rolling import FinalizedStream, live_stream_snapshots, summarize_stream
from repro.core.streams import StreamKey
from repro.telemetry.registry import Telemetry
from repro.zoom.constants import ZoomMediaType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import ZoomAnalyzer
    from repro.net.batch import FrameBatch

_MEDIA_NAMES = {
    int(ZoomMediaType.AUDIO): "audio",
    int(ZoomMediaType.VIDEO): "video",
    int(ZoomMediaType.SCREEN_SHARE): "screen",
}


def media_name(media_type: int) -> str:
    """Human label for a Zoom media-encapsulation type."""
    return _MEDIA_NAMES.get(media_type, f"type{media_type}")


@dataclass
class MediaWindowStats:
    """One media type's aggregate inside one window."""

    media_type: int
    packets: int = 0
    bytes: int = 0
    streams_opened: int = 0
    stream_keys: set[StreamKey] = field(default_factory=set)
    p2p_packets: int = 0
    # Filled at close from evicted + live stream summaries.
    mean_fps: float = float("nan")
    mean_jitter_ms: float = float("nan")
    lost: int = 0
    duplicates: int = 0

    def bitrate_bps(self, window_seconds: float) -> float:
        return self.bytes * 8.0 / window_seconds

    def to_dict(self, window_seconds: float) -> dict:
        return {
            "media": media_name(self.media_type),
            "packets": self.packets,
            "bytes": self.bytes,
            "bitrate_bps": round(self.bitrate_bps(window_seconds), 3),
            "streams": len(self.stream_keys),
            "streams_opened": self.streams_opened,
            "p2p_packets": self.p2p_packets,
            "mean_fps": None if math.isnan(self.mean_fps) else round(self.mean_fps, 3),
            "mean_jitter_ms": (
                None
                if math.isnan(self.mean_jitter_ms)
                else round(self.mean_jitter_ms, 3)
            ),
            "lost": self.lost,
            "duplicates": self.duplicates,
        }


@dataclass
class WindowRecord:
    """One closed tumbling window, ready for export."""

    index: int
    start: float
    end: float
    packets_total: int = 0
    bytes_total: int = 0
    zoom_packets: int = 0
    meetings_formed: int = 0
    meetings_active: int = 0
    streams_evicted: int = 0
    forced: bool = False
    media: dict[int, MediaWindowStats] = field(default_factory=dict)

    @property
    def width(self) -> float:
        return self.end - self.start

    def media_stats(self, media_type: int) -> MediaWindowStats:
        stats = self.media.get(media_type)
        if stats is None:
            stats = self.media[media_type] = MediaWindowStats(media_type)
        return stats

    def to_dict(self) -> dict:
        return {
            "window": self.index,
            "start": self.start,
            "end": self.end,
            "packets_total": self.packets_total,
            "bytes_total": self.bytes_total,
            "zoom_packets": self.zoom_packets,
            "meetings_formed": self.meetings_formed,
            "meetings_active": self.meetings_active,
            "streams_evicted": self.streams_evicted,
            "forced": self.forced,
            "media": [
                self.media[media_type].to_dict(self.width)
                for media_type in sorted(self.media)
            ],
        }


class WindowAggregator(AnalysisSink):
    """Fold analysis events into tumbling capture-time windows.

    Args:
        analyzer: The (rolling-mode) analyzer :meth:`ingest` feeds and
            whose event bus this sink registers on; also queried for
            live-stream summaries when a window closes.
        window_seconds: Tumbling window width.
        lateness: Watermark lag — how long a window stays open after
            capture time passes its end (absorbs file-rotation reordering).
        max_open_windows: Bound on open-window state; the oldest windows
            are force-closed beyond it.
        on_window: Callbacks invoked with each closed :class:`WindowRecord`
            in start order (exporters register here).
        telemetry: Optional registry for ``service.*`` counters.
    """

    def __init__(
        self,
        analyzer: "ZoomAnalyzer",
        *,
        window_seconds: float = 10.0,
        lateness: float = 5.0,
        max_open_windows: int = 64,
        on_window: Iterable[Callable[[WindowRecord], None]] = (),
        telemetry: Telemetry | None = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        self._analyzer = analyzer
        self.window_seconds = window_seconds
        self.lateness = lateness
        self.max_open_windows = max_open_windows
        self._on_window = list(on_window)
        self._telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self._open: dict[int, WindowRecord] = {}
        self._watermark = float("-inf")
        self._max_event_time = float("-inf")
        self._evicted_summaries: list[FinalizedStream] = []
        self.windows_emitted = 0
        self.late_events = 0
        analyzer.bus.register(self)

    # ----------------------------------------------------------- ingestion

    def ingest(self, batch: "FrameBatch") -> None:
        """Account one batch's volume, feed it to the analyzer, move time on.

        Ordering matters: volume first *without* moving the watermark (the
        event bus only ever sees Zoom-classified packets, so this is what
        makes a window's ``packets_total``/``bytes_total`` exact), then the
        feed (whose stream events must land in still-open windows), then one
        watermark advance to the batch's end.  Both window totals and
        per-window stream stats stay exact; windows just close at batch
        rather than packet granularity.  Volume reads the batch's
        timestamp/caplen columns — no ``ParsedPacket`` is built for frames
        the prefilter drops.
        """
        prepared = batch.prepared
        if prepared is not None:
            for parsed in prepared:
                self._observe_volume(parsed.timestamp, len(parsed.raw))
        else:
            timestamps = batch.timestamps
            caplens = batch.caplens
            for i in range(len(caplens)):
                self._observe_volume(timestamps[i], caplens[i])
        self._analyzer.feed_batch(batch)
        self._advance_watermark(batch.last_timestamp)

    def on_stream_opened(self, event: StreamOpened) -> None:
        window = self._window_for(event.timestamp)
        if window is not None:
            stats = window.media_stats(event.record.media_type)
            stats.streams_opened += 1
            self._count_record(window, stats, event)
        self._advance_watermark(event.timestamp)

    def on_stream_updated(self, event: StreamUpdated) -> None:
        window = self._window_for(event.timestamp)
        if window is not None:
            self._count_record(
                window, window.media_stats(event.record.media_type), event
            )
        self._advance_watermark(event.timestamp)

    def on_meeting_formed(self, event: MeetingFormed) -> None:
        window = self._window_for(event.timestamp)
        if window is not None:
            window.meetings_formed += 1
        self._advance_watermark(event.timestamp)

    def on_stream_evicted(self, event: StreamEvicted) -> None:
        # The event's timestamp is the stream's last activity, which by
        # definition of idle eviction lies an idle-timeout in the past —
        # usually in a window already closed.  The eviction *count* is
        # therefore attributed to the window being processed now, and the
        # closing summary joins a bounded buffer that quality fill-in
        # consults for every window the stream's lifetime overlaps.
        summary = summarize_stream(event.stream, event.metrics)
        self._evicted_summaries.append(summary)
        if self._max_event_time > float("-inf"):
            window = self._window_for(self._max_event_time)
            if window is not None:
                window.streams_evicted += 1

    # ------------------------------------------------------------- closing

    def flush(self, *, final: bool = False) -> list[WindowRecord]:
        """Close every window the watermark has passed; ``final=True``
        closes all of them (shutdown path).  Idempotent: a window is
        emitted exactly once.  Returns the records closed by this call.
        """
        if final:
            self._watermark = float("inf")
        closed: list[WindowRecord] = []
        for index in sorted(self._open):
            window = self._open[index]
            if window.end <= self._watermark:
                closed.append(self._close(index))
        return closed

    def open_window_count(self) -> int:
        return len(self._open)

    def add_callback(self, callback: Callable[[WindowRecord], None]) -> None:
        self._on_window.append(callback)

    # ----------------------------------------------------------- internals

    def _observe_volume(self, timestamp: float, raw_len: int) -> None:
        window = self._window_for(timestamp)
        if window is None:
            return
        window.packets_total += 1
        window.bytes_total += raw_len

    def _count_record(
        self, window: WindowRecord, stats: MediaWindowStats, event: StreamOpened
    ) -> None:
        window.zoom_packets += 1
        stats.packets += 1
        stats.bytes += event.record.payload_len
        stats.stream_keys.add(event.stream.key)
        if event.record.is_p2p:
            stats.p2p_packets += 1

    def _window_for(self, timestamp: float) -> WindowRecord | None:
        index = int(timestamp // self.window_seconds)
        # Late = the window this timestamp belongs to has already been
        # closed by the watermark (comparing window end, not the raw
        # timestamp, keeps exact-boundary events out of the late bucket).
        if (index + 1) * self.window_seconds <= self._watermark:
            self.late_events += 1
            self._telemetry.count("service.late_events")
            return None
        window = self._open.get(index)
        if window is None:
            window = WindowRecord(
                index=index,
                start=index * self.window_seconds,
                end=(index + 1) * self.window_seconds,
            )
            self._open[index] = window
            while len(self._open) > self.max_open_windows:
                oldest = min(self._open)
                self._open[oldest].forced = True
                self._telemetry.count("service.windows_forced")
                self._close(oldest)
        return window

    def _advance_watermark(self, timestamp: float) -> None:
        if timestamp <= self._max_event_time:
            return
        self._max_event_time = timestamp
        watermark = timestamp - self.lateness
        if watermark > self._watermark:
            self._watermark = watermark
            self.flush()

    def _close(self, index: int) -> WindowRecord:
        window = self._open.pop(index)
        self._fill_quality(window)
        self.windows_emitted += 1
        self._telemetry.count("service.windows")
        # Evicted-stream summaries older than any window that can still
        # close are of no further use; pruning here is what keeps the
        # buffer bounded over an unbounded run.
        horizon = window.start
        self._evicted_summaries = [
            summary for summary in self._evicted_summaries if summary.last_time >= horizon
        ]
        for callback in self._on_window:
            callback(window)
        return window

    def _fill_quality(self, window: WindowRecord) -> None:
        """Per-media quality from streams that overlap the window.

        Uses the summaries of streams evicted *in* the window plus live
        snapshots of still-open streams whose activity spans it.  The
        estimators are stream-cumulative (that is what the rolling analyzer
        maintains), so these are "as of this window" values, not
        window-local deltas — documented behavior, and exactly what a
        dashboard gauge wants.
        """
        overlapping: dict[int, list[FinalizedStream]] = {}
        candidates = self._evicted_summaries + live_stream_snapshots(
            self._analyzer.result
        )
        for summary in candidates:
            if summary.first_time < window.end and summary.last_time >= window.start:
                overlapping.setdefault(summary.media_type, []).append(summary)
        for media_type, stats in window.media.items():
            summaries = overlapping.get(media_type, ())
            fps = [s.mean_fps for s in summaries if not math.isnan(s.mean_fps)]
            jitter = [s.jitter_ms for s in summaries if not math.isnan(s.jitter_ms)]
            if fps:
                stats.mean_fps = sum(fps) / len(fps)
            if jitter:
                stats.mean_jitter_ms = sum(jitter) / len(jitter)
            stats.lost = sum(s.lost for s in summaries)
            stats.duplicates = sum(s.duplicates for s in summaries)
        window.meetings_active = sum(
            1
            for meeting in self._analyzer.result.meetings
            if meeting.first_time < window.end and meeting.last_time >= window.start
        )
