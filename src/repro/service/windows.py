"""Tumbling-window aggregation of the live analysis.

The rolling analyzer answers "what happened since the process started"; an
operator dashboard needs "what happened in the last N seconds".
:class:`WindowAggregator` hooks into the analyzer (``record_hooks`` and
``eviction_hooks``) and folds decoded records, formed meetings and evicted
streams — plus each batch's frame sizes for whole-traffic totals — into
tumbling windows of *capture time*, each
summarizing per-media-type traffic and quality.  Batches enter the
analyzer *through* the aggregator (:meth:`WindowAggregator.ingest`), which
owns the volume → feed → watermark ordering.

Window lifecycle is the shared watermark clock,
:class:`~repro.core.windows.TumblingWindows` (the standard trick for
out-of-order tolerance with bounded state): the watermark trails the newest
timestamp by ``lateness`` seconds, any window ending at or before the
watermark is closed and emitted, and input whose window is already behind
the watermark is counted (``service.late_events``) and dropped rather than
re-opening a closed window.  A hard cap on simultaneously open windows
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

from repro.core.rolling import FinalizedStream, live_stream_snapshots
from repro.core.streams import RTPPacketRecord, StreamKey
from repro.core.windows import TumblingWindows
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


# ---------------------------------------------------------------- schema
#
# The window record's wire shape, declared once.  ``to_dict`` below emits
# exactly these fields in this order, and :mod:`repro.store.merge` reads the
# same tables to combine records (``--reaggregate``, fleet merges), so a
# field added here is serialized *and* merged without touching either.

#: Merge rules: exact sum; maximum (a point-in-time census, not an event
#: count); logical OR; mean of a rounded, nullable quality value weighted by
#: the entry's :data:`WEIGHT_FIELD`; bits per second of the entry's
#: :data:`RATE_FIELD` over the record's width.
SUM, MAX, ANY, MEAN, RATE = "sum", "max", "any", "mean", "rate"
WEIGHT_FIELD = "packets"
RATE_FIELD = "bytes"

#: Top-level fields (after the ``window``/``start``/``end`` identity).
WINDOW_SCHEMA: dict[str, str] = {
    "packets_total": SUM,
    "bytes_total": SUM,
    "zoom_packets": SUM,
    "meetings_formed": SUM,
    "meetings_active": MAX,
    "streams_evicted": SUM,
    "forced": ANY,
}

#: Per-media-entry fields (after the ``media`` name).
MEDIA_SCHEMA: dict[str, str] = {
    "packets": SUM,
    "bytes": SUM,
    "bitrate_bps": RATE,
    "streams": MAX,
    "streams_opened": SUM,
    "p2p_packets": SUM,
    "mean_fps": MEAN,
    "mean_jitter_ms": MEAN,
    "lost": SUM,
    "duplicates": SUM,
}


def rate_bps(total_bytes: int, seconds: float) -> float:
    """The :data:`RATE` rule: bits per second, at the wire precision."""
    return round(total_bytes * 8.0 / seconds, 3)


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

    @property
    def streams(self) -> int:
        return len(self.stream_keys)

    def bitrate_bps(self, window_seconds: float) -> float:
        return self.bytes * 8.0 / window_seconds

    def to_dict(self, window_seconds: float) -> dict:
        record: dict = {"media": media_name(self.media_type)}
        for name, rule in MEDIA_SCHEMA.items():
            if rule == RATE:
                record[name] = rate_bps(getattr(self, RATE_FIELD), window_seconds)
            elif rule == MEAN:
                value = getattr(self, name)
                record[name] = None if math.isnan(value) else round(value, 3)
            else:
                record[name] = getattr(self, name)
        return record


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
        record: dict = {"window": self.index, "start": self.start, "end": self.end}
        for name in WINDOW_SCHEMA:
            record[name] = getattr(self, name)
        record["media"] = [
            self.media[media_type].to_dict(self.width)
            for media_type in sorted(self.media)
        ]
        return record


class WindowAggregator:
    """Fold the analyzer's records and evictions into tumbling capture-time
    windows.

    Args:
        analyzer: The (rolling-mode) analyzer :meth:`ingest` feeds and
            whose record and eviction hooks this aggregator joins; also
            queried for live-stream summaries when a window closes.
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
        self._analyzer = analyzer
        self._windows: TumblingWindows[WindowRecord] = TumblingWindows(
            window_seconds,
            lateness,
            self._new_window,
            self._close,
            max_open=max_open_windows,
        )
        self._on_window = list(on_window)
        self._telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self._evicted_summaries: list[FinalizedStream] = []
        self.windows_emitted = 0
        self.late_events = 0
        analyzer.record_hooks.append(self._on_record)
        analyzer.eviction_hooks.append(self._on_evicted)

    # ----------------------------------------------------------- ingestion

    def ingest(self, batch: "FrameBatch") -> None:
        """Account one batch's volume, feed it to the analyzer, move time on.

        Ordering matters: volume first *without* moving the watermark (the
        record hook only ever sees decoded media packets, so this is what
        makes a window's ``packets_total``/``bytes_total`` exact), then the
        feed (whose records must land in still-open windows), then one
        watermark advance to the batch's end.  Both window totals and
        per-window stream stats stay exact; windows just close at batch
        rather than packet granularity.  Volume reads the batch's
        timestamp/caplen columns — no ``ParsedPacket`` is built for frames
        the prefilter drops.
        """
        timestamps = batch.timestamps
        caplens = batch.caplens
        for i in range(len(caplens)):
            self._observe_volume(timestamps[i], caplens[i])
        self._analyzer.feed_batch(batch)
        self._windows.advance(batch.last_timestamp)

    def finish(self) -> list[WindowRecord]:
        """End of input: finalize every live stream, then close every
        window exactly once.  The sweep comes first so the evictions it
        makes still land in an open window.  Returns the windows this call
        closed.
        """
        self._analyzer.eviction.sweep(float("inf"))
        return self.flush(final=True)

    def _on_record(
        self,
        record: RTPPacketRecord,
        key: StreamKey,
        opened: bool,
        meeting_formed: bool,
    ) -> None:
        """Count one decoded record (and the meeting it formed) in its window.

        A formed meeting and its opening record share a timestamp and so a
        window; when that window is late, each counts as one late input.
        """
        timestamp = record.timestamp
        window = self._windows.slot(timestamp)
        if window is None:
            self._count_late()
            if meeting_formed:
                self._count_late()
        else:
            window.meetings_formed += meeting_formed
            window.zoom_packets += 1
            stats = window.media_stats(record.media_type)
            stats.streams_opened += opened
            stats.packets += 1
            stats.bytes += record.payload_len
            stats.stream_keys.add(key)
            if record.is_p2p:
                stats.p2p_packets += 1
        self._windows.advance(timestamp)

    def _on_evicted(self, summary: FinalizedStream) -> None:
        # The stream's last activity lies, by definition of idle eviction,
        # an idle-timeout in the past — usually in a window already closed.
        # The eviction *count* is therefore attributed to the window being
        # processed now, and the closing summary joins a bounded buffer
        # that quality fill-in consults for every window the stream's
        # lifetime overlaps.
        self._evicted_summaries.append(summary)
        now = self._windows.max_ts
        if now > float("-inf"):
            window = self._windows.slot(now)
            if window is None:
                self._count_late()
            else:
                window.streams_evicted += 1

    # ------------------------------------------------------------- closing

    def flush(self, *, final: bool = False) -> list[WindowRecord]:
        """Close every window the watermark has passed; ``final=True``
        closes all of them (shutdown path).  Idempotent: a window is
        emitted exactly once.  Returns the records closed by this call.
        """
        return self._windows.flush(final=final)

    def open_window_count(self) -> int:
        return len(self._windows)

    def add_callback(self, callback: Callable[[WindowRecord], None]) -> None:
        self._on_window.append(callback)

    # ----------------------------------------------------------- internals

    def _observe_volume(self, timestamp: float, raw_len: int) -> None:
        window = self._windows.slot(timestamp)
        if window is None:
            self._count_late()
            return
        window.packets_total += 1
        window.bytes_total += raw_len

    def _count_late(self) -> None:
        self.late_events += 1
        self._telemetry.count("service.late_events")

    def _new_window(self, index: int) -> WindowRecord:
        width = self._windows.window_seconds
        return WindowRecord(index=index, start=index * width, end=(index + 1) * width)

    def _close(self, index: int, window: WindowRecord, forced: bool) -> None:
        if forced:
            window.forced = True
            self._telemetry.count("service.windows_forced")
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
            self._analyzer.result, start=window.start, end=window.end
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
