"""The store's record vocabulary: windows, streams, meetings as plain dicts.

Three record kinds flow into a :class:`~repro.store.store.MetricsStore`,
each a JSON-serializable dict carrying a uniform envelope — ``kind`` plus
``start``/``end`` capture-time bounds (what partitioning, footer indexes,
and time-range queries key on):

* ``window`` — one closed :class:`~repro.service.windows.WindowRecord`,
  exactly its JSONL shape plus the envelope, so the store and the JSONL
  window log stay byte-interchangeable (``repro backfill`` reads either).
* ``stream`` — one finalized stream summary
  (:class:`~repro.core.rolling.FinalizedStream`, or the equivalent built
  from a batch :class:`~repro.core.pipeline.AnalysisResult`).
* ``meeting`` — one meeting's identity and activity bounds, written at
  campaign end (live) or backfill time (batch).

NaN never reaches disk: unavailable quality values are stored as ``null``,
mirroring :meth:`WindowRecord.to_dict`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.core.rolling import summarize_stream
from repro.net.ip import ip_to_str
from repro.service.windows import WindowRecord, media_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.meetings import Meeting
    from repro.core.pipeline import AnalysisResult
    from repro.core.rolling import FinalizedStream

KINDS = ("window", "stream", "meeting")


def _clean(value: float | None) -> float | None:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    return value


def window_record(window: WindowRecord) -> dict:
    """A closed window in store form (its JSONL dict + the envelope)."""
    record = window.to_dict()
    record["kind"] = "window"
    return record


def window_record_from_jsonl(line_record: dict) -> dict:
    """Adopt one JSONL window-log object (it already is the window dict)."""
    if "start" not in line_record or "end" not in line_record:
        raise ValueError("not a window-log record: missing start/end bounds")
    record = dict(line_record)
    record["kind"] = "window"
    return record


def stream_record(summary: "FinalizedStream") -> dict:
    """A finalized stream summary in store form."""
    five_tuple = summary.key[0]
    return {
        "kind": "stream",
        "start": summary.first_time,
        "end": summary.last_time,
        "protocol": summary.protocol,
        "ssrc": summary.ssrc,
        "media": media_name(summary.media_type),
        "media_type": summary.media_type,
        "src": ip_to_str(five_tuple[0]),
        "sport": five_tuple[1],
        "dst": ip_to_str(five_tuple[2]),
        "dport": five_tuple[3],
        "packets": summary.packets,
        "bytes": summary.bytes,
        "frames_completed": summary.frames_completed,
        "mean_fps": _clean(summary.mean_fps),
        "jitter_ms": _clean(summary.jitter_ms),
        "duplicates": summary.duplicates,
        "lost": summary.lost,
        "stall_count": summary.stall_count,
    }


def meeting_record(meeting: "Meeting") -> dict:
    """A meeting summary in store form."""
    return {
        "kind": "meeting",
        "start": meeting.first_time,
        "end": meeting.last_time,
        "meeting_id": meeting.meeting_id,
        "streams": len(meeting.stream_uids),
        "participants": meeting.participant_estimate(),
    }


def records_from_result(result: "AnalysisResult") -> Iterable[dict]:
    """Stream + meeting records from a finished batch analysis.

    The batch counterpart of what the live service's
    :class:`~repro.store.sink.StoreSink` accumulates over a run: one
    ``stream`` record per media stream (summarized through the same
    estimator fields eviction reports) and one ``meeting`` record per
    formed meeting.  Windows only exist live — a batch result has no
    tumbling-window timeline — so backfilling windows goes through the
    service's JSONL log instead.
    """
    for stream in result.media_streams():
        yield stream_record(
            summarize_stream(stream, result.metrics_for(stream.key))
        )
    for meeting in result.meetings:
        yield meeting_record(meeting)
