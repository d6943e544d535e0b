"""Assembly stage: packet records → streams and meetings, with lifecycle events.

Routes each record into the stream table, runs the §4.3 grouping heuristic
at stream-open time, and publishes :class:`StreamOpened`,
:class:`StreamUpdated`, and :class:`MeetingFormed` events.  The known-stream
set lives here — eviction goes through
:meth:`repro.core.pipeline.ZoomAnalyzer.evict_stream`, never by poking this
state from outside.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.events import MeetingFormed, StreamOpened, StreamUpdated
from repro.core.stages.base import PacketContext
from repro.core.streams import StreamKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import EventBus
    from repro.core.pipeline import AnalysisResult


class AssembleStage:
    """Stream-table and meeting-grouper maintenance."""

    name = "assemble"

    def __init__(self, result: "AnalysisResult", bus: "EventBus") -> None:
        self._result = result
        self._bus = bus
        self._telemetry = result.telemetry
        self._known_streams: set[StreamKey] = set()
        self._known_meetings: set[int] = set()

    def process(self, ctx: PacketContext) -> bool:
        result = self._result
        record = ctx.record
        assert record is not None
        stream = result.streams.observe(record)
        key = record.stream_key
        if key not in self._known_streams:
            self._known_streams.add(key)
            self._telemetry.count("assemble.stream_opened")
            meeting_id = result.grouper.observe_new_stream(stream, result.streams)
            if meeting_id not in self._known_meetings:
                self._known_meetings.add(meeting_id)
                self._telemetry.count("assemble.meetings_formed")
                meeting = result.grouper.meeting_of(key)
                if meeting is not None:
                    self._bus.emit(
                        MeetingFormed(timestamp=record.timestamp, meeting=meeting)
                    )
            self._bus.emit(
                StreamOpened(timestamp=record.timestamp, stream=stream, record=record)
            )
        else:
            result.grouper.observe_stream_update(stream)
            self._bus.emit(
                StreamUpdated(timestamp=record.timestamp, stream=stream, record=record)
            )
        return True

    def forget(self, key: StreamKey) -> bool:
        """Drop a stream from the known set (eviction support); returns
        whether it was known.  The next packet with this key reopens the
        stream as new."""
        if key in self._known_streams:
            self._known_streams.discard(key)
            return True
        return False
