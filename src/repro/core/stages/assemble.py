"""Assembly stage: packet records → streams and meetings, then the record hooks.

Routes each record into the stream table, runs the §4.3 grouping heuristic
at stream-open time, and then calls every hook in the analyzer's
``record_hooks`` as ``hook(record, stream_key, opened, meeting_formed)`` —
after the stream table and grouper have seen the record and before the
metrics stage does, because a window the hook closes reads live stream
state.  The known-stream set lives here — eviction goes through
:meth:`repro.core.pipeline.ZoomAnalyzer.evict_stream`, never by poking this
state from outside.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.stages.base import PacketContext
from repro.core.streams import RTPPacketRecord, StreamKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisResult

#: ``hook(record, stream_key, opened, meeting_formed)``: ``opened`` is true
#: on a stream's first record, ``meeting_formed`` when that record also
#: opened a new meeting.
RecordHook = Callable[[RTPPacketRecord, StreamKey, bool, bool], None]


class AssembleStage:
    """Stream-table and meeting-grouper maintenance."""

    name = "assemble"

    def __init__(self, result: "AnalysisResult", hooks: list[RecordHook]) -> None:
        self._result = result
        self._hooks = hooks
        self._telemetry = result.telemetry
        self._known_streams: set[StreamKey] = set()

    def process(self, ctx: PacketContext) -> bool:
        result = self._result
        record = ctx.record
        assert record is not None
        stream = result.streams.observe(record)
        key = record.stream_key
        if key not in self._known_streams:
            self._known_streams.add(key)
            self._telemetry.count("assemble.stream_opened")
            grouper = result.grouper
            formed = grouper.meetings_formed
            grouper.observe_new_stream(stream, result.streams)
            meeting_formed = grouper.meetings_formed != formed
            if meeting_formed:
                self._telemetry.count("assemble.meetings_formed")
            for hook in self._hooks:
                hook(record, key, True, meeting_formed)
        else:
            result.grouper.observe_stream_update(stream)
            for hook in self._hooks:
                hook(record, key, False, False)
        return True

    def forget(self, key: StreamKey) -> bool:
        """Drop a stream from the known set (eviction support); returns
        whether it was known.  The next packet with this key reopens the
        stream as new."""
        if key in self._known_streams:
            self._known_streams.discard(key)
            return True
        return False
