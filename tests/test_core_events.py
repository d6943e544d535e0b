"""The event bus, sink registry, staged-analyzer event emission, and the
stages' direct feeds into bit-rate binning and RTCP clock sync."""

from __future__ import annotations

import pytest

from repro.core import ZoomAnalyzer
from repro.core.events import (
    AnalysisSink,
    EventBus,
    MeetingFormed,
    StreamEvicted,
    StreamOpened,
    StreamUpdated,
)

from tests.golden_utils import mixed_protocol_config, mixed_trace_captures


class _CountingSink(AnalysisSink):
    """Counts every event class it sees."""

    def __init__(self) -> None:
        self.opened = []
        self.updated = 0
        self.evicted = []
        self.meetings = []

    def on_stream_opened(self, event: StreamOpened) -> None:
        self.opened.append(event.stream.key)

    def on_stream_updated(self, event: StreamUpdated) -> None:
        self.updated += 1

    def on_stream_evicted(self, event: StreamEvicted) -> None:
        self.evicted.append(event)

    def on_meeting_formed(self, event: MeetingFormed) -> None:
        self.meetings.append(event.meeting.meeting_id)


def _analyze(captures):
    """A fresh analyzer with a counting sink registered, fed ``captures``."""
    analyzer, sink = ZoomAnalyzer(), _CountingSink()
    analyzer.bus.register(sink)
    return analyzer, sink, analyzer.analyze(captures)


class TestEventBus:
    def test_subscribe_and_emit(self):
        bus = EventBus()
        seen = []
        bus.subscribe(MeetingFormed, seen.append)
        event = MeetingFormed(timestamp=1.0, meeting=None)
        bus.emit(event)
        assert seen == [event]

    def test_emit_dispatches_by_exact_type(self):
        bus = EventBus()
        opened, updated = [], []
        bus.subscribe(StreamOpened, opened.append)
        bus.subscribe(StreamUpdated, updated.append)
        bus.emit(StreamOpened(timestamp=0.0, stream=None, record=None))
        assert len(opened) == 1 and not updated

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(MeetingFormed, seen.append)
        bus.unsubscribe(MeetingFormed, seen.append)
        bus.emit(MeetingFormed(timestamp=0.0, meeting=None))
        assert not seen
        assert not bus.has_subscribers(MeetingFormed)

    def test_handlers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(MeetingFormed, lambda e: order.append("a"))
        bus.subscribe(MeetingFormed, lambda e: order.append("b"))
        bus.emit(MeetingFormed(timestamp=0.0, meeting=None))
        assert order == ["a", "b"]


class TestAnalysisSink:
    def test_subscriptions_cover_only_overridden_hooks(self):
        class Partial(AnalysisSink):
            def on_stream_evicted(self, event):
                pass

        types = {event_type for event_type, _ in Partial().subscriptions()}
        assert types == {StreamEvicted}

    def test_base_sink_subscribes_to_nothing(self):
        assert list(AnalysisSink().subscriptions()) == []

    def test_register_unregister(self):
        bus = EventBus()
        sink = _CountingSink()
        bus.register(sink)
        assert bus.has_subscribers(StreamOpened)
        bus.unregister(sink)
        assert not bus.has_subscribers(StreamOpened)


class TestAnalyzerEvents:
    @pytest.fixture(scope="class")
    def run(self, sfu_meeting_result):
        return _analyze(sfu_meeting_result.captures)

    def test_stream_opened_once_per_stream(self, run):
        _, sink, result = run
        assert sorted(sink.opened) == sorted(s.key for s in result.streams)

    def test_opened_plus_updated_covers_every_record(self, run):
        _, sink, result = run
        total_records = sum(s.packets for s in result.streams)
        assert len(sink.opened) + sink.updated == total_records

    def test_meeting_formed_for_every_final_meeting(self, run):
        _, sink, result = run
        # formation fires per opened meeting; later §4.3.2 step-3 merges may
        # collapse several into one, so formed ⊇ final and never duplicates
        final = {m.meeting_id for m in result.grouper.meetings()}
        assert final <= set(sink.meetings)
        assert len(sink.meetings) == len(set(sink.meetings))

    @pytest.fixture(scope="class")
    def mixed(self):
        return ZoomAnalyzer(mixed_protocol_config()).analyze(mixed_trace_captures())

    def test_bitrate_bins_match_byte_counters(self, run, mixed):
        """Demux bins every claimed media payload; metrics, every record's media bytes."""
        for result in (run[2], mixed):
            meter = result.bitrate
            flow, stream, media_type = (
                sum(sum(binner.values()) for binner in table.values())
                for table in (meter.flow_bins, meter.stream_bins, meter.media_type_bins)
            )
            assert flow == sum(result.encap_bytes.values()) > 0
            assert stream == media_type == sum(result.payload_type_bytes.values()) > 0
        assert (flow, stream) == (7_461_329, 6_546_869)  # the mixed trace

    def test_sync_sees_every_sender_report(self, run, mixed):
        for result in (run[2], mixed):
            reports = sum(result.sync.report_count(s) for s in result.sync.ssrcs())
            assert reports == result.rtcp_sender_reports > 0


class TestEvictStream:
    def test_evict_removes_and_publishes(self, sfu_meeting_result):
        analyzer, sink, result = _analyze(sfu_meeting_result.captures)
        victim = result.streams.streams()[0]
        evicted = analyzer.evict_stream(victim.key, reason="test")
        assert evicted is victim
        assert result.streams.get(victim.key) is None
        assert victim.key not in result.stream_metrics
        assert len(sink.evicted) == 1
        event = sink.evicted[0]
        assert event.stream is victim
        assert event.metrics is not None
        assert event.reason == "test"
        assert event.timestamp == victim.last_time

    def test_evict_unknown_key_returns_none(self):
        analyzer = ZoomAnalyzer()
        key = (("1.2.3.4", 1, "5.6.7.8", 2, 17), 99)
        assert analyzer.evict_stream(key) is None

    def test_evicted_stream_can_reopen(self, sfu_meeting_result):
        analyzer, sink, result = _analyze(sfu_meeting_result.captures)
        count = len(result.streams)
        victim = max(result.streams.streams(), key=lambda s: s.packets)
        analyzer.evict_stream(victim.key)
        assert len(result.streams) == count - 1
        # replaying the capture reopens the stream under the same key
        analyzer.analyze(sfu_meeting_result.captures)
        assert result.streams.get(victim.key) is not None
        assert victim.key in [e.stream.key for e in sink.evicted]
