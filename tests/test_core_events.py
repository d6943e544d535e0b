"""The analyzer's record and eviction hooks, and the stages' direct feeds
into bit-rate binning and RTCP clock sync."""

from __future__ import annotations

import pytest

from repro.core import ZoomAnalyzer

from tests.golden_utils import mixed_protocol_config, mixed_trace_captures


class _Recorder:
    """Joins an analyzer's hooks and records what they are called with."""

    def __init__(self, analyzer: ZoomAnalyzer) -> None:
        self.grouper = analyzer.result.grouper
        self.opened = []
        self.updated = 0
        self.evicted = []
        self.meetings = []
        analyzer.record_hooks.append(self.on_record)
        analyzer.eviction_hooks.append(self.evicted.append)

    def on_record(self, record, key, opened, meeting_formed) -> None:
        assert key == record.stream_key
        if meeting_formed:
            self.meetings.append(self.grouper.meeting_of(key).meeting_id)
        if opened:
            self.opened.append(key)
        else:
            self.updated += 1


def _analyze(captures):
    """A fresh analyzer with a recorder attached, fed ``captures``."""
    analyzer = ZoomAnalyzer()
    recorder = _Recorder(analyzer)
    return analyzer, recorder, analyzer.analyze(captures)


class TestAnalyzerEvents:
    @pytest.fixture(scope="class")
    def run(self, sfu_meeting_result):
        return _analyze(sfu_meeting_result.captures)

    def test_stream_opened_once_per_stream(self, run):
        _, recorder, result = run
        assert sorted(recorder.opened) == sorted(s.key for s in result.streams)

    def test_opened_plus_updated_covers_every_record(self, run):
        _, recorder, result = run
        total_records = sum(s.packets for s in result.streams)
        assert len(recorder.opened) + recorder.updated == total_records

    def test_meeting_formed_for_every_final_meeting(self, run):
        _, recorder, result = run
        # formation fires per opened meeting; later §4.3.2 step-3 merges may
        # collapse several into one, so formed ⊇ final and never duplicates
        final = {m.meeting_id for m in result.grouper.meetings()}
        assert final <= set(recorder.meetings)
        assert len(recorder.meetings) == len(set(recorder.meetings))
        assert len(recorder.meetings) == result.grouper.meetings_formed

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
        analyzer, recorder, result = _analyze(sfu_meeting_result.captures)
        victim = result.streams.streams()[0]
        metrics = result.stream_metrics[victim.key]
        evicted = analyzer.evict_stream(victim.key, reason="test")
        assert evicted is victim
        assert result.streams.get(victim.key) is None
        assert victim.key not in result.stream_metrics
        (summary,) = recorder.evicted
        assert summary.key == victim.key
        assert summary.packets == victim.packets
        assert summary.last_time == victim.last_time
        assert summary.frames_completed == metrics.assembler.completed_count

    def test_evict_unknown_key_returns_none(self):
        analyzer = ZoomAnalyzer()
        key = (("1.2.3.4", 1, "5.6.7.8", 2, 17), 99)
        assert analyzer.evict_stream(key) is None

    def test_evicted_stream_can_reopen(self, sfu_meeting_result):
        analyzer, recorder, result = _analyze(sfu_meeting_result.captures)
        count = len(result.streams)
        victim = max(result.streams.streams(), key=lambda s: s.packets)
        analyzer.evict_stream(victim.key)
        assert len(result.streams) == count - 1
        # replaying the capture reopens the stream under the same key
        analyzer.analyze(sfu_meeting_result.captures)
        assert result.streams.get(victim.key) is not None
        assert victim.key in [summary.key for summary in recorder.evicted]
