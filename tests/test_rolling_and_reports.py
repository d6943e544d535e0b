"""Tests for rolling-mode eviction and the meeting report generator."""

import math

import pytest

from repro.analysis.reportgen import full_report, meeting_report
from repro.core import AnalyzerConfig, ZoomAnalyzer
from repro.net.source import IterableSource
from repro.simulation import (
    CongestionEvent,
    MeetingConfig,
    MeetingSimulator,
    ParticipantConfig,
)


@pytest.fixture(scope="module")
def two_sequential_meetings():
    """Two short meetings 90 s apart on the same timeline — only a rolling
    analyzer keeps memory flat across them."""
    captures = []
    for index, start in enumerate((0.0, 100.0)):
        config = MeetingConfig(
            meeting_id=f"seq-{index}",
            participants=(
                ParticipantConfig(name=f"a{index}", on_campus=True),
                ParticipantConfig(name=f"b{index}", on_campus=True, join_time=0.5),
            ),
            duration=10.0,
            start_time=start,
            allow_p2p=False,
            seed=50 + index,
        )
        captures.extend(MeetingSimulator(config).run().captures)
    captures.sort(key=lambda c: c.timestamp)
    return captures


def _rolling(idle_timeout, *hooks) -> ZoomAnalyzer:
    analyzer = ZoomAnalyzer(AnalyzerConfig(
        rolling=True, rolling_idle_timeout=idle_timeout, rolling_sweep_interval=5.0
    ))
    analyzer.eviction_hooks.extend(hooks)
    return analyzer


class TestRollingAnalyzer:
    def test_eviction_bounds_memory(self, two_sequential_meetings):
        finalized = []
        rolling = _rolling(30.0, finalized.append)
        peak_live = 0
        # One-packet batches: the sweep check runs per packet.
        source = IterableSource(two_sequential_meetings, batch_size=1)
        for batch in source.frame_batches():
            rolling.feed_batch(batch)
            peak_live = max(peak_live, len(rolling.result.streams))
        # After the second meeting, the first meeting's streams are gone.
        rolling.eviction.sweep(200.0)
        assert len(rolling.result.streams) == 0
        assert rolling.eviction.streams_evicted == len(finalized)
        # Each meeting holds 8 streams (4 egress + 4 ingress copies); at no
        # point did we hold both meetings' streams simultaneously.
        assert peak_live <= 8

    def test_finalized_records_complete(self, two_sequential_meetings):
        finalized = []
        rolling = _rolling(30.0, finalized.append)
        rolling.analyze(two_sequential_meetings)
        rolling.eviction.sweep(500.0)
        assert len(finalized) == 16  # 2 meetings x (4 egress + 4 ingress)
        for record in finalized:
            assert record.packets > 0
            assert record.last_time >= record.first_time
            if record.media_type == 16 and record.frames_completed > 10:
                assert 5 < record.mean_fps < 40

    def test_callback_invoked(self, two_sequential_meetings):
        seen = []
        rolling = _rolling(30.0, seen.append)
        rolling.analyze(two_sequential_meetings)
        rolling.eviction.sweep(500.0)
        assert len(seen) == rolling.eviction.streams_evicted == 16
        assert len({record.key for record in seen}) == 16

    def test_results_match_offline_analyzer(self, two_sequential_meetings):
        """Eviction must not change what was measured, only when state is
        released."""
        offline = ZoomAnalyzer().analyze(two_sequential_meetings)
        finalized = []
        rolling = _rolling(30.0, finalized.append)
        rolling.analyze(two_sequential_meetings)
        rolling.eviction.sweep(500.0)
        offline_packets = {
            stream.key: stream.packets for stream in offline.media_streams()
        }
        rolling_packets = {record.key: record.packets for record in finalized}
        assert rolling_packets == offline_packets

    def test_no_eviction_for_active_streams(self, sfu_meeting_result):
        rolling = _rolling(60.0)
        rolling.analyze(sfu_meeting_result.captures)
        # Meeting lasted 25 s; nothing idle for 60 s.
        assert rolling.eviction.streams_evicted == 0
        assert len(rolling.result.streams) > 0


class TestMeetingReports:
    def test_report_structure(self, analyzed_sfu):
        meeting = analyzed_sfu.meetings[0]
        report = meeting_report(analyzed_sfu, meeting)
        assert report.participant_estimate == 3
        assert len(report.streams) == len(meeting.stream_uids)
        for stream in report.streams:
            assert stream.packets > 0
            assert stream.copies >= 1

    def test_copies_counted(self, analyzed_sfu):
        report = meeting_report(analyzed_sfu, analyzed_sfu.meetings[0])
        # Streams from on-campus senders have egress + ingress copies.
        assert max(stream.copies for stream in report.streams) >= 2

    def test_render_contains_key_facts(self, analyzed_sfu):
        text = meeting_report(analyzed_sfu, analyzed_sfu.meetings[0]).render()
        assert "participants" in text
        assert "VIDEO" in text and "AUDIO" in text
        assert "findings" in text

    def test_full_report_covers_all_meetings(self, analyzed_sfu):
        text = full_report(analyzed_sfu)
        assert "Meeting 0" in text

    def test_empty_analysis(self):
        from repro.core.pipeline import AnalysisResult

        assert "(no meetings found)" in full_report(AnalysisResult())

    def test_network_cause_diagnosed(self):
        """A severely congested meeting yields a network-cause warning."""
        config = MeetingConfig(
            meeting_id="diag",
            participants=(
                ParticipantConfig(
                    name="victim",
                    congestion=(
                        CongestionEvent(
                            start=3.0, end=18.0, extra_delay=0.08,
                            extra_jitter=0.05, extra_loss=0.10,
                        ),
                    ),
                ),
                ParticipantConfig(name="peer", join_time=0.5),
            ),
            duration=20.0,
            allow_p2p=False,
            seed=61,
        )
        from repro.core import ZoomAnalyzer

        result = ZoomAnalyzer().analyze(MeetingSimulator(config).run().captures)
        report = meeting_report(result, result.meetings[0])
        network_findings = [d for d in report.diagnoses if d.cause == "network"]
        assert network_findings

    def test_content_cause_diagnosed(self):
        """A thumbnail-mode (14 fps) sender on a clean network is flagged as
        content-driven, not network-driven — the §6.2 distinction."""
        config = MeetingConfig(
            meeting_id="thumb",
            participants=(
                ParticipantConfig(name="thumb", thumbnail=True),
                ParticipantConfig(name="peer", join_time=0.5),
            ),
            duration=15.0,
            allow_p2p=False,
            seed=62,
        )
        from repro.core import ZoomAnalyzer

        result = ZoomAnalyzer().analyze(MeetingSimulator(config).run().captures)
        report = meeting_report(result, result.meetings[0])
        thumb_findings = [
            d for d in report.diagnoses if d.ssrc == 0x10 and d.cause == "content"
        ]
        assert thumb_findings
        assert all(d.severity == "info" for d in thumb_findings)
