"""Tests for RTCP-based clock mapping and stream synchronization."""

import pytest

from repro.core.metrics.sync import SenderReportCollector
from repro.rtp.rtcp import RTCPSenderReport, ntp_from_unix


def _sr(ssrc, rtp_ts, wall):
    seconds, fraction = ntp_from_unix(wall)
    return RTCPSenderReport(
        ssrc=ssrc, ntp_seconds=seconds, ntp_fraction=fraction,
        rtp_timestamp=rtp_ts & 0xFFFFFFFF, packet_count=0, octet_count=0,
    )


def _feed_linear(collector, ssrc, *, rate, start_rtp=1000, start_wall=100.0, count=30):
    for i in range(count):
        collector.observe(_sr(ssrc, start_rtp + i * rate, start_wall + i))


class TestClockMapping:
    def test_rate_recovered(self):
        collector = SenderReportCollector()
        _feed_linear(collector, 0x110, rate=90_000)
        mapping = collector.mapping(0x110)
        assert mapping is not None
        assert mapping.rate == pytest.approx(90_000, rel=1e-6)
        assert mapping.reports == 30

    def test_wall_time_projection(self):
        collector = SenderReportCollector()
        _feed_linear(collector, 0x110, rate=90_000, start_rtp=0, start_wall=50.0)
        mapping = collector.mapping(0x110)
        # RTP 45000 = 0.5 s after the first report's media instant.
        assert mapping.wall_time_of(45_000) == pytest.approx(50.5, abs=1e-6)

    def test_wraparound_timestamps(self):
        collector = SenderReportCollector()
        _feed_linear(collector, 0x110, rate=90_000, start_rtp=(1 << 32) - 200_000)
        mapping = collector.mapping(0x110)
        assert mapping.rate == pytest.approx(90_000, rel=1e-5)

    def test_needs_two_reports(self):
        collector = SenderReportCollector()
        collector.observe(_sr(1, 0, 100.0))
        assert collector.mapping(1) is None
        assert collector.mapping(2) is None

    def test_nominal_rate_snapping(self):
        collector = SenderReportCollector()
        _feed_linear(collector, 1, rate=90_011)  # slightly drifted clock
        assert collector.nominal_rate(1) == 90_000
        _feed_linear(collector, 2, rate=48_005)
        assert collector.nominal_rate(2) == 48_000

    def test_degenerate_same_wall_times(self):
        collector = SenderReportCollector()
        collector.observe(_sr(1, 0, 100.0))
        collector.observe(_sr(1, 3000, 100.0))
        assert collector.mapping(1) is None

    def test_memory_bounded(self):
        collector = SenderReportCollector(max_reports_per_stream=10)
        _feed_linear(collector, 1, rate=90_000, count=100)
        assert collector.report_count(1) == 10
        assert collector.mapping(1).rate == pytest.approx(90_000, rel=1e-6)


class TestSkew:
    def test_synced_streams_zero_skew(self):
        """Audio at 48 kHz and video at 90 kHz sampling the same media
        timeline: simultaneous timestamps map to the same wall instant."""
        collector = SenderReportCollector()
        _feed_linear(collector, 0x10F, rate=48_000, start_rtp=500, start_wall=100.0)
        _feed_linear(collector, 0x110, rate=90_000, start_rtp=9_000, start_wall=100.0)
        # Both at media instant = 5 s after the first reports.
        skew = collector.skew(0x10F, 500 + 5 * 48_000, 0x110, 9_000 + 5 * 90_000)
        assert skew == pytest.approx(0.0, abs=1e-6)

    def test_lipsync_offset_detected(self):
        collector = SenderReportCollector()
        _feed_linear(collector, 0x10F, rate=48_000, start_rtp=0, start_wall=100.0)
        _feed_linear(collector, 0x110, rate=90_000, start_rtp=0, start_wall=100.0)
        # Audio is 120 ms ahead of video in media time.
        audio_rtp = int(5.12 * 48_000)
        video_rtp = int(5.00 * 90_000)
        skew = collector.skew(0x10F, audio_rtp, 0x110, video_rtp)
        assert skew == pytest.approx(0.120, abs=1e-6)

    def test_skew_requires_both_mappings(self):
        collector = SenderReportCollector()
        _feed_linear(collector, 1, rate=90_000)
        assert collector.skew(1, 0, 2, 0) is None


class TestOnPipeline:
    def test_sync_collector_populated_by_analyzer(self, analyzed_sfu):
        collector = analyzed_sfu.sync
        assert collector.ssrcs()
        # Every stream with enough reports yields a plausible clock.
        for ssrc in collector.ssrcs():
            if collector.report_count(ssrc) >= 5:
                mapping = collector.mapping(ssrc)
                assert mapping is not None
                assert 20_000 < mapping.rate < 200_000

    def test_video_clock_identified_as_90khz(self, analyzed_sfu):
        video_ssrcs = [s for s in analyzed_sfu.sync.ssrcs() if s & 0xFF == 16]
        checked = 0
        for ssrc in video_ssrcs:
            if analyzed_sfu.sync.report_count(ssrc) >= 5:
                assert analyzed_sfu.sync.nominal_rate(ssrc) == 90_000
                checked += 1
        assert checked >= 1

    def test_av_sync_within_tolerance(self, analyzed_sfu):
        """A participant's audio and video streams are mutually synchronized
        (the SFU forwards SRs precisely so receivers can do this)."""
        collector = analyzed_sfu.sync
        audio, video = 0x10F, 0x110  # bob's streams
        assert collector.report_count(audio) >= 3 and collector.report_count(video) >= 3
        map_audio = collector.mapping(audio)
        map_video = collector.mapping(video)
        # Pick timestamps 5 s into each stream and compare wall instants.
        skew = collector.skew(
            audio,
            (map_audio.reference_rtp + 5 * 48_000) & 0xFFFFFFFF,
            video,
            (map_video.reference_rtp + 5 * 90_000) & 0xFFFFFFFF,
        )
        assert skew is not None
        # The emulator starts the streams within ~2 s of each other.
        assert abs(skew) < 3.0
