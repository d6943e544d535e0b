"""Tests for the end-to-end analyzer pipeline."""

import pytest

from repro.core import AnalysisSession, AnalyzerConfig, ShardedAnalyzer, ZoomAnalyzer
from repro.core.detector import ZoomClass
from repro.net.packet import CapturedPacket, build_udp_frame
from repro.net.pcap import write_pcap
from repro.zoom.constants import ZoomMediaType


class TestOnSfuMeeting:
    def test_every_capture_is_zoom(self, analyzed_sfu):
        assert analyzed_sfu.packets_total == analyzed_sfu.packets_zoom

    def test_stream_count_matches_truth(self, analyzed_sfu, sfu_meeting_result):
        """Unique stream ids must equal the number of emitted media streams
        (network copies collapse; nothing merges wrongly)."""
        truth = {t.ssrc for t in sfu_meeting_result.stream_truths}
        assert analyzed_sfu.grouper.unique_stream_count() == len(truth)

    def test_decoded_share_matches_paper_shape(self, analyzed_sfu):
        """~90% of media-class packets decode as media/RTCP (Table 2)."""
        rows = analyzed_sfu.encap_share_table()
        other = next((pct for value, pct, _bytes in rows if value == "other"), 0.0)
        assert 4.0 < other < 16.0
        decoded = sum(pct for value, pct, _ in rows if value != "other")
        assert decoded > 84.0

    def test_video_dominates_bytes(self, analyzed_sfu):
        rows = {value: (pct, byte_pct) for value, pct, byte_pct in analyzed_sfu.encap_share_table()}
        video_pct, video_bytes = rows[int(ZoomMediaType.VIDEO)]
        audio_pct, audio_bytes = rows[int(ZoomMediaType.AUDIO)]
        assert video_bytes > 50.0
        assert video_bytes > audio_bytes
        assert video_pct > audio_pct

    def test_payload_type_table_shape(self, analyzed_sfu):
        """Table 3 shape: video main (98) is the most common payload type;
        FEC (110) is a minority; audio splits between 112/99."""
        rows = {(mt, pt): pct for mt, pt, pct, _ in analyzed_sfu.payload_type_table()}
        assert rows[(16, 98)] == max(rows.values())
        assert rows.get((16, 110), 0) < rows[(16, 98)] / 3
        assert (15, 112) in rows

    def test_rtcp_sender_reports_no_receiver_reports(self, analyzed_sfu):
        assert analyzed_sfu.rtcp_sender_reports > 10
        assert analyzed_sfu.rtcp_receiver_reports == 0
        assert analyzed_sfu.rtcp_sdes_empty > 0

    def test_latency_samples_match_ground_truth(self, analyzed_sfu, sfu_meeting_result):
        """Method-1 RTT estimates track the emulator's true per-second
        latency within a couple of milliseconds (Figure 10b)."""
        qos = sfu_meeting_result.qos
        video_ssrc = 0x110  # bob's video (participant index 1)
        checked = 0
        for second in range(4, 11):  # clean period before congestion
            samples = [
                s for s in analyzed_sfu.rtp_latency.samples_for(video_ssrc)
                if second <= s.time < second + 1
            ]
            truth = qos.value_at(video_ssrc, "true_latency_ms", second + 1)
            if not samples or truth is None or truth != truth:
                continue
            estimate = 1000.0 * sum(s.rtt for s in samples) / len(samples)
            assert estimate == pytest.approx(truth, abs=3.0)
            checked += 1
        assert checked >= 4

    def test_latency_rises_during_congestion(self, analyzed_sfu):
        samples = analyzed_sfu.rtp_latency.samples_for(0x110)
        clean = [s.rtt for s in samples if 4 <= s.time < 10]
        congested = [s.rtt for s in samples if 13.5 <= s.time < 16]
        assert congested and clean
        assert sum(congested) / len(congested) > 1.3 * (sum(clean) / len(clean))

    def test_frame_rate_tracks_ground_truth(self, analyzed_sfu, sfu_meeting_result):
        """Method-1 frame rate matches the emulator's delivered-frames feed
        (Figure 10a)."""
        stream = next(
            s for s in analyzed_sfu.media_streams()
            if s.ssrc == 0x110 and s.to_server is False
        )
        metrics = analyzed_sfu.metrics_for(stream.key)
        qos = sfu_meeting_result.qos
        checked = 0
        for second in range(4, 10):
            window = [x for x in metrics.framerate_delivered.samples if second <= x.time < second + 1]
            truth = [
                s.delivered_frames for s in qos.for_stream(0x110)
                if abs(s.time - (second + 1)) < 0.01
            ]
            if not window or not truth:
                continue
            mean_fps = sum(x.fps for x in window) / len(window)
            assert mean_fps == pytest.approx(truth[0], abs=6.0)
            checked += 1
        assert checked >= 3

    def test_frame_rate_drops_during_congestion(self, analyzed_sfu):
        """Alice (SSRC 0x10, participant 0) has the congested uplink; her
        encoder adapts 28 → 14 fps, visible in the delivered frame rate."""
        stream = next(
            s for s in analyzed_sfu.media_streams()
            if s.ssrc == 0x10 and s.to_server is True
        )
        metrics = analyzed_sfu.metrics_for(stream.key)
        clean = [x.fps for x in metrics.framerate_delivered.samples if 6 <= x.time < 11]
        reduced = [x.fps for x in metrics.framerate_delivered.samples if 14.5 <= x.time < 17]
        assert clean and reduced
        assert sum(reduced) / len(reduced) < 0.75 * (sum(clean) / len(clean))

    def test_jitter_rises_during_congestion(self, analyzed_sfu):
        stream = next(
            s for s in analyzed_sfu.media_streams()
            if s.ssrc == 0x110 and s.to_server is False
        )
        metrics = analyzed_sfu.metrics_for(stream.key)
        clean = [s.jitter for s in metrics.jitter.samples if 5 <= s.time < 11]
        congested = [s.jitter for s in metrics.jitter.samples if 13.5 <= s.time < 16.5]
        assert congested and clean
        assert max(congested) > 2.0 * max(clean)

    def test_tcp_rtt_both_sides(self, analyzed_sfu):
        assert analyzed_sfu.tcp_rtt
        estimator = next(iter(analyzed_sfu.tcp_rtt.values()))
        assert estimator.server_samples and estimator.client_samples
        assert estimator.asymmetry() > 0  # latency dominated by external leg

    def test_bitrate_series_exist_for_video(self, analyzed_sfu):
        series = analyzed_sfu.bitrate.media_type_rate_series(int(ZoomMediaType.VIDEO))
        assert len(series) > 15
        assert max(rate for _t, rate in series) > 100_000  # >100 kbit/s


class TestOnP2PMeeting:
    def test_p2p_media_classified(self, analyzed_p2p):
        counters = analyzed_p2p.detector.counters.by_class
        assert counters.get(ZoomClass.P2P_MEDIA, 0) > 100
        assert counters.get(ZoomClass.SERVER_STUN, 0) >= 3

    def test_p2p_streams_present(self, analyzed_p2p):
        p2p_streams = [s for s in analyzed_p2p.media_streams() if s.is_p2p]
        assert p2p_streams
        assert {s.media_type for s in p2p_streams} >= {15, 16}

    def test_single_meeting_spans_transition(self, analyzed_p2p):
        assert len(analyzed_p2p.meetings) == 1


class TestRobustness:
    def test_non_zoom_traffic_ignored(self):
        analyzer = ZoomAnalyzer()
        packets = [
            CapturedPacket(1.0, build_udp_frame("10.8.1.1", 1000, "8.8.8.8", 53, b"dns")),
            CapturedPacket(1.1, build_udp_frame("10.8.1.1", 1001, "1.1.1.1", 443, b"quic")),
        ]
        result = analyzer.analyze(packets)
        assert result.packets_total == 2
        assert result.packets_zoom == 0
        assert len(result.streams) == 0

    def test_garbage_on_media_port_counted_undecoded(self):
        analyzer = ZoomAnalyzer()
        frame = build_udp_frame("10.8.1.1", 1000, "170.114.1.1", 8801, b"\xff" * 40)
        result = analyzer.analyze([CapturedPacket(1.0, frame)])
        assert result.packets_zoom == 1
        assert result.undecoded_packets == 1

    def test_truncated_frames_survive(self, sfu_meeting_result):
        analyzer = ZoomAnalyzer()
        analyzer.analyze(
            CapturedPacket(captured.timestamp, captured.data[:30])
            for captured in sfu_meeting_result.captures[:200]
        )
        assert analyzer.result.packets_total == 200

    def test_empty_capture(self):
        result = ZoomAnalyzer().analyze([])
        assert result.packets_total == 0
        assert result.meetings == []
        assert result.encap_share_table() == []
        assert result.payload_type_table() == []


class TestRunHonoursConfig:
    """Every driver's ``run(path)`` opens the file with the config's
    ``tolerant`` and ``batch_size`` — there is one drain loop, so there is
    nowhere for the drivers to disagree."""

    DRIVERS = {
        "one-pass": lambda config: ZoomAnalyzer(config),
        "rolling": lambda config: ZoomAnalyzer(config.replace(rolling=True)),
        "sharded": lambda config: ShardedAnalyzer(
            config.replace(shards=2, shard_backend="serial")
        ),
        "session": lambda config: AnalysisSession(config),
    }

    @pytest.fixture()
    def truncated_pcap(self, tmp_path):
        """Ten frames of one flow, the file cut inside the last record."""
        path = tmp_path / "cut.pcap"
        frame = build_udp_frame("10.8.1.1", 40000, "170.114.1.1", 8801, b"\xff" * 40)
        write_pcap(path, [CapturedPacket(1.0 + i, frame) for i in range(10)])
        path.write_bytes(path.read_bytes()[:-7])
        return path

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_tolerant_tail_and_batch_size_reach_the_reader(self, driver, truncated_pcap):
        config = AnalyzerConfig(tolerant=True, batch_size=3)
        result = self.DRIVERS[driver](config).run(truncated_pcap)
        assert result.packets_total == 9
        snapshot = result.telemetry_snapshot()
        assert snapshot.counter("capture.truncated") == 1
        assert snapshot.counter("pipeline.batch.batches") == 3  # summed over shards

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_intolerant_run_raises_on_truncated_tail(self, driver, truncated_pcap):
        config = AnalyzerConfig(tolerant=False, batch_size=3)
        with pytest.raises(ValueError, match="truncated pcap"):
            self.DRIVERS[driver](config).run(truncated_pcap)
