"""End-to-end integration: emulate → pcap on disk → re-read → analyze →
validate against ground truth.  This is the full paper workflow in one test
module."""

import pytest

from repro.core import ZoomAnalyzer
from repro.capture.p4_model import P4CaptureModel
from repro.net.pcap import PcapReader, write_pcap
from repro.simulation import (
    CongestionEvent,
    MeetingConfig,
    MeetingSimulator,
    ParticipantConfig,
)
from repro.zoom.constants import ZoomMediaType


@pytest.fixture(scope="module")
def pcap_roundtrip(tmp_path_factory):
    config = MeetingConfig(
        meeting_id="integration",
        participants=(
            ParticipantConfig(
                name="alice",
                congestion=(CongestionEvent(start=8.0, end=12.0),),
            ),
            ParticipantConfig(name="bob", join_time=0.5),
        ),
        duration=16.0,
        allow_p2p=False,
        seed=99,
    )
    result = MeetingSimulator(config).run()
    path = tmp_path_factory.mktemp("traces") / "meeting.pcap"
    write_pcap(path, result.captures)
    return result, path


def test_pcap_preserves_everything(pcap_roundtrip):
    result, path = pcap_roundtrip
    restored = list(PcapReader(path))
    assert len(restored) == len(result.captures)
    assert all(a.data == b.data for a, b in zip(restored, result.captures))


def test_analysis_from_disk_matches_in_memory(pcap_roundtrip):
    result, path = pcap_roundtrip
    from_memory = ZoomAnalyzer().analyze(result.captures)
    from_disk = ZoomAnalyzer().run(path)
    assert from_disk.packets_zoom == from_memory.packets_zoom
    assert from_disk.grouper.unique_stream_count() == from_memory.grouper.unique_stream_count()
    assert len(from_disk.meetings) == len(from_memory.meetings)
    assert from_disk.rtcp_sender_reports == from_memory.rtcp_sender_reports


def test_capture_filter_then_analyze(pcap_roundtrip):
    """The deployment topology: switch filter first, analyzer second."""
    result, _path = pcap_roundtrip
    model = P4CaptureModel()
    filtered = list(model.process(result.captures))
    analysis = ZoomAnalyzer().analyze(filtered)
    assert analysis.packets_total == model.counters.passed
    assert len(analysis.meetings) == 1


def test_full_metric_sweep(pcap_roundtrip):
    """Every §5 metric produces sensible output on one pass."""
    result, _path = pcap_roundtrip
    analysis = ZoomAnalyzer().analyze(result.captures)
    video_streams = [
        s for s in analysis.media_streams() if s.media_type == int(ZoomMediaType.VIDEO)
    ]
    assert video_streams
    for stream in video_streams:
        metrics = analysis.metrics_for(stream.key)
        assert metrics.assembler.completed_count > 50
        assert metrics.framerate_delivered.samples
        assert metrics.framerate_encoder.samples
        mid_fps = metrics.framerate_encoder.samples[len(metrics.framerate_encoder.samples) // 4].fps
        assert 5 < mid_fps < 40
        assert metrics.framesize.summary()["median"] > 200
        assert metrics.jitter.samples
        assert 0 <= metrics.jitter.jitter < 0.2
        report = metrics.loss.report()
        assert report.received > 100
        delays = [s.delay for s in metrics.frame_delay.samples]
        assert all(d >= 0 for d in delays)
    assert analysis.rtp_latency.matched > 500
    mean_rtt = sum(s.rtt for s in analysis.rtp_latency.samples) / len(
        analysis.rtp_latency.samples
    )
    assert 0.02 < mean_rtt < 0.2


def test_validation_against_qos_feed(pcap_roundtrip):
    """The Figure 10 validation loop, automated: per-second analyzer
    estimates vs the SDK-style ground truth for alice's video stream."""
    result, _path = pcap_roundtrip
    analysis = ZoomAnalyzer().analyze(result.captures)
    ssrc = 0x10  # alice's video
    qos = result.qos
    ingress = next(
        s for s in analysis.media_streams() if s.ssrc == ssrc and s.to_server is False
    )
    metrics = analysis.metrics_for(ingress.key)
    matched_seconds = 0
    for second in range(3, 15):
        estimate = [x.fps for x in metrics.framerate_delivered.samples
                    if second <= x.time < second + 1]
        truth = [s.delivered_frames for s in qos.for_stream(ssrc)
                 if abs(s.time - (second + 1)) < 0.01]
        if estimate and truth:
            assert sum(estimate) / len(estimate) == pytest.approx(truth[0], abs=7.0)
            matched_seconds += 1
    assert matched_seconds >= 8
