"""Tests for stall detection from frame delays (§5.5 future work)."""

import pytest

from repro.core.metrics.frame_delay import FrameDelayAnalyzer, FrameDelaySample
from repro.core.metrics.frames import CompletedFrame
from repro.core.metrics.stalls import StallDetector, detect_stalls


def sample(time, delay, packetization=1 / 30.0, debt=0.0):
    return FrameDelaySample(
        time=time,
        delay=delay,
        packetization_time=packetization,
        retransmission_suspected=False,
        buffer_debt=debt,
    )


def healthy_stream(n=100, start=1.0):
    return [sample(start + i / 30.0, 0.004) for i in range(n)]


def starving_stream(n=40, start=1.0):
    """Each frame takes 80 ms to deliver but covers 33 ms of media."""
    return [sample(start + i * 0.080, 0.080) for i in range(n)]


class TestStallDetector:
    def test_healthy_stream_no_stalls(self):
        assert detect_stalls(healthy_stream()) == []

    def test_persistent_starvation_stalls(self):
        events = detect_stalls(starving_stream())
        assert len(events) == 1
        event = events[0]
        assert event.duration > 0
        assert event.max_debt > 0.2

    def test_stall_start_time_plausible(self):
        # Debt grows 47 ms per frame; the 200 ms buffer drains after ~5 frames.
        events = detect_stalls(starving_stream())
        assert 1.0 < events[0].start < 1.6

    def test_recovery_closes_event(self):
        stream = starving_stream(n=10) + [
            sample(2.0 + i / 30.0, 0.001, packetization=1 / 30.0) for i in range(60)
        ]
        detector = StallDetector()
        closed = []
        for s in stream:
            event = detector.observe(s)
            if event is not None:
                closed.append(event)
        assert len(closed) == 1
        assert not detector.currently_stalled
        assert closed[0].frames_late > 0

    def test_finalize_closes_open_stall(self):
        detector = StallDetector()
        for s in starving_stream(n=20):
            detector.observe(s)
        assert detector.currently_stalled
        event = detector.finalize(10.0)
        assert event is not None
        assert not detector.currently_stalled
        assert detector.total_stall_time == pytest.approx(event.duration)

    def test_nan_packetization_skipped(self):
        detector = StallDetector()
        assert detector.observe(sample(1.0, 0.5, packetization=float("nan"))) is None
        assert not detector.currently_stalled

    def test_buffer_depth_configurable(self):
        deep = detect_stalls(starving_stream(n=8), buffer_depth=10.0)
        shallow = detect_stalls(starving_stream(n=8), buffer_depth=0.05)
        assert deep == []
        assert shallow

    def test_multiple_stalls(self):
        stream = []
        t = 1.0
        for _round in range(2):
            for i in range(12):        # starve
                stream.append(sample(t, 0.080))
                t += 0.080
            for i in range(90):        # recover
                stream.append(sample(t, 0.001))
                t += 1 / 30.0
        events = detect_stalls(stream)
        assert len(events) == 2
        # Fed one sample at a time, the count a live summary reads
        # (finished stalls + the open one) is the replay's at every prefix.
        detector = StallDetector()
        for seen, s in enumerate(stream, start=1):
            detector.observe(s)
            count = len(detector.events) + detector.currently_stalled
            assert count == len(detect_stalls(stream[:seen]))


class TestEndToEnd:
    def test_congested_stream_from_analyzer(self, analyzed_sfu):
        """The congested fixture stream exposes frame-delay samples that the
        detector consumes without error (stalls may or may not occur at the
        fixture's congestion level)."""
        for stream in analyzed_sfu.media_streams():
            metrics = analyzed_sfu.metrics_for(stream.key)
            events = metrics.stall_events()
            # The incrementally fed detector and running total read what the
            # replay and the re-sum compute.
            assert metrics.stall_count == len(events)
            fps = [sample.fps for sample in metrics.framerate_delivered.samples]
            if fps:
                assert metrics.framerate_delivered.mean_fps == sum(fps) / len(fps)
            for event in events:
                assert event.duration >= 0
                assert event.start >= stream.first_time

    def test_retransmission_heavy_frames_trigger_stall(self):
        """Frames repeatedly delayed by the retransmission timeout exceed
        any reasonable jitter buffer."""
        analyzer = FrameDelayAnalyzer(90_000)
        t = 1.0
        ts = 0
        samples = []
        for i in range(30):
            delay = 0.130 if 5 <= i <= 25 else 0.004  # RTO-delayed frames
            samples.append(
                analyzer.observe(
                    CompletedFrame(
                        rtp_timestamp=ts,
                        frame_sequence=i,
                        expected_packets=2,
                        first_time=t,
                        completed_time=t + delay,
                        payload_bytes=1000,
                    )
                )
            )
            ts += 3000
            t += 1 / 30.0
        events = detect_stalls(samples)
        assert events
