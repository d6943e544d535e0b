"""Tests for the switch-feasible approximate metric estimators (§8)."""

import pytest

from repro.capture.register_metrics import (
    DataplaneBitrateCounter,
    DataplaneFrameRateCounter,
    DataplaneJitterEstimator,
    DataplaneMetrics,
    reciprocal_fixed,
    stream_key_bytes,
)
from repro.core.streams import RTPPacketRecord

FT = ("10.8.1.2", 50001, "170.114.10.5", 8801, 17)


def packet(seq, rtp_ts, t, *, ssrc=0x110, payload_type=98, size=900):
    return RTPPacketRecord(
        timestamp=t,
        five_tuple=FT,
        ssrc=ssrc,
        payload_type=payload_type,
        sequence=seq & 0xFFFF,
        rtp_timestamp=rtp_ts & 0xFFFFFFFF,
        marker=False,
        media_type=16,
        payload_len=size,
        udp_payload_len=size + 50,
        packets_in_frame=1,
        to_server=True,
    )


def test_reciprocal_fixed_point_accuracy():
    reciprocal = reciprocal_fixed(90_000)
    # One frame at 30 fps = 3000 ticks ≈ 33333 µs.
    assert (3000 * reciprocal) >> 16 == pytest.approx(33333, abs=2)
    # One 20 ms audio frame at 48 kHz.
    assert (960 * reciprocal_fixed(48_000)) >> 16 == pytest.approx(20_000, abs=2)


class TestJitter:
    def test_clean_stream_near_zero(self):
        estimator = DataplaneJitterEstimator()
        reference = None
        for i in range(100):
            p = packet(i, i * 3000, 1.0 + i / 30.0)
            estimator.observe(p)
            reference = p
        assert estimator.jitter_seconds(reference) < 0.0005

    def test_matches_exact_estimator_under_noise(self):
        """The integer/shift version tracks the float RFC 3550 estimator
        within a fraction of a millisecond."""
        import random

        from repro.core.metrics.jitter import FrameJitterEstimator

        rng = random.Random(3)
        approximate = DataplaneJitterEstimator()
        exact = FrameJitterEstimator(90_000)
        reference = None
        for i in range(400):
            noise = rng.uniform(0, 0.012)
            p = packet(i, i * 3000, 1.0 + i / 30.0 + noise)
            approximate.observe(p)
            exact.observe(p)
            reference = p
        assert approximate.jitter_seconds(reference) == pytest.approx(
            exact.jitter, abs=0.0008
        )

    def test_fec_excluded(self):
        estimator = DataplaneJitterEstimator()
        estimator.observe(packet(0, 0, 1.0))
        estimator.observe(packet(500, 90_000, 5.0, payload_type=110))
        assert estimator.updates == 0

    def test_bucket_collision_shares_state(self):
        """One-bucket array: two streams corrupt each other's jitter — the
        documented accuracy limit of hash-indexed registers."""
        estimator = DataplaneJitterEstimator(buckets=1)
        a = packet(0, 0, 1.0, ssrc=1)
        b = packet(0, 500_000, 1.005, ssrc=2)
        estimator.observe(a)
        estimator.observe(b)  # lands in the same slot
        estimator.observe(packet(1, 3000, 1.033, ssrc=1))
        assert estimator.jitter_seconds(a) > 0.001  # polluted

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            DataplaneJitterEstimator(buckets=0)


class TestFrameRate:
    def test_steady_rate_counted(self):
        counter = DataplaneFrameRateCounter()
        reference = None
        for i in range(95):
            p = packet(i, i * 3000, 1.0 + i / 30.0)
            counter.observe(p)
            reference = p
        assert counter.rate(reference) == pytest.approx(30, abs=2)

    def test_multi_packet_frames_counted_once(self):
        counter = DataplaneFrameRateCounter()
        reference = None
        seq = 0
        for i in range(60):
            for j in range(3):  # 3 packets per frame, consecutive
                p = packet(seq, i * 3000, 1.0 + i / 20.0 + j * 0.0005)
                counter.observe(p)
                reference = p
                seq += 1
        assert counter.rate(reference) == pytest.approx(20, abs=2)

    def test_rate_change_reflected_next_window(self):
        counter = DataplaneFrameRateCounter()
        reference = None
        t, ts = 1.0, 0
        for i in range(30):
            counter.observe(packet(i, ts, t)); t += 1 / 30.0; ts += 3000
        for i in range(40):
            p = packet(100 + i, ts, t); counter.observe(p); t += 1 / 15.0; ts += 6000
            reference = p
        assert counter.rate(reference) == pytest.approx(15, abs=3)


class TestBitrate:
    def test_window_bytes(self):
        counter = DataplaneBitrateCounter()
        reference = None
        for i in range(60):
            p = packet(i, i * 3000, 1.0 + i / 30.0, size=1000)
            counter.observe(p)
            reference = p
        # 30 packets x 1000 B x 8 = 240 kbit in the completed window.
        assert counter.bits_per_second(reference) == pytest.approx(240_000, rel=0.15)


class TestCombined:
    def test_resource_estimate_within_budget(self):
        metrics = DataplaneMetrics(buckets=4096)
        estimate = metrics.resource_estimate()
        assert estimate["sram_percent"] < 5.0

    def test_processes_real_stream(self, analyzed_sfu, sfu_meeting_result):
        """Drive the data-plane estimators with the fixture's records and
        compare against the exact per-stream results."""
        metrics = DataplaneMetrics(buckets=8192)
        stream = next(
            s for s in analyzed_sfu.media_streams()
            if s.ssrc == 0x110 and s.to_server is True
        )
        # Re-derive the records by re-analyzing with record retention.
        from repro.core import AnalyzerConfig, ZoomAnalyzer

        result = ZoomAnalyzer(AnalyzerConfig(keep_records=True)).analyze(
            sfu_meeting_result.captures
        )
        retained = result.streams.get(stream.key)
        reference = None
        for record in retained.records:
            metrics.observe(record)
            reference = record
        exact = result.metrics_for(stream.key)
        assert metrics.jitter.jitter_seconds(reference) == pytest.approx(
            exact.jitter.jitter, abs=0.002
        )
        fps_samples = [s.fps for s in exact.framerate_delivered.samples if s.time > stream.last_time - 2]
        if fps_samples:
            assert metrics.framerate.rate(reference) == pytest.approx(
                sum(fps_samples) / len(fps_samples), abs=8
            )

    def test_key_stability(self):
        p = packet(1, 2, 3.0)
        assert stream_key_bytes(p) == stream_key_bytes(p)
