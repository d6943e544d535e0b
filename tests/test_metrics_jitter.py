"""Tests for RFC 3550 frame-level jitter (§5.4, Figure 12)."""

import random

import pytest

from repro.core.metrics.jitter import FrameJitterEstimator, NaiveInterarrivalJitter
from repro.core.streams import RTPPacketRecord

FT = ("10.8.1.2", 50001, "170.114.10.5", 8801, 17)


def packet(seq, rtp_ts, t, *, payload_type=98):
    return RTPPacketRecord(
        timestamp=t,
        five_tuple=FT,
        ssrc=0x110,
        payload_type=payload_type,
        sequence=seq,
        rtp_timestamp=rtp_ts,
        marker=False,
        media_type=16,
        payload_len=500,
        udp_payload_len=550,
        packets_in_frame=1,
        to_server=True,
    )


def test_perfect_delivery_zero_jitter():
    estimator = FrameJitterEstimator(90_000)
    for i in range(50):
        estimator.observe(packet(i, i * 3000, 1.0 + i / 30.0))
    assert estimator.jitter == pytest.approx(0.0, abs=1e-9)


def test_constant_delay_shift_zero_jitter():
    """A constant network delay contributes nothing to jitter."""
    estimator = FrameJitterEstimator(90_000)
    for i in range(50):
        estimator.observe(packet(i, i * 3000, 5.0 + i / 30.0))
    assert estimator.jitter == pytest.approx(0.0, abs=1e-9)


def test_delay_variation_creates_jitter():
    rng = random.Random(1)
    estimator = FrameJitterEstimator(90_000)
    for i in range(200):
        noise = rng.uniform(0, 0.010)
        estimator.observe(packet(i, i * 3000, 1.0 + i / 30.0 + noise))
    assert 0.001 < estimator.jitter < 0.010


def test_variable_packetization_corrected():
    """Zoom varies packetization intervals; jitter must correct for the
    media-time gap, not assume a constant frame spacing (§5.4)."""
    estimator = FrameJitterEstimator(90_000)
    rng = random.Random(2)
    t = 1.0
    ts = 0
    for _ in range(100):
        gap = rng.choice([1 / 30.0, 1 / 15.0, 1 / 10.0])  # encoder varies
        t += gap
        ts += int(gap * 90_000)
        estimator.observe(packet(ts // 1000, ts, t))
    # Despite wildly varying frame intervals, transit is constant -> ~0.
    assert estimator.jitter == pytest.approx(0.0, abs=1e-6)


def test_burst_packets_of_same_frame_ignored():
    """Only the first packet of each frame (timestamp) contributes."""
    estimator = FrameJitterEstimator(90_000)
    for i in range(20):
        base = 1.0 + i / 30.0
        estimator.observe(packet(i * 3, i * 3000, base))
        estimator.observe(packet(i * 3 + 1, i * 3000, base + 0.001))
        estimator.observe(packet(i * 3 + 2, i * 3000, base + 0.002))
    assert estimator.jitter == pytest.approx(0.0, abs=1e-9)


def test_long_stream_keeps_the_current_frame():
    """6,000 frames of 3 packets: one sample per frame pair, none spurious."""
    estimator = FrameJitterEstimator(90_000)
    for i in range(18_000):
        frame, j = divmod(i, 3)
        estimator.observe(packet(i, frame * 3000, 1.0 + frame / 30.0 + j * 0.0005))
    assert len(estimator.samples) == 5999
    assert max(s.transit_difference for s in estimator.samples) < 1e-9


def test_fec_ignored():
    estimator = FrameJitterEstimator(90_000)
    estimator.observe(packet(0, 0, 1.0))
    assert estimator.observe(packet(500, 3000, 1.5, payload_type=110)) is None


def test_rtp_unit_conversion():
    estimator = FrameJitterEstimator(90_000)
    estimator.observe(packet(0, 0, 1.0))
    estimator.observe(packet(1, 3000, 1.05))  # 16.7ms late
    assert estimator.jitter_rtp_units == pytest.approx(estimator.jitter * 90_000)


def test_out_of_order_frame_not_sampled():
    estimator = FrameJitterEstimator(90_000)
    estimator.observe(packet(0, 6000, 1.0))
    assert estimator.observe(packet(1, 3000, 1.01)) is None


def test_smoothing_is_one_sixteenth():
    estimator = FrameJitterEstimator(90_000)
    estimator.observe(packet(0, 0, 1.0))
    sample = estimator.observe(packet(1, 3000, 1.0 + 1 / 30.0 + 0.016))
    assert sample.transit_difference == pytest.approx(0.016, abs=1e-9)
    assert sample.jitter == pytest.approx(0.001, abs=1e-6)  # 0.016/16


def test_naive_estimator_overreacts_to_bursts():
    """The ablation case: packet-level interarrival jitter sees frame bursts
    as massive jitter even on a perfect network (§5.4's argument)."""
    naive = NaiveInterarrivalJitter()
    framewise = FrameJitterEstimator(90_000)
    for i in range(50):
        base = 1.0 + i / 30.0
        for j in range(3):  # three back-to-back packets per frame
            p = packet(i * 3 + j, i * 3000, base + j * 0.0002)
            naive.observe(p)
            framewise.observe(p)
    assert framewise.jitter < 1e-6
    assert naive.jitter > 0.003  # orders of magnitude larger, spuriously


def test_sampling_rate_validation():
    with pytest.raises(ValueError):
        FrameJitterEstimator(0)
