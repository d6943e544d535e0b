"""Tests for both latency estimation methods (§5.3, Figure 11)."""

import pytest

from repro.core.metrics.latency import RTPLatencyMatcher, TCPRTTEstimator
from repro.core.streams import RTPPacketRecord
from repro.net.ip import addr_from_str
from repro.net.packet import build_tcp_frame, parse_frame
from repro.net.tcp import TCPFlags

EGRESS_FT = ("10.8.1.2", 50001, "170.114.10.5", 8801, 17)
INGRESS_FT = ("170.114.10.5", 8801, "10.8.1.3", 50011, 17)


def rtp_record(five_tuple, *, seq, ts, t, to_server, ssrc=0x110, payload_type=98):
    return RTPPacketRecord(
        timestamp=t,
        five_tuple=five_tuple,
        ssrc=ssrc,
        payload_type=payload_type,
        sequence=seq,
        rtp_timestamp=ts,
        marker=False,
        media_type=16,
        payload_len=500,
        udp_payload_len=550,
        to_server=to_server,
    )


class TestRTPMatcher:
    def test_matching_copy_produces_sample(self):
        matcher = RTPLatencyMatcher()
        matcher.observe(rtp_record(EGRESS_FT, seq=5, ts=100, t=1.000, to_server=True))
        sample = matcher.observe(
            rtp_record(INGRESS_FT, seq=5, ts=100, t=1.034, to_server=False)
        )
        assert sample is not None
        assert sample.rtt == pytest.approx(0.034)
        assert sample.ssrc == 0x110

    def test_requires_all_four_fields(self):
        """Time, SSRC, sequence, and timestamp all must match (§4.3.1)."""
        matcher = RTPLatencyMatcher()
        matcher.observe(rtp_record(EGRESS_FT, seq=5, ts=100, t=1.0, to_server=True))
        assert matcher.observe(rtp_record(INGRESS_FT, seq=6, ts=100, t=1.03, to_server=False)) is None
        assert matcher.observe(rtp_record(INGRESS_FT, seq=5, ts=101, t=1.03, to_server=False)) is None
        assert (
            matcher.observe(
                rtp_record(INGRESS_FT, seq=5, ts=100, t=1.03, to_server=False, ssrc=0x111)
            )
            is None
        )

    def test_substreams_matched_separately(self):
        matcher = RTPLatencyMatcher()
        matcher.observe(rtp_record(EGRESS_FT, seq=5, ts=100, t=1.0, to_server=True, payload_type=98))
        assert (
            matcher.observe(
                rtp_record(INGRESS_FT, seq=5, ts=100, t=1.03, to_server=False, payload_type=110)
            )
            is None
        )

    def test_stale_match_discarded(self):
        matcher = RTPLatencyMatcher(max_rtt=2.0)
        matcher.observe(rtp_record(EGRESS_FT, seq=5, ts=100, t=1.0, to_server=True))
        assert matcher.observe(rtp_record(INGRESS_FT, seq=5, ts=100, t=9.0, to_server=False)) is None

    def test_retransmitted_egress_keeps_first_time(self):
        """A retransmitted egress copy must not shrink the measured RTT."""
        matcher = RTPLatencyMatcher()
        matcher.observe(rtp_record(EGRESS_FT, seq=5, ts=100, t=1.0, to_server=True))
        matcher.observe(rtp_record(EGRESS_FT, seq=5, ts=100, t=1.2, to_server=True))
        sample = matcher.observe(rtp_record(INGRESS_FT, seq=5, ts=100, t=1.25, to_server=False))
        assert sample.rtt == pytest.approx(0.25)

    def test_p2p_records_not_matched(self):
        matcher = RTPLatencyMatcher()
        assert matcher.observe(rtp_record(EGRESS_FT, seq=5, ts=100, t=1.0, to_server=None)) is None

    def test_multiple_receivers_multiple_samples(self):
        matcher = RTPLatencyMatcher()
        matcher.observe(rtp_record(EGRESS_FT, seq=5, ts=100, t=1.0, to_server=True))
        other_ingress = ("170.114.10.5", 8801, "10.8.1.4", 50021, 17)
        assert matcher.observe(rtp_record(INGRESS_FT, seq=5, ts=100, t=1.03, to_server=False))
        assert matcher.observe(rtp_record(other_ingress, seq=5, ts=100, t=1.04, to_server=False))
        assert matcher.matched == 2

    def test_samples_for_filter(self):
        matcher = RTPLatencyMatcher()
        matcher.observe(rtp_record(EGRESS_FT, seq=5, ts=100, t=1.0, to_server=True))
        matcher.observe(rtp_record(INGRESS_FT, seq=5, ts=100, t=1.03, to_server=False))
        assert len(matcher.samples_for(0x110)) == 1
        assert matcher.samples_for(0x999) == []

    def test_pending_bounded(self):
        matcher = RTPLatencyMatcher(max_pending=10)
        for i in range(100):
            matcher.observe(rtp_record(EGRESS_FT, seq=i, ts=i, t=1.0 + i * 0.01, to_server=True))
        assert len(matcher._egress) <= 10


class TestTCPEstimator:
    CLIENT = "10.8.1.2"
    SERVER = "170.114.10.5"

    def _estimator(self):
        return TCPRTTEstimator(addr_from_str(self.CLIENT), addr_from_str(self.SERVER))

    def _packet(self, src, sport, dst, dport, *, seq, ack, flags, payload=b"", t=0.0):
        return parse_frame(
            build_tcp_frame(src, sport, dst, dport, seq=seq, ack=ack, flags=flags, payload=payload),
            t,
        )

    def test_server_side_rtt(self):
        estimator = self._estimator()
        estimator.observe(self._packet(
            self.CLIENT, 40000, self.SERVER, 443,
            seq=1000, ack=0, flags=TCPFlags.ACK | TCPFlags.PSH, payload=b"x" * 50, t=1.0,
        ))
        sample = estimator.observe(self._packet(
            self.SERVER, 443, self.CLIENT, 40000,
            seq=0, ack=1050, flags=TCPFlags.ACK, t=1.042,
        ))
        assert sample is not None
        assert sample.rtt == pytest.approx(0.042)
        assert len(estimator.server_samples) == 1

    def test_client_side_rtt(self):
        estimator = self._estimator()
        estimator.observe(self._packet(
            self.SERVER, 443, self.CLIENT, 40000,
            seq=5000, ack=0, flags=TCPFlags.ACK | TCPFlags.PSH, payload=b"y" * 30, t=2.0,
        ))
        sample = estimator.observe(self._packet(
            self.CLIENT, 40000, self.SERVER, 443,
            seq=0, ack=5030, flags=TCPFlags.ACK, t=2.004,
        ))
        assert sample is not None
        assert sample.rtt == pytest.approx(0.004)
        assert len(estimator.client_samples) == 1

    def test_unrelated_flow_ignored(self):
        estimator = self._estimator()
        packet = self._packet("9.9.9.9", 1, "8.8.8.8", 2, seq=0, ack=0, flags=TCPFlags.ACK)
        assert estimator.observe(packet) is None

    def test_retransmission_not_resampled(self):
        """Karn's algorithm: the retransmitted segment keeps the original
        send time, so an ambiguous RTT sample is avoided by not updating."""
        estimator = self._estimator()
        first = self._packet(self.CLIENT, 40000, self.SERVER, 443,
                             seq=1000, ack=0, flags=TCPFlags.ACK, payload=b"x" * 50, t=1.0)
        estimator.observe(first)
        retransmit = self._packet(self.CLIENT, 40000, self.SERVER, 443,
                                  seq=1000, ack=0, flags=TCPFlags.ACK, payload=b"x" * 50, t=1.5)
        estimator.observe(retransmit)
        sample = estimator.observe(self._packet(
            self.SERVER, 443, self.CLIENT, 40000, seq=0, ack=1050, flags=TCPFlags.ACK, t=1.6,
        ))
        assert sample.rtt == pytest.approx(0.6)

    def test_asymmetry_localizes_congestion(self):
        estimator = self._estimator()
        estimator.observe(self._packet(self.CLIENT, 1, self.SERVER, 443,
                                       seq=0, ack=0, flags=TCPFlags.ACK, payload=b"x", t=1.0))
        estimator.observe(self._packet(self.SERVER, 443, self.CLIENT, 1,
                                       seq=0, ack=1, flags=TCPFlags.ACK, t=1.040))
        estimator.observe(self._packet(self.SERVER, 443, self.CLIENT, 1,
                                       seq=100, ack=0, flags=TCPFlags.ACK, payload=b"y", t=2.0))
        estimator.observe(self._packet(self.CLIENT, 1, self.SERVER, 443,
                                       seq=0, ack=101, flags=TCPFlags.ACK, t=2.002))
        # Server leg ~40ms, client leg ~2ms: congestion is upstream.
        assert estimator.asymmetry() == pytest.approx(0.038, abs=1e-6)

    def test_asymmetry_needs_both_sides(self):
        estimator = self._estimator()
        assert estimator.asymmetry() is None
