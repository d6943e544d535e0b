"""Tests for Zoom traffic detection and STUN-based P2P detection (§4.1)."""

import pytest

from repro.core.detector import (
    StunTracker,
    ZoomClass,
    ZoomSubnetMatcher,
    ZoomTrafficDetector,
)
from repro.core.config import AnalyzerConfig
from repro.core.pipeline import ZoomAnalyzer
from repro.net.batch import BatchPrefilter
from repro.net.ethernet import EtherType, EthernetHeader
from repro.net.ip import IPv6Header, addr_from_str, ip_from_str
from repro.net.packet import build_tcp_frame, build_udp_frame, parse_frame
from repro.net.udp import UDPHeader
from repro.rtp.stun import StunMessage

ZOOM = "170.114.10.5"
ZC = "170.114.200.9"
CLIENT = "10.8.1.20"
PEER = "198.18.2.30"


def _udp(src, sport, dst, dport, payload=b"x" * 30, ts=0.0):
    return parse_frame(build_udp_frame(src, sport, dst, dport, payload), ts)


def _stun_request(src, sport, dst=ZC, dport=3478, ts=0.0):
    payload = StunMessage.binding_request(b"abcdefghijkl").serialize()
    return parse_frame(build_udp_frame(src, sport, dst, dport, payload), ts)


class TestSubnetMatcher:
    def test_membership(self):
        matcher = ZoomSubnetMatcher(["170.114.0.0/16"])
        assert "170.114.1.1" in matcher
        assert "170.115.1.1" not in matcher

    def test_multiple_subnets(self):
        matcher = ZoomSubnetMatcher(["170.114.0.0/16", "203.0.113.0/24"])
        assert "203.0.113.200" in matcher
        assert "203.0.114.1" not in matcher

    def test_invalid_ip(self):
        matcher = ZoomSubnetMatcher(["170.114.0.0/16"])
        assert "not-an-ip" not in matcher

    def test_ipv6_subnet(self):
        matcher = ZoomSubnetMatcher(["2001:db8::/32"])
        assert "2001:db8::1" in matcher
        assert "2001:db9::1" not in matcher


    @pytest.mark.parametrize(
        "subnet, inside, outside",
        [
            ("8.0.0.0/7", "9.1.2.3", "10.0.0.1"),  # shorter than /8: missed by
            ("0.0.0.0/1", "100.1.1.1", "200.1.1.1"),  # the old first-octet buckets
            ("203.0.113.7/32", "203.0.113.7", "203.0.113.8"),
            ("2001:db8::/32", "2001:db8:ffff::1", "::ffff:170.114.0.1"),
            ("170.114.0.0/16", "170.114.255.255", "170.114.1"),  # malformed: no match
            ("170.114.0.0/16", "170.114.0.1", "::170.114.0.1"),  # the v4 address's v6 twin
        ],
    )
    def test_string_and_packed_forms_agree(self, subnet, inside, outside):
        matcher = ZoomSubnetMatcher([subnet])
        assert inside in matcher and matcher.contains(addr_from_str(inside))
        assert outside not in matcher
        if outside == "::" + inside:
            # Same low 32 bits, same ports: still two flows and two endpoints.
            v4 = _udp(inside, 5000, ZOOM, 8801)
            datagram = UDPHeader(5000, 8801, 9).serialize() + b"x"
            v6 = parse_frame(
                EthernetHeader(ethertype=EtherType.IPV6).serialize()
                + IPv6Header(
                    src=ip_from_str(outside),
                    dst=ip_from_str("::" + ZOOM),
                    next_header=17,
                    payload_length=len(datagram),
                ).serialize()
                + datagram
            )
            assert v6.src & 0xFFFFFFFF == v4.src and v6.src_ip == "::aa72:1"
            assert (v4.five_tuple, 7) != (v6.five_tuple, 7)  # stream keys
            tracker = StunTracker()
            tracker.learn(v4.src, 5000, now=0.0)
            assert tracker.peek(v4.src, 5000, now=1.0)
            assert not tracker.peek(v6.src, 5000, now=1.0)
            tracker.learn(v6.src, 5000, now=0.0)
            assert len(tracker) == 2
            prefilter = BatchPrefilter([subnet])
            prefilter.sync_stun(tracker)  # IPv4 rules: only the v4 key joins
            assert prefilter.endpoint_keys == {(v4.src << 16) | 5000}


class TestStunTracker:
    def test_learn_and_lookup(self):
        tracker = StunTracker(timeout=10.0)
        tracker.learn(addr_from_str(CLIENT), 52001, now=5.0)
        assert tracker.lookup(addr_from_str(CLIENT), 52001, now=7.0)
        assert not tracker.lookup(addr_from_str(CLIENT), 52002, now=7.0)

    def test_timeout_expiry(self):
        tracker = StunTracker(timeout=10.0)
        tracker.learn(addr_from_str(CLIENT), 52001, now=5.0)
        assert not tracker.lookup(addr_from_str(CLIENT), 52001, now=16.0)

    def test_relearn_refreshes(self):
        tracker = StunTracker(timeout=10.0)
        tracker.learn(addr_from_str(CLIENT), 52001, now=0.0)
        tracker.learn(addr_from_str(CLIENT), 52001, now=9.0)
        assert tracker.lookup(addr_from_str(CLIENT), 52001, now=15.0)

    def test_active_bindings(self):
        tracker = StunTracker(timeout=10.0)
        tracker.learn(addr_from_str(CLIENT), 1, now=0.0)
        tracker.learn(addr_from_str(CLIENT), 2, now=8.0)
        active = tracker.active_bindings(now=11.0)
        assert [(b.client_ip, b.client_port) for b in active] == [(CLIENT, 2)]


class TestDetector:
    def test_server_media_by_port(self):
        detector = ZoomTrafficDetector()
        assert detector.classify(_udp(CLIENT, 50000, ZOOM, 8801)) is ZoomClass.SERVER_MEDIA
        assert detector.classify(_udp(ZOOM, 8801, CLIENT, 50000)) is ZoomClass.SERVER_MEDIA

    def test_server_tls(self):
        detector = ZoomTrafficDetector()
        packet = parse_frame(build_tcp_frame(CLIENT, 40000, ZOOM, 443, seq=1))
        assert detector.classify(packet) is ZoomClass.SERVER_TLS

    def test_server_other_udp_port(self):
        detector = ZoomTrafficDetector()
        assert detector.classify(_udp(CLIENT, 1000, ZOOM, 9999)) is ZoomClass.SERVER_OTHER

    def test_non_zoom(self):
        detector = ZoomTrafficDetector()
        assert detector.classify(_udp(CLIENT, 1000, "8.8.8.8", 53)) is ZoomClass.NOT_ZOOM

    def test_stun_classified_and_learned(self):
        detector = ZoomTrafficDetector()
        assert detector.classify(_stun_request(CLIENT, 52001)) is ZoomClass.SERVER_STUN
        assert detector.stun.lookup(addr_from_str(CLIENT), 52001, now=1.0)

    def test_stun_response_learns_client(self):
        detector = ZoomTrafficDetector()
        payload = StunMessage.binding_response(b"abcdefghijkl", CLIENT, 52001).serialize()
        packet = parse_frame(build_udp_frame(ZC, 3478, CLIENT, 52001, payload), 0.5)
        assert detector.classify(packet) is ZoomClass.SERVER_STUN
        assert detector.stun.lookup(addr_from_str(CLIENT), 52001, now=1.0)

    def test_p2p_detection_after_stun(self):
        """The §4.1 sequence: STUN exchange, then a P2P flow from the same
        client port toward a non-Zoom peer."""
        detector = ZoomTrafficDetector()
        detector.classify(_stun_request(CLIENT, 52001, ts=0.0))
        p2p = _udp(CLIENT, 52001, PEER, 53333, ts=2.0)
        assert detector.classify(p2p) is ZoomClass.P2P_MEDIA
        reverse = _udp(PEER, 53333, CLIENT, 52001, ts=2.1)
        assert detector.classify(reverse) is ZoomClass.P2P_MEDIA

    def test_p2p_not_detected_without_stun(self):
        detector = ZoomTrafficDetector()
        assert detector.classify(_udp(CLIENT, 52001, PEER, 53333)) is ZoomClass.NOT_ZOOM

    def test_p2p_timeout(self):
        detector = ZoomTrafficDetector(stun_timeout=5.0)
        detector.classify(_stun_request(CLIENT, 52001, ts=0.0))
        late = _udp(CLIENT, 52001, PEER, 53333, ts=100.0)
        assert detector.classify(late) is ZoomClass.NOT_ZOOM

    def test_p2p_different_port_not_matched(self):
        detector = ZoomTrafficDetector()
        detector.classify(_stun_request(CLIENT, 52001))
        assert detector.classify(_udp(CLIENT, 52002, PEER, 53333)) is ZoomClass.NOT_ZOOM

    def test_campus_scoping(self):
        """With a campus list, only campus endpoints can be P2P clients."""
        detector = ZoomTrafficDetector(campus_subnets=["10.8.0.0/16"])
        detector.classify(_stun_request(PEER, 53333))  # off-campus STUN learner
        packet = _udp(PEER, 53333, "203.0.114.9", 1000, ts=1.0)
        assert detector.classify(packet) is ZoomClass.NOT_ZOOM

    def test_prefixes_shorter_than_slash8(self):
        """Zoom list and campus gate both match below /8, on the very pairs
        the batch prefilter compiles in (one table)."""
        config = AnalyzerConfig(zoom_subnets=("8.0.0.0/7",), campus_subnets=("0.0.0.0/1",))
        analyzer = ZoomAnalyzer(config)
        detector = analyzer.result.detector
        prefilter = BatchPrefilter.from_plugins(analyzer.plugins)
        assert prefilter.networks_v4 == detector.matcher.v4 == ((8 << 24, 0xFE000000),)
        assert detector.classify(_udp(CLIENT, 50000, "9.1.2.3", 8801)) is ZoomClass.SERVER_MEDIA
        detector.classify(_stun_request(PEER, 53333, dst="9.1.2.3"))  # off-campus learner
        assert detector.classify(_udp(PEER, 53333, "203.0.114.9", 1000, ts=1.0)) is ZoomClass.NOT_ZOOM
        detector.classify(_stun_request(CLIENT, 52001, dst="9.1.2.3"))
        assert detector.classify(_udp(CLIENT, 52001, PEER, 53333, ts=1.0)) is ZoomClass.P2P_MEDIA

    def test_counters(self):
        detector = ZoomTrafficDetector()
        detector.classify(_udp(CLIENT, 50000, ZOOM, 8801))
        detector.classify(_udp(CLIENT, 1000, "8.8.8.8", 53))
        assert detector.counters.total() == 2
        assert detector.counters.zoom_total() == 1
        assert detector.counters.by_class[ZoomClass.SERVER_MEDIA] == 1

    def test_class_predicates(self):
        assert ZoomClass.SERVER_MEDIA.is_zoom and ZoomClass.SERVER_MEDIA.is_media
        assert ZoomClass.P2P_MEDIA.is_media
        assert ZoomClass.SERVER_TLS.is_zoom and not ZoomClass.SERVER_TLS.is_media
        assert not ZoomClass.NOT_ZOOM.is_zoom


class TestDetectorOnSimulatedTraffic:
    def test_all_meeting_packets_classified_zoom(self, sfu_meeting_result):
        detector = ZoomTrafficDetector()
        for captured in sfu_meeting_result.captures:
            packet = parse_frame(captured.data, captured.timestamp)
            assert detector.classify(packet).is_zoom

    def test_p2p_meeting_flows_detected(self, p2p_meeting_result):
        """Every P2P media packet after the STUN exchange is classified."""
        detector = ZoomTrafficDetector()
        p2p_seen = 0
        for captured in p2p_meeting_result.captures:
            packet = parse_frame(captured.data, captured.timestamp)
            klass = detector.classify(packet)
            assert klass.is_zoom, (packet.five_tuple, klass)
            if klass is ZoomClass.P2P_MEDIA:
                p2p_seen += 1
        assert p2p_seen > 100
        assert p2p_meeting_result.p2p_flows
