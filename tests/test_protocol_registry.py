"""Protocol plugin registry: config, precedence, conflicts, RTP plugin.

The registry's claim dispatch must be deterministic — two plugins whose
detection rules overlap resolve by ``(priority, name)``, never by
registration order — and overlaps must surface as a ``protocols.conflicts``
counter rather than silently disappearing into precedence.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import (
    KNOWN_PROTOCOLS,
    AnalyzerConfig,
    ProtocolConfig,
)
from repro.core.detector import StunTracker, ZoomClass
from repro.core.pipeline import AnalysisResult, ZoomAnalyzer
from repro.core.stages.base import PacketContext
from repro.core.stages.classify import ClassifyStage
from repro.net.ip import addr_from_str
from repro.net.packet import build_udp_frame, parse_frame
from repro.protocols import (
    PLUGIN_FACTORIES,
    ProtocolPlugin,
    RtpClass,
    RtpPlugin,
    ZoomPlugin,
    build_registry,
    protocol_counter_seeds,
)
from repro.rtp.rtcp import RTCPSenderReport
from repro.rtp.rtp import RTPHeader
from repro.rtp.stun import StunMessage
from repro.telemetry.registry import Telemetry
from repro.zoom.constants import ZoomMediaType


def _udp(src, sport, dst, dport, payload, ts=0.0):
    return parse_frame(build_udp_frame(src, sport, dst, dport, payload), ts)


class _DummyClass:
    """Minimal ProtocolClass implementation for synthetic plugins."""

    def __init__(self, value: str, *, claimed: bool = True, is_media: bool = True):
        self.value = value
        self._claimed = claimed
        self._is_media = is_media

    @property
    def claimed(self) -> bool:
        return self._claimed

    @property
    def is_media(self) -> bool:
        return self._is_media


class _DummyPlugin(ProtocolPlugin):
    """Claims every UDP packet to a fixed destination port."""

    def __init__(self, name: str, priority: int, match_port: int):
        self.name = name
        self.priority = priority
        self.media_class = _DummyClass(f"{name}_media")
        self.classes = (self.media_class,)
        self._port = match_port
        self.claimed_count = 0

    def classify(self, parsed):
        if parsed.is_udp and parsed.dst_port == self._port:
            return self.media_class
        return None

    def would_claim(self, parsed):
        return bool(parsed.is_udp and parsed.dst_port == self._port)

    def on_claimed(self, ctx, result):
        self.claimed_count += 1
        ctx.five_tuple = ctx.parsed.five_tuple
        return False  # no demux stage in these unit tests


def _stage(plugins):
    result = AnalysisResult(telemetry=Telemetry(enabled=True))
    return ClassifyStage(result, plugins), result


def _classify_one(stage, parsed):
    ctx = PacketContext(parsed=parsed)
    advanced = stage.process(ctx)
    return ctx, advanced


class TestProtocolConfig:
    def test_default_is_zoom_only(self):
        assert ProtocolConfig().protocols == ("zoom",)
        assert AnalyzerConfig().protocols.protocols == ("zoom",)

    def test_duplicates_dedupe_first_occurrence_wins(self):
        config = ProtocolConfig(protocols=("rtp", "zoom", "rtp", "zoom"))
        assert config.protocols == ("rtp", "zoom")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ProtocolConfig(protocols=("zoom", "sip"))

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            ProtocolConfig(protocols=())

    def test_factories_cover_every_known_protocol(self):
        assert set(PLUGIN_FACTORIES) == set(KNOWN_PROTOCOLS)


class TestBuildRegistry:
    def test_default_registry_is_single_zoom_plugin(self):
        plugins = build_registry(AnalyzerConfig())
        assert len(plugins) == 1
        assert isinstance(plugins[0], ZoomPlugin)

    def test_registry_order_is_priority_not_config_order(self):
        config = AnalyzerConfig(
            protocols=ProtocolConfig(protocols=("rtp", "zoom"))
        )
        plugins = build_registry(config)
        assert [plugin.name for plugin in plugins] == ["zoom", "rtp"]
        assert plugins[0].priority < plugins[1].priority

    def test_analyzer_back_compat_wraps_detector_in_zoom_plugin(self):
        analyzer = ZoomAnalyzer(AnalyzerConfig())
        assert [plugin.name for plugin in analyzer.plugins] == ["zoom"]
        assert analyzer.plugins[0].detector is analyzer.result.detector

    def test_counter_seeds_present_before_first_packet(self):
        analyzer = ZoomAnalyzer(
            AnalyzerConfig(
                telemetry=True,
                protocols=ProtocolConfig(protocols=("zoom", "rtp")),
            )
        )
        counters = analyzer.result.telemetry_snapshot().counters
        for name in protocol_counter_seeds(["zoom", "rtp"]):
            assert counters[name] == 0

    def test_counter_seed_names(self):
        seeds = protocol_counter_seeds(["zoom", "rtp"])
        assert "protocols.conflicts" in seeds
        assert "protocols.claimed.zoom" in seeds
        assert "protocols.claimed.rtp" in seeds
        assert "protocols.media.rtp" in seeds


class TestPrecedence:
    def test_lower_priority_value_wins(self):
        alpha = _DummyPlugin("alpha", 1, 7000)
        beta = _DummyPlugin("beta", 5, 7000)
        stage, result = _stage([beta, alpha])  # registration order reversed
        ctx, _ = _classify_one(
            stage, _udp("10.0.0.1", 1111, "10.0.0.2", 7000, b"x" * 20)
        )
        assert ctx.protocol == "alpha" and ctx.plugin is alpha
        assert alpha.claimed_count == 1 and beta.claimed_count == 0
        counters = result.telemetry_snapshot().counters
        assert counters["protocols.conflicts"] == 1  # beta would also claim
        assert result.packets_zoom == 1

    def test_priority_tie_breaks_by_name(self):
        first = _DummyPlugin("aardvark", 5, 7000)
        second = _DummyPlugin("zebra", 5, 7000)
        stage, result = _stage([second, first])
        ctx, _ = _classify_one(
            stage, _udp("10.0.0.1", 1111, "10.0.0.2", 7000, b"x" * 20)
        )
        assert ctx.protocol == "aardvark"

    def test_no_conflict_counted_when_other_plugin_abstains(self):
        alpha = _DummyPlugin("alpha", 1, 7000)
        beta = _DummyPlugin("beta", 5, 8000)
        stage, result = _stage([alpha, beta])
        ctx, _ = _classify_one(stage, _udp("10.0.0.1", 1111, "10.0.0.2", 7000, b"x" * 20))
        assert ctx.protocol == "alpha"
        counters = result.telemetry_snapshot().counters
        assert counters.get("protocols.conflicts", 0) == 0

    def test_all_abstain_falls_back_to_not_zoom(self):
        alpha = _DummyPlugin("alpha", 1, 7000)
        stage, result = _stage([alpha])
        ctx, advanced = _classify_one(
            stage, _udp("10.0.0.1", 1111, "10.0.0.2", 9999, b"x" * 20)
        )
        assert advanced is False
        assert ctx.klass is ZoomClass.NOT_ZOOM
        assert ctx.plugin is None and ctx.protocol is None
        assert result.packets_zoom == 0

    @given(
        order=st.permutations(
            [("alpha", 3), ("beta", 1), ("gamma", 1), ("delta", 4)]
        )
    )
    def test_claimant_independent_of_registration_order(self, order):
        plugins = [_DummyPlugin(name, prio, 7000) for name, prio in order]
        stage, result = _stage(plugins)
        ctx, _ = _classify_one(
            stage, _udp("10.0.0.1", 1111, "10.0.0.2", 7000, b"x" * 20)
        )
        # All four match; min (priority, name) is always ("beta", 1).
        assert ctx.protocol == "beta"
        counters = result.telemetry_snapshot().counters
        # Everything sorted after the claimant also matches -> 3 conflicts.
        assert counters["protocols.conflicts"] == 3

    @given(claiming=st.integers(min_value=1, max_value=5))
    def test_conflict_count_matches_overlap_size(self, claiming):
        plugins = [
            _DummyPlugin(f"p{index}", index, 7000) for index in range(claiming)
        ]
        stage, result = _stage(plugins)
        _classify_one(stage, _udp("10.0.0.1", 1111, "10.0.0.2", 7000, b"x" * 20))
        counters = result.telemetry_snapshot().counters
        assert counters.get("protocols.conflicts", 0) == claiming - 1


class TestStunPeek:
    ENDPOINT_IP = addr_from_str("10.0.0.1")

    def test_peek_matches_lookup_without_refreshing(self):
        tracker = StunTracker(timeout=10.0)
        tracker.learn(self.ENDPOINT_IP, 5000, 0.0)
        assert tracker.peek(self.ENDPOINT_IP, 5000, 9.0) is True
        # peek at 9.0 must NOT have refreshed the binding: at 10.5 the
        # original learn (t=0) has expired.
        assert tracker.peek(self.ENDPOINT_IP, 5000, 10.5) is False

    def test_lookup_refresh_extends_where_peek_does_not(self):
        tracker = StunTracker(timeout=10.0)
        tracker.learn(self.ENDPOINT_IP, 5000, 0.0)
        assert tracker.lookup(self.ENDPOINT_IP, 5000, 9.0, refresh=True) is True
        assert tracker.peek(self.ENDPOINT_IP, 5000, 15.0) is True  # refreshed at 9

    def test_peek_expired_does_not_delete_binding(self):
        tracker = StunTracker(timeout=10.0)
        tracker.learn(self.ENDPOINT_IP, 5000, 0.0)
        assert tracker.peek(self.ENDPOINT_IP, 5000, 20.0) is False
        assert len(tracker) == 1  # expiry stays lazy; purge() reaps


class TestRtpPlugin:
    CALLER = ("10.8.1.1", 50000)
    CALLEE = ("198.18.9.9", 60000)

    def _plugin_with_flow(self):
        plugin = RtpPlugin()
        stun = StunMessage.binding_request(b"abcdefghijkl").serialize()
        parsed = _udp(*self.CALLER, *self.CALLEE, stun)
        assert plugin.classify(parsed) is RtpClass.RTP_STUN
        return plugin

    def _dissect(self, plugin, parsed, klass):
        result = AnalysisResult(telemetry=Telemetry(enabled=True))
        ctx = PacketContext(parsed=parsed)
        ctx.klass, ctx.plugin = klass, plugin
        assert plugin.on_claimed(ctx, result) is True
        advanced = plugin.dissect(ctx, result, result.telemetry)
        return ctx, result, advanced

    def test_media_unclaimed_without_prior_stun(self):
        plugin = RtpPlugin()
        rtp = RTPHeader(
            payload_type=96, sequence=1, timestamp=1000, ssrc=7
        ).serialize() + b"p" * 20
        assert plugin.classify(_udp(*self.CALLER, *self.CALLEE, rtp)) is None

    def test_video_marker_synthesizes_one_packet_frame(self):
        plugin = self._plugin_with_flow()
        rtp = RTPHeader(
            payload_type=96, sequence=5, timestamp=9000, ssrc=7, marker=True
        ).serialize() + b"p" * 20
        parsed = _udp(*self.CALLER, *self.CALLEE, rtp, ts=1.0)
        klass = plugin.classify(parsed)
        assert klass is RtpClass.RTP_MEDIA
        ctx, result, advanced = self._dissect(plugin, parsed, klass)
        assert advanced is True
        record = ctx.record
        assert record is not None
        assert record.protocol == "rtp"
        assert record.media_type == int(ZoomMediaType.VIDEO)
        assert record.packets_in_frame == 1  # marker closes the frame
        assert record.frame_sequence == 5
        assert record.is_p2p is True

    def test_non_marker_video_does_not_close_a_frame(self):
        plugin = self._plugin_with_flow()
        rtp = RTPHeader(
            payload_type=96, sequence=6, timestamp=9000, ssrc=7, marker=False
        ).serialize() + b"p" * 20
        parsed = _udp(*self.CALLER, *self.CALLEE, rtp, ts=1.0)
        ctx, _, _ = self._dissect(plugin, parsed, plugin.classify(parsed))
        assert ctx.record.packets_in_frame == 0

    def test_audio_payload_type_maps_to_audio_media(self):
        plugin = self._plugin_with_flow()
        rtp = RTPHeader(
            payload_type=111, sequence=2, timestamp=480, ssrc=9
        ).serialize() + b"a" * 40
        parsed = _udp(*self.CALLER, *self.CALLEE, rtp, ts=0.5)
        ctx, _, _ = self._dissect(plugin, parsed, plugin.classify(parsed))
        assert ctx.record.media_type == int(ZoomMediaType.AUDIO)
        assert ctx.record.packets_in_frame == 0  # audio has no frames

    def test_rtcp_sender_report_observed_not_recorded(self):
        plugin = self._plugin_with_flow()
        report = RTCPSenderReport(
            ssrc=7,
            ntp_seconds=1,
            ntp_fraction=2,
            rtp_timestamp=3,
            packet_count=4,
            octet_count=5,
        ).serialize()
        parsed = _udp(*self.CALLER, *self.CALLEE, report, ts=2.0)
        klass = plugin.classify(parsed)
        assert klass is RtpClass.RTP_MEDIA  # RFC 5761: muxed on the flow
        ctx, result, advanced = self._dissect(plugin, parsed, klass)
        assert advanced is False  # RTCP ends at the observers
        assert ctx.record is None
        assert result.rtcp_sender_reports == 1
        assert result.sync.report_count(7) == 1

    def test_would_claim_does_not_refresh_binding(self):
        plugin = RtpPlugin(stun_timeout=10.0)
        stun = StunMessage.binding_request(b"abcdefghijkl").serialize()
        plugin.classify(_udp(*self.CALLER, *self.CALLEE, stun, ts=0.0))
        rtp = RTPHeader(
            payload_type=96, sequence=1, timestamp=0, ssrc=7
        ).serialize() + b"p" * 20
        assert plugin.would_claim(_udp(*self.CALLER, *self.CALLEE, rtp, ts=9.0))
        # The probe at t=9 must not have refreshed: the flow is gone at 11.
        assert plugin.classify(_udp(*self.CALLER, *self.CALLEE, rtp, ts=11.0)) is None


class TestZoomRtpConflict:
    def test_zoom_claim_over_rtp_counts_conflict(self):
        """A STUN-learned P2P flow both plugins can claim resolves to Zoom
        (priority 0 < 10) and ticks ``protocols.conflicts``."""
        config = AnalyzerConfig(
            telemetry=True,
            protocols=ProtocolConfig(protocols=("zoom", "rtp")),
        )
        analyzer = ZoomAnalyzer(config)
        stage = ClassifyStage(analyzer.result, analyzer.plugins)
        # STUN to a Zoom zone controller: the Zoom detector learns the
        # client endpoint; the generic plugin's sniff-all tracker learns
        # both ends of the exchange.
        stun = StunMessage.binding_request(b"abcdefghijkl").serialize()
        _classify_one(
            stage, _udp("10.8.1.1", 50000, "170.114.200.9", 3478, stun)
        )
        # Plain RTP on the learned endpoint: claimable by both plugins.
        rtp = RTPHeader(
            payload_type=96, sequence=1, timestamp=0, ssrc=7
        ).serialize() + b"p" * 20
        ctx, _ = _classify_one(
            stage, _udp("10.8.1.1", 50000, "198.18.9.9", 60000, rtp, ts=0.5)
        )
        assert ctx.protocol == "zoom"
        counters = analyzer.result.telemetry_snapshot().counters
        assert counters["protocols.conflicts"] >= 1
