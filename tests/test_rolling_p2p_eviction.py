"""Regression tests: idle-stream eviction treats P2P streams consistently.

P2P streams never see a server packet, so their classification rests on the
STUN-learned endpoint table.  Two historical inconsistencies versus
server-relayed streams:

* an *active* P2P flow outliving ``stun_timeout`` stopped being classified
  mid-stream (media never refreshed the binding), so the rolling sweep later
  finalized a stream that was in fact still running, with a truncated packet
  count;
* STUN bindings for endpoints that never sent media were only expired lazily
  (on a lookup of that exact endpoint), so detector state grew without bound
  in continuous operation — the exact failure mode the sweep exists to
  prevent.
"""

from repro.core import AnalyzerConfig, ZoomAnalyzer
from repro.net.packet import CapturedPacket, build_udp_frame
from repro.rtp.rtp import RTPHeader
from repro.rtp.stun import StunMessage
from repro.zoom.constants import ZoomMediaType
from repro.zoom.media_encap import MediaEncap
from repro.zoom.packets import build_media_payload

ZC = "170.114.200.9"  # Zoom zone controller (inside the published subnets)
CLIENT = "10.8.1.20"
IDLE_CLIENT = "10.8.1.21"  # STUNs but never sends media
PEER = "198.18.2.30"
P2P_PORT = 52001


def _stun_frame(ts: float, client: str = CLIENT, port: int = P2P_PORT) -> CapturedPacket:
    payload = StunMessage.binding_request(b"abcdefghijkl").serialize()
    return CapturedPacket(ts, build_udp_frame(client, port, ZC, 3478, payload))


def _p2p_media_frame(ts: float, seq: int) -> CapturedPacket:
    payload = build_media_payload(
        media=MediaEncap(
            media_type=ZoomMediaType.AUDIO,
            sequence=seq & 0xFFFF,
            timestamp=(seq * 640) & 0xFFFFFFFF,
        ),
        rtp=RTPHeader(
            payload_type=112,
            sequence=seq & 0xFFFF,
            timestamp=(seq * 640) & 0xFFFFFFFF,
            ssrc=0x99,
        ),
        rtp_payload=b"a" * 60,
    )
    return CapturedPacket(ts, build_udp_frame(CLIENT, P2P_PORT, PEER, 53000, payload))


def _long_p2p_capture(duration: float = 400.0) -> list[CapturedPacket]:
    """One STUN exchange, then one P2P audio packet per second — a flow that
    outlives the default 120 s STUN timeout more than threefold."""
    packets = [_stun_frame(0.0)]
    packets.extend(
        _p2p_media_frame(1.0 + second, seq=second) for second in range(int(duration))
    )
    return packets


class TestActiveP2PFlowOutlivesStunTimeout:
    def test_offline_stream_not_cut_mid_flow(self):
        captures = _long_p2p_capture()
        result = ZoomAnalyzer(AnalyzerConfig(stun_timeout=120.0)).analyze(captures)
        streams = result.media_streams()
        assert len(streams) == 1
        (stream,) = streams
        assert stream.is_p2p
        # Every media packet lands on the one stream; before the binding
        # refresh the count froze around the 120 s mark.
        assert stream.packets == 400
        assert stream.last_time > 390.0

    def test_rolling_finalizes_full_stream_once_idle(self):
        captures = _long_p2p_capture()
        config = AnalyzerConfig(
            stun_timeout=120.0,
            rolling=True,
            rolling_idle_timeout=60.0,
            rolling_sweep_interval=10.0,
            batch_size=1,  # sweep check per packet: ~40 sweeps mid-flow
        )
        finalized = []
        rolling = ZoomAnalyzer(config)
        rolling.eviction_hooks.append(finalized.append)
        rolling.analyze(captures)
        # Active throughout the capture: nothing may be evicted mid-flow.
        assert rolling.eviction.streams_evicted == 0
        assert len(rolling.result.streams) == 1
        # Idle for longer than the idle timeout: the sweep finalizes it with
        # the complete packet count, same as a server stream would be.
        rolling.eviction.sweep(captures[-1].timestamp + 61.0)
        assert len(rolling.result.streams) == 0
        assert len(finalized) == 1
        assert finalized[0].packets == 400


class TestSweepPurgesStunState:
    def test_expired_bindings_dropped_by_sweep(self):
        captures = [_stun_frame(0.0, IDLE_CLIENT, 60001), *_long_p2p_capture(30.0)]
        config = AnalyzerConfig(
            stun_timeout=120.0, rolling=True, rolling_idle_timeout=60.0
        )
        rolling = ZoomAnalyzer(config)
        rolling.analyze(captures)
        tracker = rolling.result.detector.stun
        # Both the media-carrying endpoint and the idle one are remembered.
        assert len(tracker) == 2
        rolling.eviction.sweep(1000.0)
        # Well past the STUN timeout: the sweep purges both (the idle
        # endpoint would otherwise linger forever — it is never looked up).
        assert len(tracker) == 0

    def test_purge_keeps_fresh_bindings(self):
        captures = _long_p2p_capture(30.0)
        config = AnalyzerConfig(
            stun_timeout=120.0, rolling=True, rolling_idle_timeout=200.0
        )
        rolling = ZoomAnalyzer(config)
        rolling.analyze(captures)
        tracker = rolling.result.detector.stun
        assert len(tracker) == 1
        # Media refreshed the binding until ~t=30, so at t=100 it is alive.
        rolling.eviction.sweep(100.0)
        assert len(tracker) == 1

    def test_purge_counted_in_telemetry(self):
        captures = [_stun_frame(0.0, IDLE_CLIENT, 60001)]
        config = AnalyzerConfig(stun_timeout=10.0, rolling=True, telemetry=True)
        rolling = ZoomAnalyzer(config)
        rolling.analyze(captures)
        rolling.eviction.sweep(100.0)
        snapshot = rolling.result.telemetry_snapshot()
        assert snapshot.counter("rolling.stun_purged") == 1
