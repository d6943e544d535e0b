"""Failure injection: hostile and corrupted input must never crash anything.

The analyzer's deployment position — parsing every UDP payload crossing a
campus border — means it will see garbage constantly: non-Zoom traffic that
slipped the filter, truncated snaplen captures, bit errors, and adversarial
payloads.  Parsers may reject input; they may not raise unexpected
exceptions or corrupt analyzer state.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ZoomAnalyzer
from repro.core.dissector import dissect
from repro.core.entropy import analyze_flow
from repro.core.offset_finder import discover_offsets
from repro.net.packet import CapturedPacket, build_udp_frame, parse_frame
from repro.net.source import IterableSource
from repro.rtp.rtcp import parse_rtcp_compound
from repro.rtp.stun import is_stun
from repro.zoom.packets import parse_zoom_payload


@given(st.binary(min_size=0, max_size=300))
def test_parse_zoom_payload_never_raises(data):
    for from_server in (True, False, None):
        packet = parse_zoom_payload(data, from_server=from_server)
        assert packet.raw == data


@given(st.binary(min_size=0, max_size=300))
def test_dissector_never_raises(data):
    tree = dissect(data)
    assert tree.render()


@given(st.binary(min_size=0, max_size=200))
def test_parse_frame_never_raises(data):
    parsed = parse_frame(data, 1.0)
    assert parsed.raw == data


@given(st.binary(min_size=0, max_size=200))
def test_rtcp_compound_never_raises(data):
    assert isinstance(parse_rtcp_compound(data), list)


@given(st.binary(min_size=0, max_size=100))
def test_is_stun_never_raises(data):
    assert is_stun(data) in (True, False)


@given(st.lists(st.binary(min_size=0, max_size=80), max_size=40))
def test_entropy_sweep_never_raises(payloads):
    reports = analyze_flow(payloads, widths=(1, 2), max_offset=16)
    assert isinstance(reports, list)


@given(st.lists(st.binary(min_size=0, max_size=80), max_size=30))
@settings(max_examples=25)
def test_offset_discovery_never_raises(payloads):
    discovery = discover_offsets(payloads, max_offset=24)
    assert discovery.rtp_offsets is not None


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.binary(min_size=0, max_size=200),
        ),
        max_size=30,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_analyzer_swallows_arbitrary_frames(items, batch_size):
    """Empty frames, runts, garbage and disordered timestamps, through the
    path every in-memory input takes: nothing raised, every frame and byte
    accounted by the analyzer and by the source."""
    packets = [CapturedPacket(timestamp, data) for timestamp, data in items]
    source = IterableSource(packets, batch_size=batch_size)
    result = ZoomAnalyzer().run(source)
    assert result.packets_total == source.packets_emitted == len(packets)
    assert result.bytes_total == source.bytes_emitted == sum(len(d) for _, d in items)


@given(st.binary(min_size=10, max_size=400), st.integers(min_value=1, max_value=0xFFFF))
@settings(max_examples=50)
def test_analyzer_swallows_garbage_on_media_port(payload, port):
    analyzer = ZoomAnalyzer()
    frame = build_udp_frame("10.8.1.2", port, "170.114.1.1", 8801, payload)
    analyzer.analyze([CapturedPacket(1.0, frame)])
    assert analyzer.result.packets_zoom == 1


class TestBitFlipInjection:
    def test_corrupted_meeting_capture_survives(self, sfu_meeting_result):
        """Flip random bits in 10% of a real capture's packets; the analyzer
        must complete and still find the meeting."""
        rng = random.Random(42)
        corrupted = []
        for captured in sfu_meeting_result.captures:
            data = captured.data
            if rng.random() < 0.10:
                buffer = bytearray(data)
                position = rng.randrange(len(buffer))
                buffer[position] ^= 1 << rng.randrange(8)
                data = bytes(buffer)
            corrupted.append(CapturedPacket(captured.timestamp, data))
        result = ZoomAnalyzer().analyze(corrupted)
        assert result.packets_total == len(sfu_meeting_result.captures)
        assert result.meetings  # still groups the meeting

    def test_truncated_snaplen_capture_survives(self, sfu_meeting_result):
        """A 60-byte snaplen (headers only) capture parses without error."""
        analyzer = ZoomAnalyzer()
        analyzer.analyze(
            CapturedPacket(captured.timestamp, captured.data[:60])
            for captured in sfu_meeting_result.captures[:2000]
        )
        assert analyzer.result.packets_total == 2000

    def test_reordered_capture_survives(self, sfu_meeting_result):
        """Captures shuffled within 100-packet windows (broker reordering)."""
        rng = random.Random(7)
        packets = list(sfu_meeting_result.captures[:5000])
        for start in range(0, len(packets), 100):
            window = packets[start : start + 100]
            rng.shuffle(window)
            packets[start : start + 100] = window
        result = ZoomAnalyzer().analyze(packets)
        assert result.packets_zoom == len(packets)
        assert result.meetings
