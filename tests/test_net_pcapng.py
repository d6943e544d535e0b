"""Tests for the pcapng writer and the write → read round trip.

Block-level reader behaviour (unknown and simple blocks, multi-section
files, every truncation cut) is pinned, for both capture formats, by the
reader cases of ``tests/test_net_batch.py``.
"""

import io
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.packet import CapturedPacket, build_udp_frame
from repro.net.pcapng import (
    BLOCK_SHB,
    PcapngReader,
    PcapngWriter,
    write_pcapng,
)


def _packets(n=3):
    return [
        CapturedPacket(
            10.0 + i * 0.123456789,
            build_udp_frame("10.8.0.1", 1000 + i, "170.114.0.1", 8801, bytes([i]) * 20),
        )
        for i in range(n)
    ]


def test_roundtrip_file(tmp_path):
    path = tmp_path / "trace.pcapng"
    assert write_pcapng(path, _packets(5)) == 5
    restored = list(PcapngReader(path))
    assert len(restored) == 5


def test_starts_with_shb(tmp_path):
    path = tmp_path / "t.pcapng"
    write_pcapng(path, _packets(1))
    (magic,) = struct.unpack("<I", path.read_bytes()[:4])
    assert magic == BLOCK_SHB


def test_nanosecond_resolution_preserved():
    buffer = io.BytesIO()
    PcapngWriter(buffer).write(CapturedPacket(1.000000001, b"x" * 14))
    buffer.seek(0)
    packet = next(iter(PcapngReader(buffer)))
    assert packet.timestamp == pytest.approx(1.000000001, abs=1e-10)


def test_not_pcapng_rejected():
    with pytest.raises(ValueError):
        PcapngReader(io.BytesIO(b"\x00" * 32))


def test_read_capture_autodetect(tmp_path):
    from repro.net.pcap import write_pcap
    from repro.net.source import open_capture_source

    packets = _packets(2)
    pcap_path = tmp_path / "a.pcap"
    pcapng_path = tmp_path / "a.pcapng"
    write_pcap(pcap_path, packets)
    write_pcapng(pcapng_path, packets)
    for path in (pcap_path, pcapng_path):
        with open_capture_source(path) as source:
            assert [p.raw for p in source] == [p.data for p in packets]


def test_analyzer_accepts_pcapng(tmp_path, sfu_meeting_result):
    from repro.core import ZoomAnalyzer

    path = tmp_path / "meeting.pcapng"
    write_pcapng(path, sfu_meeting_result.captures[:3000])
    result = ZoomAnalyzer().run(path)
    assert result.packets_total == 3000
    assert result.packets_zoom == 3000


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.binary(min_size=0, max_size=120),
), max_size=15))
def test_roundtrip_property(items):
    packets = [CapturedPacket(t, d) for t, d in items]
    buffer = io.BytesIO()
    PcapngWriter(buffer).write_all(packets)
    buffer.seek(0)
    restored = list(PcapngReader(buffer))
    assert [p.data for p in restored] == [p.data for p in packets]
    for original, new in zip(packets, restored):
        assert abs(original.timestamp - new.timestamp) < 1e-8
