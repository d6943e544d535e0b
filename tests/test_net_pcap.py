"""Tests for pcap writing and the write → read round trip.

What the reader does with each byte order, timestamp resolution and
truncation cut is pinned, for both capture formats, by the reader cases of
``tests/test_net_batch.py``.
"""

import io
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.packet import CapturedPacket, build_udp_frame
from repro.net.pcap import (
    MAGIC_MICROS,
    MAGIC_NANOS,
    PcapReader,
    PcapWriter,
    write_pcap,
)


def _sample_packets(n=3):
    return [
        CapturedPacket(1.0 + 0.123456 * i, build_udp_frame("1.2.3.4", i + 1, "5.6.7.8", 80, bytes([i])))
        for i in range(n)
    ]


def test_roundtrip_microsecond():
    buffer = io.BytesIO()
    PcapWriter(buffer, nanosecond=False).write_all(_sample_packets())
    buffer.seek(0)
    reader = PcapReader(buffer)
    assert not reader.header.nanosecond
    for original, restored in zip(_sample_packets(), reader):
        assert abs(original.timestamp - restored.timestamp) < 1e-5


def test_file_roundtrip(tmp_path):
    path = tmp_path / "trace.pcap"
    packets = _sample_packets(5)
    count = write_pcap(path, packets)
    assert count == 5
    restored = list(PcapReader(path))
    assert len(restored) == 5
    assert restored[2].data == packets[2].data
    assert abs(restored[4].timestamp - packets[4].timestamp) < 1e-8


def test_global_header_magic():
    buffer = io.BytesIO()
    PcapWriter(buffer, nanosecond=True)
    (magic,) = struct.unpack("<I", buffer.getvalue()[:4])
    assert magic == MAGIC_NANOS
    buffer2 = io.BytesIO()
    PcapWriter(buffer2, nanosecond=False)
    (magic2,) = struct.unpack("<I", buffer2.getvalue()[:4])
    assert magic2 == MAGIC_MICROS


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        PcapReader(io.BytesIO(b"\x00" * 24))


def test_short_global_header_rejected():
    with pytest.raises(ValueError):
        PcapReader(io.BytesIO(b"\x00" * 10))


def test_fractional_rounding_never_overflows_second():
    """Timestamps just below a second boundary must not emit frac >= 1e9."""
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    writer.write(CapturedPacket(1.9999999999, b"x"))
    buffer.seek(0)
    packets = list(PcapReader(buffer))
    assert abs(packets[0].timestamp - 2.0) < 1e-8


def test_packets_written_counter():
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    writer.write_all(_sample_packets(4))
    assert writer.packets_written == 4


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e7, allow_nan=False),
    st.binary(min_size=0, max_size=200),
), max_size=20))
def test_roundtrip_property(items):
    packets = [CapturedPacket(t, d) for t, d in items]
    buffer = io.BytesIO()
    PcapWriter(buffer).write_all(packets)
    buffer.seek(0)
    restored = list(PcapReader(buffer))
    assert [p.data for p in restored] == [p.data for p in packets]
    for original, new in zip(packets, restored):
        assert abs(original.timestamp - new.timestamp) < 1e-8
