"""Batch ingestion tests: FrameBatch readers, prefilter safety, the oracle.

``read_batches`` is each capture format's one record walk, so its cases are
asserted directly against the packets that were written — frame bytes,
timestamps at both resolutions and byte orders, ``capture.*`` telemetry,
strict vs tolerant behaviour at every truncation cut, pcapng interface
blocks and multi-section files.  ``feed_batch`` is the one ingest door; its
bulk accounting and drop-safety are held to the per-packet decision tree
run over every frame (``tests/conftest.py:scalar_oracle``).
"""

import io
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AnalyzerConfig, ZoomAnalyzer
from repro.net.batch import BatchPrefilter, FrameBatchBuilder, decode_columns
from repro.net.checksum import internet_checksum
from repro.net.packet import CapturedPacket, _parse_layered, build_udp_frame, parse_frame
from repro.net.pcap import MAGIC_MICROS, MAGIC_NANOS, PcapReader, PcapWriter
from repro.net.pcapng import PcapngReader, PcapngWriter
from repro.rtp.stun import StunMessage
from repro.simulation import quantize_timestamp
from repro.telemetry.registry import Telemetry
from tests.conftest import assert_matches_oracle, feed_batches, scalar_oracle

ZOOM_NET = "170.114.0.0/16"
TXN = bytes(range(12))


def _read(reader, max_frames=4096):
    """``(frames, error)`` off ``read_batches`` — frames yielded before a
    raise are kept, ``error`` is the ``ValueError`` text or ``None``."""
    frames, error = [], None
    try:
        for batch in reader.read_batches(max_frames):
            assert batch.total_caplen == sum(batch.caplens)
            frames.extend((batch.frame(i), batch.timestamps[i]) for i in range(len(batch)))
    except ValueError as exc:
        error = str(exc)
    return frames, error


def _written(packets, resolution=1e-9):
    """What a pcap reader must yield for ``packets`` written at ``resolution``."""
    return [(p.data, quantize_timestamp(p.timestamp, resolution)) for p in packets]


def _written_ng(packets, tsresol=9):
    """Same for pcapng, whose timestamps are one tick count, not two words."""
    return [(p.data, round(p.timestamp * 10**tsresol) / 10**tsresol) for p in packets]


def _capture_counters(packets, **extra):
    return {
        "capture.frames": len(packets),
        "capture.bytes": sum(len(p.data) for p in packets),
        **extra,
    }


def _pcap_bytes(packets, *, nanosecond=True, endian="<"):
    tick = 1e-9 if nanosecond else 1e-6
    magic = MAGIC_NANOS if nanosecond else MAGIC_MICROS
    out = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 262144, 1)
    for p in packets:
        whole = int(p.timestamp)
        frac = round((p.timestamp - whole) / tick)
        out += struct.pack(endian + "IIII", whole, frac, len(p.data), len(p.data)) + p.data
    return out


def _block(endian, block_type, body):
    total = 12 + len(body)
    return struct.pack(endian + "II", block_type, total) + body + struct.pack(endian + "I", total)


def _pcapng_section(packets, *, endian="<", tsresol=9):
    """Section header + one interface (``if_tsresol``) + an EPB per packet."""
    shb = _block(endian, 0x0A0D0D0A, struct.pack(endian + "IHHq", 0x1A2B3C4D, 1, 0, -1))
    options = struct.pack(endian + "HHB3xHH", 9, 1, tsresol, 0, 0)
    idb = _block(endian, 1, struct.pack(endian + "HHI", 1, 0, 262144) + options)
    return shb + idb + _epbs(packets, endian=endian, tsresol=tsresol)


def _epbs(packets, *, endian="<", tsresol=9):
    out = b""
    for p in packets:
        ticks = round(p.timestamp * 10**tsresol)
        size = len(p.data)
        head = struct.pack(endian + "IIIII", 0, ticks >> 32, ticks & 0xFFFFFFFF, size, size)
        out += _block(endian, 6, head + p.data + bytes(-size % 4))
    return out


def _check_every_truncation(reader_cls, whole, last, complete, packets):
    """Cut ``whole`` anywhere inside its final record/block (``last`` bytes).

    Strict: every complete frame is yielded — the partial batch is flushed,
    nothing buffered is lost — and then the read raises; returns the error
    per kept-byte count.  Tolerant: same frames, a clean stop counted once,
    ``next_offset`` left at the last good boundary for a later resume.
    """
    errors = {}
    for cut in range(1, last):
        data = whole[:-cut]
        frames, errors[last - cut] = _read(reader_cls(io.BytesIO(data)), max_frames=4)
        assert frames == complete and errors[last - cut] is not None
        tel = Telemetry()
        tolerant = reader_cls(io.BytesIO(data), tolerant=True, telemetry=tel)
        assert _read(tolerant, max_frames=4) == (complete, None)
        assert tel.counters == _capture_counters(packets, **{"capture.truncated": 1})
        assert tolerant.next_offset == len(whole) - last
    return errors


def _mixed_frames(n=40):
    """Border-style traffic: Zoom media, STUN, P2P, and background noise."""
    frames = []
    for i in range(n):
        kind = i % 5
        ts = 100.0 + 0.01 * i
        if kind == 0:  # Zoom SFU media
            data = build_udp_frame(
                "10.8.0.5", 20000 + i, "170.114.1.1", 8801, b"\x05\x10" + bytes(40)
            )
        elif kind == 1:  # STUN binding request to a Zoom server
            data = build_udp_frame(
                "10.8.0.9", 54321, "170.114.1.2", 3478,
                StunMessage.binding_request(TXN).serialize(),
            )
        elif kind == 2:  # P2P media from the STUN-learned endpoint
            data = build_udp_frame(
                "10.8.0.9", 54321, "192.0.2.44", 9000, bytes(60)
            )
        elif kind == 3:  # background DNS-ish noise: provably not Zoom
            data = build_udp_frame("10.0.0.1", 33000 + i, "8.8.8.8", 53, bytes(30))
        else:  # malformed runt frame (no full Ethernet header)
            data = b"\x01\x02\x03"
        frames.append(CapturedPacket(ts, data))
    return frames


# --------------------------------------------------------------- pcap reader


class TestPcapReadBatches:
    @pytest.mark.parametrize("endian", ["<", ">"], ids=["le", "be"])
    @pytest.mark.parametrize("nanosecond", [True, False])
    def test_yields_what_was_written(self, nanosecond, endian):
        packets = _mixed_frames()
        data = _pcap_bytes(packets, nanosecond=nanosecond, endian=endian)
        tel = Telemetry()
        reader = PcapReader(io.BytesIO(data), telemetry=tel)
        assert reader.header.nanosecond == nanosecond
        assert reader.header.little_endian == (endian == "<")
        frames, error = _read(reader)
        assert error is None
        assert frames == _written(packets, 1e-9 if nanosecond else 1e-6)
        assert tel.counters == _capture_counters(packets)

    def test_max_frames_splits_batches(self):
        packets = _mixed_frames(10)
        buffer = io.BytesIO()
        PcapWriter(buffer).write_all(packets)
        assert buffer.getvalue() == _pcap_bytes(packets)
        buffer.seek(0)
        sizes = [len(b) for b in PcapReader(buffer).read_batches(max_frames=4)]
        assert sizes == [4, 4, 2]

    def test_truncated_tail_strict_and_tolerant_at_every_cut(self):
        packets = _mixed_frames(6)
        last = 16 + len(packets[-1].data)
        errors = _check_every_truncation(
            PcapReader, _pcap_bytes(packets), last, _written(packets[:-1]), packets[:-1]
        )
        assert errors == {
            kept: "truncated pcap " + ("record header" if kept < 16 else "packet data")
            for kept in range(1, last)
        }


# ------------------------------------------------------------- pcapng reader


class TestPcapngReadBatches:
    def test_interface_unknown_and_simple_blocks(self):
        packets = _mixed_frames(8)
        spb_frame = b"\xaa" * 24
        data = (
            _pcapng_section(packets[:4])
            # An unknown block a reader must skip without losing sync.
            + _block("<", 0x0BAD, b"\xde\xad\xbe\xef")
            # A Simple Packet Block: no timestamp, reported at t=0.
            + _block("<", 3, struct.pack("<I", len(spb_frame)) + spb_frame)
            + _epbs(packets[4:])
        )
        tel = Telemetry()
        frames, error = _read(PcapngReader(io.BytesIO(data), telemetry=tel))
        assert error is None
        assert frames == (
            _written_ng(packets[:4]) + [(spb_frame, 0.0)] + _written_ng(packets[4:])
        )
        spb = CapturedPacket(0.0, spb_frame)
        assert tel.counters == _capture_counters(
            packets + [spb], **{"capture.unknown_blocks": 1}
        )

    def test_multi_section_file(self):
        """The second section switches byte order and timestamp resolution."""
        packets = _mixed_frames(6)
        data = _pcapng_section(packets[:3]) + _pcapng_section(
            packets[3:], endian=">", tsresol=6
        )
        frames, error = _read(PcapngReader(io.BytesIO(data)))
        assert error is None
        assert frames == _written_ng(packets[:3]) + _written_ng(packets[3:], 6)

    def test_truncated_flushes_partial_batch(self):
        packets = _mixed_frames(5)
        buffer = io.BytesIO()
        PcapngWriter(buffer).write_all(packets)
        whole = buffer.getvalue()
        assert whole == _pcapng_section(packets)  # the helper writes what the writer does
        last = len(whole) - len(_pcapng_section(packets[:-1]))
        _check_every_truncation(
            PcapngReader, whole, last, _written_ng(packets[:-1]), packets[:-1]
        )


# ------------------------------------------------- property: lazy materialize


def _ipv4_bytes(proto, body, *, options=b"", total_length=None, bad_checksum=False):
    """An IPv4 datagram with any IHL, any ``total_length`` and a header
    checksum that verifies unless ``bad_checksum``."""
    header_len = 20 + len(options)
    total = header_len + len(body) if total_length is None else total_length
    header = bytearray(
        struct.pack("!BBHHHBBH4s4s", 0x40 | header_len // 4, 0, total, 7, 0x4000,
                    64, proto, 0, b"\x0a\x08\x01\x02", b"\xaa\x72\x0a\x05") + options
    )
    struct.pack_into("!H", header, 10, internet_checksum(bytes(header)) ^ bad_checksum)
    return bytes(header) + body


#: Length edges random draws reach only now and then, pinned: the IPv4
#: ``total_length`` or the UDP length cutting a datagram's 12 payload bytes
#: short, and a UDP length under the header's own 8 bytes.
_LENGTH_EDGES = [
    (1.0, b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00" + _ipv4_bytes(
        17, struct.pack("!HHHH", 50000, 8801, udp_length, 0) + bytes(12), total_length=total))
    for udp_length, total in ((20, 32), (12, None), (4, None))
]


@st.composite
def _frames(draw):
    """An untagged / option-less IPv4 / UDP frame — the shape ``parse_frame``
    builds from fixed offsets — with one deviation: a length field off in
    either direction or a snaplen cut (still that shape, trimmed), or
    something only the layered parser takes (VLAN tag, IPv4 options, failing
    checksum, IPv6, TCP, ARP, garbage)."""
    deviation = draw(st.sampled_from([
        "none", "total_length", "udp_length", "snaplen", "vlan", "options",
        "checksum", "ipv6", "tcp", "arp", "garbage",
    ]))
    if deviation == "garbage":
        return draw(st.binary(max_size=120))
    payload = draw(st.binary(max_size=40))
    udp_length = 8 + len(payload)
    if deviation == "udp_length":
        udp_length = draw(st.integers(0, 80))
    l4 = struct.pack("!HHHH", 50000, 8801, udp_length, 0) + payload
    if deviation == "tcp":
        l4 = struct.pack("!HHIIBBHHH", 40000, 443, 1, 2, 0x50, 0x18, 512, 0, 0) + payload
    proto = 6 if deviation == "tcp" else 17
    if deviation == "ipv6":
        l3 = struct.pack("!IHBB", 6 << 28, len(l4), proto, 64) + bytes(range(32)) + l4
    else:
        l3 = _ipv4_bytes(
            proto,
            l4,
            options=b"\x01" * draw(st.sampled_from([4, 40])) if deviation == "options" else b"",
            total_length=draw(st.integers(0, 100)) if deviation == "total_length" else None,
            bad_checksum=deviation == "checksum",
        )
    ethertype = struct.pack("!H", {"ipv6": 0x86DD, "arp": 0x0806}.get(deviation, 0x0800))
    if deviation == "vlan":
        ethertype = struct.pack("!HH", 0x8100, 5) + ethertype
    frame = b"\x02" * 6 + b"\x04" * 6 + ethertype + l3
    if deviation == "snaplen":
        # Anywhere, and one byte either side of each layer's end.
        layer_ends = st.sampled_from([13, 14, 15, 33, 34, 35, 41, 42, 43])
        frame = frame[: draw(st.one_of(st.integers(0, len(frame)), layer_ends))]
    return frame


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e6, allow_nan=False), _frames()),
        max_size=20,
    )
)
@example(_LENGTH_EDGES)
@settings(max_examples=120, deadline=None)
def test_lazy_materialization_is_byte_identical(items):
    """read_batches → materialize equals the layered walk over what was written
    — every stored field, each lazily decoded header object and the flow key —
    on the fixed-offset shape and on every shape ``parse_frame`` hands on."""
    packets = [CapturedPacket(t, d) for t, d in items]
    for writer_cls, reader_cls, written in (
        (PcapWriter, PcapReader, _written),
        (PcapngWriter, PcapngReader, _written_ng),
    ):
        buffer = io.BytesIO()
        writer_cls(buffer).write_all(packets)
        buffer.seek(0)
        batched = []
        for batch in reader_cls(buffer).read_batches():
            batched.extend(batch.materialize(i) for i in range(len(batch)))
        expected = [_parse_layered(data, ts) for data, ts in written(packets)]
        assert batched == expected
        for got, want in zip(batched, expected):
            assert got.five_tuple == want.five_tuple
            for layer in ("ethernet", "ipv4", "ipv6", "udp", "tcp"):
                assert getattr(got, layer) == getattr(want, layer)


# ----------------------------------------------------------- prefilter rules


def _single_frame_verdict(prefilter, data, hint=False):
    builder = FrameBatchBuilder()
    builder.append(data, 1.0, hint=hint)
    batch = builder.build()
    return prefilter.apply(batch, decode_columns(batch)), batch


class TestBatchPrefilter:
    def test_zoom_range_frame_passes(self):
        prefilter = BatchPrefilter([ZOOM_NET])
        verdict, _ = _single_frame_verdict(
            prefilter, build_udp_frame("10.0.0.1", 5000, "170.114.9.9", 8801, b"x")
        )
        assert verdict.survivors == [0] and verdict.dropped == 0

    def test_background_frame_drops_and_scalar_agrees(self):
        prefilter = BatchPrefilter([ZOOM_NET])
        data = build_udp_frame("10.0.0.1", 5000, "8.8.8.8", 53, b"x" * 20)
        verdict, _ = _single_frame_verdict(prefilter, data)
        assert verdict.dropped == 1 and verdict.survivors == []
        # Drop-safety: the per-packet tree calls the same frame NOT_ZOOM,
        # claims nothing and learns nothing.
        expected, claimed, endpoints = scalar_oracle(
            AnalyzerConfig(), [CapturedPacket(1.0, data)]
        )
        assert expected["classify.class.not_zoom"] == 1
        assert not claimed and endpoints == {"zoom": []}

    def test_runt_frame_counts_parse_failure(self):
        prefilter = BatchPrefilter([ZOOM_NET])
        verdict, _ = _single_frame_verdict(prefilter, b"\x01\x02\x03")
        assert verdict.dropped == 1
        assert verdict.parse_failures == 1

    def test_ipv6_always_passes(self):
        prefilter = BatchPrefilter([ZOOM_NET])
        frame = bytes(12) + b"\x86\xdd" + bytes(60)
        verdict, _ = _single_frame_verdict(prefilter, frame)
        assert verdict.survivors == [0]

    def test_stun_learn_within_batch_preserves_later_p2p(self):
        """A P2P frame later in the *same batch* as its STUN preamble must
        survive — the prefilter learns during the apply loop, in order."""
        prefilter = BatchPrefilter([ZOOM_NET])
        stun = build_udp_frame(
            "10.8.0.9", 54321, "170.114.1.2", 3478,
            StunMessage.binding_request(TXN).serialize(),
        )
        p2p = build_udp_frame("10.8.0.9", 54321, "192.0.2.44", 9000, bytes(60))
        builder = FrameBatchBuilder()
        builder.append(stun, 1.0)
        builder.append(p2p, 1.1)
        batch = builder.build()
        verdict = prefilter.apply(batch, decode_columns(batch))
        assert verdict.survivors == [0, 1]

    def test_sync_stun_folds_detector_learns_between_batches(self):
        analyzer = ZoomAnalyzer(AnalyzerConfig(telemetry=True))
        detector = analyzer.result.detector
        prefilter = BatchPrefilter.from_plugins(analyzer.plugins)
        p2p = build_udp_frame("10.8.0.9", 54321, "192.0.2.44", 9000, bytes(60))
        verdict, _ = _single_frame_verdict(prefilter, p2p)
        assert verdict.dropped == 1  # nothing learned yet
        # Scalar-path STUN learn (e.g. a shard hint), then sync.
        analyzer.hint_stun(
            parse_frame(
                build_udp_frame(
                    "10.8.0.9", 54321, "170.114.1.2", 3478,
                    StunMessage.binding_request(TXN).serialize(),
                ),
                1.0,
            )
        )
        prefilter.sync_stun(detector.stun)
        verdict, _ = _single_frame_verdict(prefilter, p2p)
        assert verdict.survivors == [0]

    def test_hint_frames_always_routed_to_hints(self):
        prefilter = BatchPrefilter([ZOOM_NET])
        builder = FrameBatchBuilder()
        builder.append(
            build_udp_frame("10.0.0.1", 5000, "8.8.8.8", 53, b"x"), 1.0, hint=True
        )
        builder.append(
            build_udp_frame("10.0.0.1", 5001, "170.114.9.9", 8801, b"x"), 1.1
        )
        builder.append(
            build_udp_frame(
                "10.8.0.9", 54321, "170.114.1.2", 3478,
                StunMessage.binding_request(TXN).serialize(),
            ),
            1.2,
            hint=True,
        )
        batch = builder.build()
        verdict = prefilter.apply(batch, decode_columns(batch))
        assert verdict.hint_indexes == [0, 2]
        assert verdict.survivors == [1]
        assert verdict.dropped == 0


# ------------------------------------------------------- pipeline vs oracle


class TestFeedBatchEquivalence:
    """``feed_batch`` ≡ the per-packet decision tree over every frame."""

    def _check(self, packets):
        buffer = io.BytesIO()
        PcapWriter(buffer).write_all(packets)
        frames = list(PcapReader(io.BytesIO(buffer.getvalue())))
        analyzer = ZoomAnalyzer(AnalyzerConfig(telemetry=True))
        buffer.seek(0)
        survivors = feed_batches(analyzer, PcapReader(buffer).read_batches(max_frames=16))
        assert_matches_oracle(analyzer, scalar_oracle(analyzer.config, frames), survivors)
        return analyzer.result

    def test_mixed_traffic_bit_identical(self):
        result = self._check(_mixed_frames(100))
        snapshot = result.telemetry_snapshot()
        assert snapshot.counter("prefilter.dropped") > 0
        assert snapshot.counter("prefilter.passed") > 0
        assert snapshot.counter("pipeline.stop.classify") >= snapshot.counter(
            "prefilter.dropped"
        )

    @given(
        st.lists(
            st.binary(min_size=0, max_size=80),
            max_size=25,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_garbage_is_equivalent(self, blobs):
        """Random byte blobs: prefilter drops must account exactly like the
        per-packet tree would have."""
        self._check([CapturedPacket(float(i), blob) for i, blob in enumerate(blobs)])


class TestFrameBatchBuilder:
    def test_zero_length_frames_and_edge_hints(self):
        builder = FrameBatchBuilder()
        frames = [b"", b"\x01\x02", b"", b"\x03"]
        for i, data in enumerate(frames):
            builder.append(data, float(i), hint=i in (0, len(frames) - 1))
        batch = builder.build()
        assert len(builder) == 0  # reset for the next batch
        assert [batch.frame(i) for i in range(len(batch))] == frames
        assert [bytes(d) for d, _ in batch.iter_frames()] == frames
        assert list(batch.hints) == [1, 0, 0, 1]
        assert (batch.total_caplen, batch.last_timestamp) == (3, 3.0)
        verdict = BatchPrefilter([ZOOM_NET]).apply(batch, decode_columns(batch))
        assert verdict.hint_indexes == [0, 3]
        assert (verdict.dropped, verdict.parse_failures) == (2, 2)


# ------------------------------------------------------------ anomaly rule


class TestPrefilterAnomaly:
    def _snapshot(self, passed, dropped):
        tel = Telemetry()
        tel.count("prefilter.passed", passed)
        tel.count("prefilter.dropped", dropped)
        return tel.snapshot()

    def test_full_pass_through_flagged(self):
        from repro.telemetry.anomalies import detect_anomalies

        names = [a.name for a in detect_anomalies(self._snapshot(20_000, 0))]
        assert "prefilter-pass-through" in names

    def test_healthy_drop_rate_not_flagged(self):
        from repro.telemetry.anomalies import detect_anomalies

        names = [a.name for a in detect_anomalies(self._snapshot(15_000, 5_000))]
        assert "prefilter-pass-through" not in names

    def test_small_volume_not_flagged(self):
        from repro.telemetry.anomalies import detect_anomalies

        names = [a.name for a in detect_anomalies(self._snapshot(500, 0))]
        assert "prefilter-pass-through" not in names
