"""Batch ingestion tests: FrameBatch readers, prefilter safety, equivalence.

The raw-batch path's correctness contract is *bit-identical* results: the
same frame sequence out of the batch readers as out of the scalar readers,
and the same analysis out of ``feed_batch`` for a raw buffer as for a
prepared batch of the same frames parsed one by one.  These tests
pin that contract directly (golden scenarios are covered separately in
``test_golden_e2e.py`` / ``test_source_equivalence.py``), including the
awkward inputs — truncated records, malformed frames, pcapng interface
blocks, multi-section files — where fast paths usually diverge first.
"""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalyzerConfig, ZoomAnalyzer
from repro.net.batch import (
    BatchPrefilter,
    FrameBatchBuilder,
    decode_columns,
    prepared_frame_batch,
)
from repro.net.packet import CapturedPacket, build_udp_frame, parse_frame
from repro.net.pcap import PcapReader, PcapWriter
from repro.net.pcapng import PcapngReader, PcapngWriter
from repro.rtp.stun import StunMessage
from repro.telemetry.registry import Telemetry, shard_invariant_counters
from tests.conftest import feed_prepared

ZOOM_NET = "170.114.0.0/16"
TXN = bytes(range(12))


def _batch_frames(reader):
    """All (frame bytes, timestamp) pairs off a reader's batch interface."""
    out = []
    for batch in reader.read_batches():
        assert batch.total_caplen == sum(batch.caplens)
        for i in range(len(batch)):
            out.append((batch.frame(i), batch.timestamps[i]))
    return out


def _scalar_frames(reader):
    return [(p.data, p.timestamp) for p in reader]


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
    @pytest.mark.parametrize("nanosecond", [True, False])
    def test_matches_scalar(self, nanosecond):
        packets = _mixed_frames()
        buffer = io.BytesIO()
        PcapWriter(buffer, nanosecond=nanosecond).write_all(packets)
        scalar = _scalar_frames(PcapReader(io.BytesIO(buffer.getvalue())))
        batched = _batch_frames(PcapReader(io.BytesIO(buffer.getvalue())))
        assert batched == scalar

    def test_max_frames_splits_batches(self):
        packets = _mixed_frames(10)
        buffer = io.BytesIO()
        PcapWriter(buffer).write_all(packets)
        buffer.seek(0)
        sizes = [len(b) for b in PcapReader(buffer).read_batches(max_frames=4)]
        assert sizes == [4, 4, 2]
        assert sum(sizes) == 10

    def test_telemetry_counters_match_scalar(self):
        packets = _mixed_frames(12)
        buffer = io.BytesIO()
        PcapWriter(buffer).write_all(packets)
        tel_scalar, tel_batch = Telemetry(), Telemetry()
        list(PcapReader(io.BytesIO(buffer.getvalue()), telemetry=tel_scalar))
        list(PcapReader(io.BytesIO(buffer.getvalue()), telemetry=tel_batch).read_batches())
        assert tel_batch.counters == tel_scalar.counters

    @pytest.mark.parametrize("cut", [3, 9, 20])
    def test_truncated_strict_and_tolerant_match_scalar(self, cut):
        packets = _mixed_frames(6)
        buffer = io.BytesIO()
        PcapWriter(buffer).write_all(packets)
        data = buffer.getvalue()[:-cut]

        def collect(frame_iter):
            frames, error = [], None
            try:
                for item in frame_iter:
                    frames.append(item)
            except ValueError as exc:
                error = str(exc)
            return frames, error

        scalar, scalar_err = collect(
            (p.data, p.timestamp) for p in PcapReader(io.BytesIO(data))
        )
        batched, batch_err = collect(
            (batch.frame(i), batch.timestamps[i])
            for batch in PcapReader(io.BytesIO(data)).read_batches()
            for i in range(len(batch))
        )
        assert batched == scalar
        assert batch_err == scalar_err and batch_err is not None

        tolerant_tel = Telemetry()
        tolerant = PcapReader(io.BytesIO(data), tolerant=True, telemetry=tolerant_tel)
        assert _batch_frames(tolerant) == scalar
        assert tolerant_tel.counter("capture.truncated") == 1


# ------------------------------------------------------------- pcapng reader


class TestPcapngReadBatches:
    def test_matches_scalar_with_interface_and_unknown_blocks(self):
        packets = _mixed_frames(8)
        buffer = io.BytesIO()
        writer = PcapngWriter(buffer)
        for packet in packets[:4]:
            writer.write(packet)
        # An unknown block a reader must skip without losing sync.
        body = b"\xde\xad\xbe\xef"
        total = 12 + len(body)
        buffer.write(struct.pack("<II", 0x0BAD, total) + body + struct.pack("<I", total))
        # A Simple Packet Block: no timestamp, reported at t=0.
        frame = b"\xaa" * 24
        body = struct.pack("<I", len(frame)) + frame
        total = 12 + len(body)
        buffer.write(struct.pack("<II", 3, total) + body + struct.pack("<I", total))
        for packet in packets[4:]:
            writer.write(packet)
        data = buffer.getvalue()

        scalar = _scalar_frames(PcapngReader(io.BytesIO(data)))
        batched = _batch_frames(PcapngReader(io.BytesIO(data)))
        assert batched == scalar
        assert (frame, 0.0) in batched

    def test_multi_section_file(self):
        packets = _mixed_frames(6)
        first, second = io.BytesIO(), io.BytesIO()
        PcapngWriter(first).write_all(packets[:3])
        PcapngWriter(second).write_all(packets[3:])
        data = first.getvalue() + second.getvalue()
        scalar = _scalar_frames(PcapngReader(io.BytesIO(data)))
        batched = _batch_frames(PcapngReader(io.BytesIO(data)))
        assert batched == scalar
        assert len(batched) == 6

    def test_truncated_flushes_partial_batch(self):
        packets = _mixed_frames(5)
        buffer = io.BytesIO()
        PcapngWriter(buffer).write_all(packets)
        data = buffer.getvalue()[:-7]
        scalar = []
        try:
            scalar = _scalar_frames(PcapngReader(io.BytesIO(data)))
        except ValueError:
            pass
        frames, error = [], None
        try:
            frames.extend(_batch_frames(PcapngReader(io.BytesIO(data))))
        except ValueError as exc:
            error = exc
        # The strict batch reader flushed every complete block before
        # raising — nothing buffered is lost to the exception.
        assert error is not None

        tel = Telemetry()
        tolerant = PcapngReader(io.BytesIO(data), tolerant=True, telemetry=tel)
        assert _batch_frames(tolerant) == scalar or len(scalar) == 0
        assert tel.counter("capture.truncated") == 1


# ------------------------------------------------------- property: identical


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.binary(min_size=0, max_size=120),
        ),
        max_size=20,
    )
)
@settings(max_examples=40, deadline=None)
def test_lazy_materialization_is_byte_identical(items):
    """read_batches → materialize reproduces the scalar ParsedPacket stream,
    field for field, including truncated/malformed frames."""
    packets = [CapturedPacket(t, d) for t, d in items]
    for writer_cls, reader_cls in (
        (PcapWriter, PcapReader),
        (PcapngWriter, PcapngReader),
    ):
        buffer = io.BytesIO()
        writer_cls(buffer).write_all(packets)
        data = buffer.getvalue()
        scalar = [parse_frame(p.data, p.timestamp) for p in reader_cls(io.BytesIO(data))]
        batched = []
        for batch in reader_cls(io.BytesIO(data)).read_batches():
            batched.extend(batch.materialize(i) for i in range(len(batch)))
        assert [p.raw for p in batched] == [p.raw for p in scalar]
        assert [p.timestamp for p in batched] == [p.timestamp for p in scalar]
        assert batched == scalar


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
        # Drop-safety: fed prefilter-free, the per-packet stages classify
        # the same frame NOT_ZOOM and leave no stream/meeting state behind.
        analyzer = ZoomAnalyzer(AnalyzerConfig(telemetry=True))
        feed_prepared(analyzer, [CapturedPacket(1.0, data)])
        snapshot = analyzer.result.telemetry_snapshot()
        assert snapshot.counter("classify.class.not_zoom") == 1
        assert not analyzer.result.media_streams()

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
        prefilter = BatchPrefilter.from_matcher(detector.matcher)
        p2p = build_udp_frame("10.8.0.9", 54321, "192.0.2.44", 9000, bytes(60))
        verdict, _ = _single_frame_verdict(prefilter, p2p)
        assert verdict.dropped == 1  # nothing learned yet
        # Scalar-path STUN learn (e.g. a shard hint), then sync.
        detector.observe_stun(
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


# ------------------------------------------------------ pipeline equivalence


class TestFeedBatchEquivalence:
    def _summaries(self, packets):
        scalar = ZoomAnalyzer(AnalyzerConfig(telemetry=True))
        feed_prepared(scalar, packets)
        batched = ZoomAnalyzer(AnalyzerConfig(telemetry=True))
        buffer = io.BytesIO()
        PcapWriter(buffer).write_all(packets)
        buffer.seek(0)
        for batch in PcapReader(buffer).read_batches(max_frames=16):
            batched.feed_batch(batch)
        return scalar.result, batched.result

    def test_mixed_traffic_bit_identical(self):
        scalar, batched = self._summaries(_mixed_frames(100))
        assert batched.packets_total == scalar.packets_total
        assert batched.bytes_total == scalar.bytes_total
        assert batched.packets_zoom == scalar.packets_zoom
        assert shard_invariant_counters(
            batched.telemetry_snapshot()
        ) == shard_invariant_counters(scalar.telemetry_snapshot())
        assert [s.key for s in batched.media_streams()] == [
            s.key for s in scalar.media_streams()
        ]
        snapshot = batched.telemetry_snapshot()
        assert snapshot.counter("prefilter.dropped") > 0
        assert snapshot.counter("prefilter.passed") > 0

    def test_prepared_batches_preserve_objects(self):
        packets = [
            parse_frame(p.data, p.timestamp) for p in _mixed_frames(10)
        ]
        batch = prepared_frame_batch(packets)
        assert batch.prepared == packets
        assert batch.materialize(3) is packets[3]
        assert len(batch) == 10

    @given(
        st.lists(
            st.binary(min_size=0, max_size=80),
            max_size=25,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_garbage_is_equivalent(self, blobs):
        """Random byte blobs as prepared vs raw batches: identical semantic
        counters (prefilter drops must account exactly like stage stops)."""
        packets = [CapturedPacket(float(i), blob) for i, blob in enumerate(blobs)]
        scalar, batched = self._summaries(packets)
        assert batched.packets_total == scalar.packets_total
        assert batched.bytes_total == scalar.bytes_total
        assert shard_invariant_counters(
            batched.telemetry_snapshot()
        ) == shard_invariant_counters(scalar.telemetry_snapshot())


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
