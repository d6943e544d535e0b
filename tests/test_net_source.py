"""Tests for the unified ingestion layer (:mod:`repro.net.source`).

Covers the :class:`PacketSource` contract properties ISSUE'd for this
layer: streaming readers yield long before EOF (bounded memory),
directory sources order files by first capture timestamp rather than by
name (in one pass and poll by poll), and dispatch is by magic bytes only.
"""

import itertools
import struct

import pytest

from repro.net.packet import CapturedPacket, ParsedPacket
from repro.net.pcap import write_pcap
from repro.net.source import (
    CaptureDirectorySource,
    IterableSource,
    PacketSource,
    PcapFileSource,
    PcapNgFileSource,
    SimulationSource,
    coerce_source,
    open_capture_source,
    sniff_capture_format,
)
from repro.net.pcapng import PcapngWriter
from repro.simulation import MeetingConfig, MeetingSimulator, ParticipantConfig
from repro.telemetry import Telemetry


def _meeting_packets(seed=7, duration=4.0, participants=2):
    config = MeetingConfig(
        meeting_id=f"src-test-{seed}",
        participants=tuple(
            ParticipantConfig(name=f"p{i}", join_time=0.2 * i)
            for i in range(participants)
        ),
        duration=duration,
        allow_p2p=False,
        seed=seed,
    )
    return MeetingSimulator(config).run().captures


@pytest.fixture(scope="module")
def captures():
    return _meeting_packets()


@pytest.fixture(scope="module")
def pcap_path(tmp_path_factory, captures):
    path = tmp_path_factory.mktemp("src") / "meeting.pcap"
    write_pcap(path, captures)
    return path


class TestPcapFileSource:
    def test_satisfies_protocol(self, pcap_path):
        source = PcapFileSource(pcap_path)
        assert isinstance(source, PacketSource)
        source.close()

    def test_yields_parsed_packets_in_order(self, pcap_path, captures):
        with PcapFileSource(pcap_path) as source:
            parsed = list(source)
        assert len(parsed) == len(captures)
        assert all(isinstance(p, ParsedPacket) for p in parsed)
        timestamps = [p.timestamp for p in parsed]
        assert timestamps == sorted(timestamps)

    def test_counters_track_emission(self, pcap_path, captures):
        with PcapFileSource(pcap_path) as source:
            list(source)
            assert source.packets_emitted == len(captures)
            assert source.bytes_emitted == sum(len(c.data) for c in captures)

    def test_streaming_yields_before_eof(self, pcap_path):
        """The reader must hand over the first batch having read one chunk,
        not the file — the memory-boundedness contract."""
        from repro.net.pcap import _BATCH_CHUNK_BYTES

        size = pcap_path.stat().st_size
        with PcapFileSource(pcap_path, batch_size=4) as source:
            first = next(source.frame_batches())
            assert len(first) == 4
            assert source.packets_emitted == 4
            consumed = source._reader._file.tell()
            assert source.resume_state().offset < size / 100
        assert consumed == 24 + _BATCH_CHUNK_BYTES < size

    def test_batch_size_validated(self, pcap_path):
        with pytest.raises(ValueError):
            PcapFileSource(pcap_path, batch_size=0)

    @pytest.mark.parametrize("batch_size", [255, 256, 257])
    def test_explicit_batch_size_always_honoured(self, tmp_path, captures, batch_size):
        """256 used to be a sentinel meaning "untouched, read 4096"."""
        path = tmp_path / "thousand.pcap"
        write_pcap(path, captures[:1000])
        with PcapFileSource(path, batch_size=batch_size) as source:
            sizes = [len(batch) for batch in source.frame_batches()]
        assert sizes == [batch_size] * (1000 // batch_size) + [1000 % batch_size]

    def test_telemetry_records_capture_counters(self, pcap_path, captures):
        telemetry = Telemetry(enabled=True)
        with PcapFileSource(pcap_path, telemetry=telemetry) as source:
            list(source)
        counters = telemetry.snapshot().counters
        assert counters["capture.frames"] == len(captures)
        assert counters["capture.bytes"] == sum(len(c.data) for c in captures)

    def test_attach_telemetry_adopts_when_bare(self, pcap_path):
        source = PcapFileSource(pcap_path)
        registry = Telemetry(enabled=True)
        source.attach_telemetry(registry)
        with source:
            list(source)
        assert registry.snapshot().counters["capture.frames"] > 0

    def test_attach_telemetry_keeps_explicit_registry(self, pcap_path):
        mine = Telemetry(enabled=True)
        source = PcapFileSource(pcap_path, telemetry=mine)
        other = Telemetry(enabled=True)
        source.attach_telemetry(other)
        with source:
            list(source)
        assert mine.snapshot().counters["capture.frames"] > 0
        assert "capture.frames" not in other.snapshot().counters


class TestIterableSource:
    def test_accepts_captured_and_parsed(self, captures):
        from repro.net.packet import parse_frame

        mixed = [
            parse_frame(c.data, c.timestamp) if i % 2 else c
            for i, c in enumerate(captures[:10])
        ]
        parsed = list(IterableSource(mixed))
        assert [p.timestamp for p in parsed] == [c.timestamp for c in captures[:10]]

    def test_never_materializes_the_iterator(self, captures):
        """Batching an endless generator must still return promptly."""
        frame = captures[0]
        endless = (
            CapturedPacket(float(i), frame.data) for i in itertools.count()
        )
        source = IterableSource(endless, batch_size=16)
        first = next(source.frame_batches())
        assert len(first) == 16
        assert source.packets_emitted == 16


class TestSimulationSource:
    def test_emits_quantized_stream(self, captures):
        source = SimulationSource(captures)
        parsed = list(source)
        assert len(parsed) == len(captures)
        assert source.packets_emitted == len(captures)

    def test_matches_pcap_roundtrip_timestamps(self, pcap_path, captures):
        with PcapFileSource(pcap_path) as file_source:
            file_ts = [p.timestamp for p in file_source]
        sim_ts = [p.timestamp for p in SimulationSource(captures)]
        assert sim_ts == file_ts


def _read(source, how):
    """Timestamps from one ``frame_batches()`` pass or one ``poll()``."""
    return [t for batch in getattr(source, how)() for t in batch.timestamps]


class TestCaptureDirectorySource:
    @pytest.fixture()
    def rotated_dir(self, tmp_path):
        """Two capture files whose name order contradicts time order."""
        early = _meeting_packets(seed=11, duration=2.0)
        late = [CapturedPacket(c.timestamp + 1000.0, c.data) for c in early]
        # 'aa' sorts first by name but holds the *later* packets.
        write_pcap(tmp_path / "aa.pcap", late)
        write_pcap(tmp_path / "zz.pcap", early)
        return tmp_path, len(early)

    def test_orders_files_by_first_timestamp(self, rotated_dir):
        directory, per_file = rotated_dir
        for how in ("frame_batches", "poll"):
            source = CaptureDirectorySource(directory)
            assert [p.name for p in source.files] == ["zz.pcap", "aa.pcap"]
            timestamps = _read(source, how)
            assert timestamps == sorted(timestamps)
            assert source.packets_emitted == 2 * per_file

    def test_equal_first_timestamps_tie_break_by_name(self, tmp_path):
        """Rotated capture files sharing a boundary timestamp must replay
        in a deterministic (name) order, whatever order the inputs or the
        directory listing presented them in."""
        packets = _meeting_packets(seed=13, duration=1.0)
        for index, name in enumerate(("cap-02.pcap", "cap-00.pcap", "cap-01.pcap")):
            # Same first frame, then a per-file marker timestamp.
            write_pcap(tmp_path / name, packets[:1] + [
                CapturedPacket(packets[1].timestamp + index, packets[1].data)
            ])
        expected = ["cap-00.pcap", "cap-01.pcap", "cap-02.pcap"]
        shuffled = [tmp_path / name for name in ("cap-01.pcap", "cap-02.pcap", "cap-00.pcap")]
        for inputs in (tmp_path, shuffled):  # listing order, argument order
            for how in ("frame_batches", "poll"):
                source = CaptureDirectorySource(inputs)
                assert [p.name for p in source.files] == expected
                markers = [t - packets[1].timestamp for t in _read(source, how)[1::2]]
                assert markers == pytest.approx([1, 2, 0], abs=1e-6)

    def test_glob_pattern(self, rotated_dir):
        directory, per_file = rotated_dir
        source = CaptureDirectorySource(str(directory / "*.pcap"))
        assert len(source.files) == 2

    def test_counts_ingest_files(self, rotated_dir):
        directory, _ = rotated_dir
        telemetry = Telemetry(enabled=True)
        list(CaptureDirectorySource(directory, telemetry=telemetry))
        assert telemetry.snapshot().counters["ingest.files"] == 2

    def test_empty_glob_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CaptureDirectorySource(str(tmp_path / "*.pcap"))

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CaptureDirectorySource(tmp_path)


class TestFormatSniffing:
    def test_pcap_detected(self, pcap_path):
        assert sniff_capture_format(pcap_path) == "pcap"
        assert isinstance(open_capture_source(pcap_path), PcapFileSource)

    def test_pcapng_detected(self, tmp_path, captures):
        path = tmp_path / "capture.pcap"  # lying extension on purpose
        with PcapngWriter(path) as writer:
            for packet in captures[:20]:
                writer.write(packet)
        assert sniff_capture_format(path) == "pcapng"
        source = open_capture_source(path)
        assert isinstance(source, PcapNgFileSource)
        assert len(list(source)) == 20

    def test_nanosecond_magic_detected(self, tmp_path):
        path = tmp_path / "nanos.pcap"
        path.write_bytes(
            struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
        )
        assert sniff_capture_format(path) == "pcap"

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x00\x01\x02\x03rubbish")
        with pytest.raises(ValueError):
            sniff_capture_format(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "tiny.pcap"
        path.write_bytes(b"\xd4")
        with pytest.raises(ValueError):
            sniff_capture_format(path)


class TestCoerceSource:
    def test_path_opens_file_source(self, pcap_path):
        assert isinstance(coerce_source(str(pcap_path)), PcapFileSource)
        assert isinstance(coerce_source(pcap_path), PcapFileSource)

    def test_iterable_wrapped(self, captures):
        source = coerce_source(captures[:5])
        assert isinstance(source, IterableSource)
        assert len(list(source)) == 5

    def test_source_passes_through(self, pcap_path):
        original = PcapFileSource(pcap_path)
        assert coerce_source(original) is original
        original.close()

    def test_passthrough_adopts_telemetry(self, pcap_path):
        registry = Telemetry(enabled=True)
        source = coerce_source(PcapFileSource(pcap_path), telemetry=registry)
        with source:
            list(source)
        assert registry.snapshot().counters["capture.frames"] > 0

    def test_rejects_non_source(self):
        with pytest.raises(TypeError):
            coerce_source(42)
