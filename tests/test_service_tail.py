"""Tailing-source tests: rotation, truncated tails, re-discovery idempotence.

The scenarios mirror what a capture daemon actually does to the directory:
rotate to a new file mid-meeting, leave a half-written record at the tail of
the in-progress file, and keep every finished file in place so each poll
re-discovers all of them.
"""

import io

import pytest

from repro.net.pcap import PcapReader, PcapWriter, write_pcap
from repro.net.pcapng import PcapngReader, PcapngWriter
from repro.net.source import PcapFileSource
from repro.service.tail import CaptureDirectoryTailer
from repro.telemetry.registry import Telemetry


def _drain(tailer):
    """The timestamps of every frame from one poll, in delivery order."""
    return [t for batch in tailer.poll() for t in batch.timestamps]


def _times(packets):
    return [pytest.approx(packet.timestamp, abs=1e-6) for packet in packets]


def _capture_bytes(packets, writer=PcapWriter) -> bytes:
    buffer = io.BytesIO()
    with writer(buffer) as out:
        out.write_all(packets)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def captures(sfu_meeting_result):
    return sfu_meeting_result.captures


class TestReaderResume:
    def test_pcap_start_offset_resumes_exactly(self, captures, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, captures[:100])
        with PcapReader(path) as reader:
            iterator = iter(reader)
            head = [next(iterator) for _ in range(40)]
            offset = reader.next_offset
        with PcapReader(path, start_offset=offset) as reader:
            rest = list(reader)
        assert len(head) + len(rest) == 100
        assert rest[0].timestamp == pytest.approx(captures[40].timestamp, abs=1e-6)

    def test_pcap_rejects_offset_inside_header(self, captures, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, captures[:5])
        with pytest.raises(ValueError, match="global header"):
            PcapReader(path, start_offset=10)

    def test_pcap_truncated_tail_keeps_offset_at_boundary(self, captures, tmp_path):
        data = _capture_bytes(captures[:10])
        path = tmp_path / "t.pcap"
        path.write_bytes(data[:-7])  # cut the last record mid-data
        with PcapReader(path, tolerant=True) as reader:
            got = list(reader)
            boundary = reader.next_offset
        assert len(got) == 9
        # Finish the file: resuming from the boundary retries the cut record.
        path.write_bytes(data)
        with PcapReader(path, start_offset=boundary) as reader:
            rest = list(reader)
        assert len(rest) == 1
        assert rest[0].timestamp == pytest.approx(captures[9].timestamp, abs=1e-6)

    def test_pcapng_resume_state_roundtrip(self, captures, tmp_path):
        path = tmp_path / "t.pcapng"
        path.write_bytes(_capture_bytes(captures[:50], PcapngWriter))
        with PcapngReader(path) as reader:
            iterator = iter(reader)
            head = [next(iterator) for _ in range(20)]
            state = reader.resume_state()
        assert state.interfaces  # the IDB travelled into the token
        with PcapngReader(path, resume=state) as reader:
            rest = list(reader)
        assert len(head) + len(rest) == 50
        # Timestamps survive the resume (if_tsresol came from the token,
        # not from re-reading the IDB).
        assert rest[0].timestamp == pytest.approx(captures[20].timestamp, abs=1e-6)


class TestTailerRotation:
    def test_rotation_mid_meeting_delivers_every_packet_once(
        self, captures, tmp_path
    ):
        """Files appear one at a time across polls; together they deliver
        the capture once, in capture order."""
        third = len(captures) // 3
        tailer = CaptureDirectoryTailer(tmp_path)
        collected = []
        for index in range(3):
            piece = captures[index * third : (index + 1) * third if index < 2 else None]
            write_pcap(tmp_path / f"zoom-{index:02d}.pcap", piece)
            collected.extend(_drain(tailer))
        collected.extend(_drain(tailer))  # one more poll: nothing new
        assert collected == _times(sorted(captures, key=lambda c: c.timestamp))

    def test_growing_file_resumes_mid_file(self, captures, tmp_path):
        path = tmp_path / "zoom-00.pcap"
        path.write_bytes(_capture_bytes(captures[:200]))
        tailer = CaptureDirectoryTailer(tmp_path)
        assert _drain(tailer) == _times(captures[:200])
        path.write_bytes(_capture_bytes(captures[:400]))
        assert _drain(tailer) == _times(captures[200:400])

    def test_truncated_tail_then_growth(self, captures, tmp_path):
        """A half-written record is skipped without advancing the offset,
        then delivered exactly once when the writer completes it."""
        tel = Telemetry()
        full = _capture_bytes(captures[:50])
        path = tmp_path / "zoom-00.pcap"
        path.write_bytes(full[:-11])
        tailer = CaptureDirectoryTailer(tmp_path, telemetry=tel)
        assert _drain(tailer) == _times(captures[:49])
        assert tel.counter("capture.truncated") == 1
        path.write_bytes(full)
        assert _drain(tailer) == _times(captures[49:50])
        assert _drain(tailer) == []

    def test_duplicate_rediscovery_is_idempotent(self, captures, tmp_path):
        write_pcap(tmp_path / "a.pcap", captures[:80])
        write_pcap(tmp_path / "b.pcap", captures[80:160])
        tailer = CaptureDirectoryTailer(tmp_path)
        assert len(_drain(tailer)) == 160
        for _ in range(3):  # every later poll re-discovers both files
            assert _drain(tailer) == []
        assert tailer.packets_emitted == 160

    def test_pcapng_files_tail_too(self, captures, tmp_path):
        path = tmp_path / "zoom.pcapng"
        path.write_bytes(_capture_bytes(captures[:60], PcapngWriter))
        tailer = CaptureDirectoryTailer(tmp_path)
        assert _drain(tailer) == _times(captures[:60])
        path.write_bytes(_capture_bytes(captures[:120], PcapngWriter))
        assert _drain(tailer) == _times(captures[60:120])

    def test_replaced_file_is_reread(self, captures, tmp_path):
        tel = Telemetry()
        path = tmp_path / "zoom-00.pcap"
        write_pcap(path, captures[:100])
        tailer = CaptureDirectoryTailer(tmp_path, telemetry=tel)
        assert len(_drain(tailer)) == 100
        write_pcap(path, captures[:30])  # shorter file under the same name
        assert _drain(tailer) == _times(captures[:30])
        assert tel.counter("ingest.tail.replaced") == 1

    def test_not_ready_header_retried(self, captures, tmp_path):
        tel = Telemetry()
        data = _capture_bytes(captures[:10])
        path = tmp_path / "zoom-00.pcap"
        path.write_bytes(data[:12])  # global header itself incomplete
        tailer = CaptureDirectoryTailer(tmp_path, telemetry=tel)
        assert _drain(tailer) == []
        assert tel.counter("ingest.tail.not_ready") == 1
        path.write_bytes(data)
        assert len(_drain(tailer)) == 10

    def test_abandoned_poll_never_double_delivers(self, captures, tmp_path):
        """A consumer that stops mid-poll (shutdown) resumes at the first
        packet it never received."""
        write_pcap(tmp_path / "zoom-00.pcap", captures[:600])
        tailer = CaptureDirectoryTailer(tmp_path, batch_size=64)
        received = []
        poll = tailer.poll()
        for batch in poll:
            received.extend(batch.timestamps)
            if len(received) >= 128:
                poll.close()
                break
        received.extend(_drain(tailer))
        assert received == _times(captures[:600])


class TestResumeTokenSafety:
    def test_format_mismatch_rejected(self, captures, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, captures[:20])
        with PcapFileSource(path) as source:
            list(source)
            token = source.resume_state()
        path.write_bytes(_capture_bytes(captures[:20], PcapngWriter))
        from repro.net.source import open_capture_source

        with pytest.raises(ValueError, match="resume token"):
            open_capture_source(path, resume=token)
