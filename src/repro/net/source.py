"""The unified packet-ingestion layer: :class:`PacketSource` and friends.

The analyzers used to be file-shaped — every driver took a fully
materialized ``list[CapturedPacket]``, the simulator had to serialize to
pcap bytes before its output could be analyzed, and adding a new input kind
meant touching every driver.  A :class:`PacketSource` is the one contract
they all consume now: an iterator of :class:`~repro.net.batch.FrameBatch`
groups plus ingest metadata (link type, packet/byte counters, telemetry
hookup).  Every source yields raw contiguous buffers — file and live
sources straight off their readers, scalar sources by packing the
``(frame bytes, capture timestamp)`` pairs they generate — so an in-memory
or simulated input is analysed exactly as a capture file holding the same
frames.  Concrete sources:

* :class:`PcapFileSource` / :class:`PcapNgFileSource` — true streaming
  readers over one capture file (never hold the capture in memory).
* :class:`CaptureDirectorySource` — many files / globs / directories,
  read in capture order (each file's first timestamp), either once or poll
  after poll with per-file resume tokens; the live service's tailer is
  this class in tolerant mode.
* :class:`SimulationSource` — :mod:`repro.simulation` scenarios fed straight
  into the analyzer with no pcap round trip.
* :class:`IterableSource` — adapts an in-memory packet sequence.

:func:`open_capture_source` dispatches a file to the right reader by
sniffing magic bytes (never by filename).  The live-socket source
(:class:`repro.dataplane.LiveInterfaceSource`) is one more subclass —
nothing downstream of this module knows about files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from glob import glob as _glob
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Union, runtime_checkable

from repro.net.batch import DEFAULT_FRAMES_PER_BATCH, FrameBatch, FrameBatchBuilder
from repro.net.packet import CapturedPacket, ParsedPacket
from repro.net.pcap import LINKTYPE_ETHERNET, MAGIC_MICROS, MAGIC_NANOS, PcapReader
from repro.net.pcapng import BLOCK_SHB, PcapngReader, PcapngResumeState
from repro.telemetry.registry import Telemetry


@dataclass(frozen=True, slots=True)
class CaptureResume:
    """Position token for re-opening a growing capture file.

    Produced by a file source's ``resume_state()`` and accepted back via
    ``resume=``: the next open seeks past everything already delivered, so a
    tailing reader polling a file a capture daemon is still writing never
    re-counts a packet.  The formats need different state — classic pcap
    resumes on a byte offset alone, pcapng also has to restore the enclosing
    section's byte order and interface table.
    """

    format: str  # "pcap" | "pcapng"
    offset: int  # byte offset of the first unread record/block
    packets: int  # packets delivered from this file so far (cumulative)
    endian: str = "<"
    interfaces: tuple[tuple[int, float], ...] = ()


@runtime_checkable
class PacketSource(Protocol):
    """What every ingestion backend provides to the analyzers.

    A source is a *single-use* iterator of :class:`FrameBatch` groups —
    time-ordered within the source — plus the metadata the drivers and
    telemetry need: the link type, running packet/byte counters, and an
    optional :class:`~repro.telemetry.Telemetry` registry the source
    records ``capture.*`` / ``ingest.*`` counters into.
    """

    linktype: int
    packets_emitted: int
    bytes_emitted: int

    def frame_batches(self) -> Iterator[FrameBatch]:
        """Yield time-ordered frame batches (what the analyzers consume)."""
        ...

    def __iter__(self) -> Iterator[ParsedPacket]:
        """Yield individual parsed packets (inspection, peeking)."""
        ...

    def close(self) -> None:
        """Release underlying files or generators."""
        ...


class PacketSourceBase:
    """Shared machinery: batching, counters, context management.

    Scalar subclasses implement :meth:`_frames`, one generator of
    ``(frame bytes, capture timestamp)`` pairs, which :meth:`frame_batches`
    packs into raw batches of ``batch_size`` frames.  File and live
    subclasses override :meth:`frame_batches` with the zero-copy batches of
    their reader.  Either way every yielded batch goes through
    :meth:`_emit`, which keeps the accounting the :class:`PacketSource`
    protocol promises.
    """

    linktype: int = LINKTYPE_ETHERNET

    #: Whether frames enter the process here, so this source records
    #: ``capture.frames``/``capture.bytes`` itself.  False where a wrapped
    #: reader already did.
    _records_capture = True

    def __init__(
        self,
        *,
        telemetry: Telemetry | None = None,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self._batch_size = batch_size
        self.packets_emitted = 0
        self.bytes_emitted = 0

    def _frames(self) -> Iterator[tuple[bytes, float]]:
        raise NotImplementedError

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Adopt ``telemetry`` unless a live registry was already supplied.

        Lets :class:`~repro.core.session.AnalysisSession` thread its run
        registry into a source the caller constructed bare; a source built
        with an explicit enabled registry keeps it.
        """
        if self._telemetry.enabled:
            return
        self._telemetry = telemetry
        self._propagate_telemetry(telemetry)

    def _propagate_telemetry(self, telemetry: Telemetry) -> None:
        """Hand the adopted registry to wrapped readers/children."""

    def _emit(self, batch: FrameBatch) -> FrameBatch:
        """Account one batch on its way out."""
        self.packets_emitted += len(batch)
        self.bytes_emitted += batch.total_caplen
        if self._records_capture:
            self._telemetry.count("capture.frames", len(batch))
            self._telemetry.count("capture.bytes", batch.total_caplen)
        return batch

    def frame_batches(self) -> Iterator[FrameBatch]:
        """Yield :class:`~repro.net.batch.FrameBatch` groups."""
        builder = FrameBatchBuilder()
        for data, timestamp in self._frames():
            builder.append(data, timestamp)
            if len(builder) >= self._batch_size:
                yield self._emit(builder.build())
        if len(builder):
            yield self._emit(builder.build())

    def __iter__(self) -> Iterator[ParsedPacket]:
        """Materialize every batch frame (inspection, ``repro dissect``)."""
        for batch in self.frame_batches():
            for index in range(len(batch)):
                yield batch.materialize(index)

    def close(self) -> None:  # overridden where a file is held
        pass

    def __enter__(self) -> "PacketSourceBase":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class PcapFileSource(PacketSourceBase):
    """Streaming source over one classic-pcap file.

    Batches alias the reader's chunks — the capture is never materialized
    as a list, so memory stays bounded by one batch regardless of file size.
    """

    _records_capture = False  # the reader does

    def __init__(
        self,
        path: str | Path,
        *,
        telemetry: Telemetry | None = None,
        tolerant: bool = False,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
        resume: CaptureResume | None = None,
    ) -> None:
        super().__init__(telemetry=telemetry, batch_size=batch_size)
        if resume is not None and resume.format != "pcap":
            raise ValueError(f"cannot resume a {resume.format} position in a pcap file")
        self._reader = PcapReader(
            path,
            telemetry=self._telemetry,
            tolerant=tolerant,
            start_offset=resume.offset if resume is not None else 0,
        )
        self._resumed_packets = resume.packets if resume is not None else 0
        self.header = self._reader.header
        self.linktype = self.header.linktype

    def resume_state(self) -> CaptureResume:
        """Token to continue this file from where reading stopped."""
        return CaptureResume(
            format="pcap",
            offset=self._reader.next_offset,
            packets=self._resumed_packets + self.packets_emitted,
        )

    def frame_batches(self) -> Iterator[FrameBatch]:
        """Raw-buffer batches straight off the reader."""
        for batch in self._reader.read_batches(self._batch_size):
            yield self._emit(batch)

    def _propagate_telemetry(self, telemetry: Telemetry) -> None:
        self._reader._telemetry = telemetry

    def close(self) -> None:
        self._reader.close()


class PcapNgFileSource(PacketSourceBase):
    """Streaming source over one pcapng file (either endianness)."""

    _records_capture = False  # the reader does

    def __init__(
        self,
        path: str | Path,
        *,
        telemetry: Telemetry | None = None,
        tolerant: bool = False,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
        resume: CaptureResume | None = None,
    ) -> None:
        super().__init__(telemetry=telemetry, batch_size=batch_size)
        if resume is not None and resume.format != "pcapng":
            raise ValueError(
                f"cannot resume a {resume.format} position in a pcapng file"
            )
        self._reader = PcapngReader(
            path,
            telemetry=self._telemetry,
            tolerant=tolerant,
            resume=(
                PcapngResumeState(resume.offset, resume.endian, resume.interfaces)
                if resume is not None
                else None
            ),
        )
        self._resumed_packets = resume.packets if resume is not None else 0

    def resume_state(self) -> CaptureResume:
        """Token to continue this file from where reading stopped."""
        state = self._reader.resume_state()
        return CaptureResume(
            format="pcapng",
            offset=state.offset,
            packets=self._resumed_packets + self.packets_emitted,
            endian=state.endian,
            interfaces=state.interfaces,
        )

    def frame_batches(self) -> Iterator[FrameBatch]:
        """Raw-buffer batches straight off the reader."""
        for batch in self._reader.read_batches(self._batch_size):
            yield self._emit(batch)

    def _propagate_telemetry(self, telemetry: Telemetry) -> None:
        self._reader._telemetry = telemetry

    def close(self) -> None:
        self._reader.close()


class IterableSource(PacketSourceBase):
    """Adapt an in-memory sequence of packets to the source protocol.

    Accepts :class:`CapturedPacket` or already-parsed :class:`ParsedPacket`
    items (mixed is fine); either contributes its frame bytes and timestamp.
    """

    def __init__(
        self,
        packets: Iterable[CapturedPacket | ParsedPacket],
        *,
        telemetry: Telemetry | None = None,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
    ) -> None:
        super().__init__(telemetry=telemetry, batch_size=batch_size)
        self._items = packets

    def _frames(self) -> Iterator[tuple[bytes, float]]:
        for item in self._items:
            if isinstance(item, ParsedPacket):
                yield item.raw, item.timestamp
            else:
                yield item.data, item.timestamp


class SimulationSource(PacketSourceBase):
    """Emit a :mod:`repro.simulation` scenario straight into the analyzer.

    Args:
        scenario: A ``MeetingConfig`` (simulated on demand), a
            ``CampusTraceConfig``, a ``SimulationResult`` / campus trace, or
            any iterable of :class:`CapturedPacket`.
        timestamp_resolution: Quantize capture times exactly as the
            nanosecond pcap writer would (default), so direct analysis is
            bit-identical to a write-pcap-then-read run; ``None`` keeps the
            simulator's exact timestamps.
        telemetry: Optional registry; ``capture.frames``/``capture.bytes``
            are recorded just as the file readers record them.
    """

    def __init__(
        self,
        scenario: object,
        *,
        timestamp_resolution: float | None = 1e-9,
        telemetry: Telemetry | None = None,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
    ) -> None:
        super().__init__(telemetry=telemetry, batch_size=batch_size)
        self._scenario = scenario
        self._resolution = timestamp_resolution

    def _frames(self) -> Iterator[tuple[bytes, float]]:
        # Imported lazily: repro.simulation sits above repro.net in the
        # layering and importing it here at module scope would be circular.
        from repro.simulation.adapter import captured_packets, quantize_timestamp

        resolution = self._resolution
        for captured in captured_packets(self._scenario):
            timestamp = captured.timestamp
            if resolution is not None:
                timestamp = quantize_timestamp(timestamp, resolution)
            yield captured.data, timestamp


class CaptureDirectorySource(PacketSourceBase):
    """Read many capture files as one source, in capture order.

    Accepts any mix of concrete paths, glob patterns, and directories (a
    directory contributes every file matching ``pattern``).  Files are read
    in order of their *first capture timestamp*, ties broken by name — not
    in name order, which a rotation scheme's names do not promise:
    ``tcpdump -C`` writes ``trace.pcap``, ``trace.pcap1`` … ``trace.pcap10``,
    and ``pcap10`` sorts before ``pcap2``.  A pcap promises order only
    through its record timestamps, and the windows downstream close on a
    watermark, so a later file read first would make an earlier file's
    packets late.

    Two ways to read:

    * :meth:`frame_batches` is one pass over :attr:`files`, the inputs as
      expanded and ordered at construction (``repro analyze``).
    * :meth:`poll` expands the inputs again and delivers exactly the frames
      that appeared since the last poll (the live service, through
      :class:`~repro.service.tail.CaptureDirectoryTailer`).  Each file keeps
      a :class:`CaptureResume` token beside its cached first timestamp, so
      a file is never delivered twice however often it is rediscovered.  A
      file that shrank, or whose format no longer matches its token, was
      replaced under its name: its token and timestamp are dropped and it
      is read from the start again (``ingest.tail.replaced``).

    ``tolerant`` is for a directory a capture daemon is still writing: a
    truncated last record ends the file's pass without advancing its
    position, and a file whose header or first record is not fully written
    (or that cannot be opened) waits for the next poll
    (``ingest.tail.not_ready``) instead of raising.  Strict mode raises on
    a truncated or unreadable file, and on inputs that match no file.

    Counters: ``ingest.files`` per file first opened, ``ingest.tail.resumed``
    per file continued, ``ingest.tail.packets`` and ``ingest.tail.polls``;
    the readers record ``capture.*``.  The generators are lazy: a slow
    consumer leaves the rest on disk, and one that abandons a poll resumes
    at the first frame it never received.
    """

    _records_capture = False  # each file's reader does

    def __init__(
        self,
        paths: str | Path | Iterable[str | Path],
        *,
        pattern: str = "*.pcap*",
        telemetry: Telemetry | None = None,
        tolerant: bool = False,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
    ) -> None:
        super().__init__(telemetry=telemetry, batch_size=batch_size)
        self._inputs = [paths] if isinstance(paths, (str, Path)) else list(paths)
        self._pattern = pattern
        self._tolerant = tolerant
        self._positions: dict[Path, CaptureResume] = {}
        self._first: dict[Path, float] = {}  # known first capture timestamps
        self._open: PacketSourceBase | None = None
        self.polls = 0
        self.files: tuple[Path, ...] = self._ordered(self._expand())
        if not self.files and not tolerant:
            raise FileNotFoundError(f"no capture files under {paths!r}")

    def frame_batches(self) -> Iterator[FrameBatch]:
        """Raw-buffer batches: one pass over :attr:`files`, each listed file
        from its start (a file listed twice is read twice)."""
        return self._read(self.files, resume=False)

    def poll(self) -> Iterator[FrameBatch]:
        """One pass over the inputs as they are now; yields only new frames."""
        self.polls += 1
        self._telemetry.count("ingest.tail.polls")
        yield from self._read(
            self._ordered(path for path in self._expand() if self._has_news(path))
        )

    def close(self) -> None:
        if self._open is not None:
            self._open.close()
            self._open = None

    # ------------------------------------------------------------- internals

    def _expand(self) -> list[Path]:
        found: list[Path] = []
        for entry in self._inputs:
            path = Path(entry)
            if path.is_dir():
                found.extend(p for p in path.glob(self._pattern) if p.is_file())
            elif any(char in str(entry) for char in "*?["):
                matches = [Path(match) for match in _glob(str(entry))]
                if not matches and not self._tolerant:
                    raise FileNotFoundError(f"glob {entry!r} matched no files")
                found.extend(matches)
            else:
                found.append(path)
        return found

    def _ordered(self, paths: Iterable[Path]) -> tuple[Path, ...]:
        """(first capture timestamp, name) order; unknown timestamps last.

        Rotated files routinely share a boundary timestamp, so the name
        tie-break keeps the order independent of listing or argument order.
        """
        return tuple(
            sorted(
                paths,
                key=lambda p: (self._first_timestamp(p), p.name, str(p)),
            )
        )

    def _first_timestamp(self, path: Path) -> float:
        """Peek one frame, once per file; ``inf`` while there is none."""
        first = self._first.get(path)
        if first is not None:
            return first
        try:
            peek = open_capture_source(path, tolerant=self._tolerant, batch_size=1)
        except (OSError, ValueError):
            if not self._tolerant:
                raise
            return float("inf")
        try:
            for batch in peek.frame_batches():
                self._first[path] = first = batch.timestamps[0]
                return first
            return float("inf")
        finally:
            peek.close()

    def _has_news(self, path: Path) -> bool:
        """Whether a known file grew; a shrunk one is forgotten and re-read."""
        token = self._positions.get(path)
        if token is None:
            return True
        try:
            size = path.stat().st_size
        except OSError:
            return False  # raced with deletion; rediscovered next poll if back
        if size < token.offset:
            self._forget(path)
            return True
        return size > token.offset

    def _forget(self, path: Path) -> None:
        self._telemetry.count("ingest.tail.replaced")
        self._positions.pop(path, None)
        self._first.pop(path, None)

    def _read(
        self, files: tuple[Path, ...], *, resume: bool = True
    ) -> Iterator[FrameBatch]:
        tel = self._telemetry
        for path in files:
            if self._tolerant and path not in self._first:
                tel.count("ingest.tail.not_ready")  # no complete first record
                continue
            token = self._positions.get(path) if resume else None
            try:
                source = open_capture_source(
                    path,
                    telemetry=tel,
                    tolerant=self._tolerant,
                    batch_size=self._batch_size,
                    resume=token,
                )
            except (OSError, ValueError):
                if token is not None:
                    # The format changed under the name: start over, ordered
                    # by the new first record at the next poll.
                    self._forget(path)
                elif self._tolerant:
                    tel.count("ingest.tail.not_ready")
                else:
                    raise
                continue
            tel.count("ingest.files" if token is None else "ingest.tail.resumed")
            self._open = source
            try:
                # Batch boundaries are record boundaries, and the position
                # is saved before the hand-off: a consumer that abandons the
                # generator resumes at the first frame it never received.
                for batch in source.frame_batches():
                    tel.count("ingest.tail.packets", len(batch))
                    self._positions[path] = source.resume_state()
                    yield self._emit(batch)
                self._positions[path] = source.resume_state()
            finally:
                source.close()
                self._open = None


# --------------------------------------------------------------- dispatch


def sniff_capture_format(path: str | Path) -> str:
    """``"pcap"`` or ``"pcapng"``, decided by magic bytes alone.

    File extensions lie — a rotated capture named ``trace.pcap`` is often
    pcapng underneath — so dispatch never consults the name.  The pcapng
    Section Header Block type (``0x0A0D0D0A``) is a palindrome, making the
    check endianness-proof; pcap is recognized by either byte order of both
    its microsecond and nanosecond magics.
    """
    with open(path, "rb") as handle:
        magic_bytes = handle.read(4)
    if len(magic_bytes) < 4:
        raise ValueError(f"{path}: too short to be a capture file")
    (little,) = struct.unpack("<I", magic_bytes)
    (big,) = struct.unpack(">I", magic_bytes)
    if little == BLOCK_SHB:
        return "pcapng"
    if little in (MAGIC_MICROS, MAGIC_NANOS) or big in (MAGIC_MICROS, MAGIC_NANOS):
        return "pcap"
    raise ValueError(f"{path}: not a pcap or pcapng capture (magic {magic_bytes!r})")


def open_capture_source(
    path: str | Path,
    *,
    telemetry: Telemetry | None = None,
    tolerant: bool = False,
    batch_size: int = DEFAULT_FRAMES_PER_BATCH,
    resume: CaptureResume | None = None,
) -> PcapFileSource | PcapNgFileSource:
    """Open one capture file with the reader its magic bytes call for.

    With ``resume=`` the sniffed format must match the token's — a mismatch
    means the file was replaced under the same name, and silently seeking
    into the new file would yield garbage.
    """
    detected = sniff_capture_format(path)
    if resume is not None and resume.format != detected:
        raise ValueError(
            f"{path}: resume token is for {resume.format} but file is {detected}"
        )
    source_cls = PcapNgFileSource if detected == "pcapng" else PcapFileSource
    return source_cls(
        path,
        telemetry=telemetry,
        tolerant=tolerant,
        batch_size=batch_size,
        resume=resume,
    )


# --------------------------------------------------------------- internals


#: What the drivers' ``run`` accepts (see :func:`coerce_source`).
SourceLike = Union[
    PacketSource, str, Path, Iterable["CapturedPacket | ParsedPacket"]
]


def coerce_source(
    source: SourceLike,
    *,
    telemetry: Telemetry | None = None,
    tolerant: bool = False,
    batch_size: int = DEFAULT_FRAMES_PER_BATCH,
) -> PacketSource:
    """Normalize the ``source`` argument the drivers accept.

    A :class:`PacketSource` passes through untouched (its telemetry wiring
    is the caller's); a path opens the right file reader; any other
    iterable is wrapped as an :class:`IterableSource`.
    """
    if isinstance(source, (str, Path)):
        return open_capture_source(
            source, telemetry=telemetry, tolerant=tolerant, batch_size=batch_size
        )
    if hasattr(source, "frame_batches"):  # already a PacketSource
        if telemetry is not None and hasattr(source, "attach_telemetry"):
            source.attach_telemetry(telemetry)
        return source
    if isinstance(source, Iterable):
        return IterableSource(source, telemetry=telemetry, batch_size=batch_size)
    raise TypeError(f"cannot build a PacketSource from {type(source).__name__}")
