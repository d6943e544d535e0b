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
  ordered by each file's first capture timestamp.
* :class:`SimulationSource` — :mod:`repro.simulation` scenarios fed straight
  into the analyzer with no pcap round trip.
* :class:`InterleavedSource` — k-way timestamp merge composing any sources.
* :class:`IterableSource` — adapts an in-memory packet sequence.

:func:`open_capture_source` dispatches a file to the right reader by
sniffing magic bytes (never by filename).  The live-socket source
(:class:`repro.dataplane.LiveInterfaceSource`) is one more subclass —
nothing downstream of this module knows about files.
"""

from __future__ import annotations

import heapq
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
        """Yield individual parsed packets (inspection, merging, peeking)."""
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
    #: reader or the composed inputs already did.
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
        """Materialize every batch frame (inspection, ``repro filter``)."""
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
    """Sequence many capture files as one source.

    Accepts any mix of concrete paths, glob patterns, and directories (a
    directory contributes every file matching ``pattern``).  Files are
    ordered by their *first capture timestamp* — not by name — so captures
    rotated by a monitor (``zoom-00.pcap``, ``zoom-01.pcap``, …) or handed
    over out of order replay in wall-clock order.  Each opened file counts
    one ``ingest.files``; per-file frame/byte counters land under
    ``capture.*`` via the underlying reader.
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
        self._tolerant = tolerant
        if isinstance(paths, (str, Path)):
            paths = [paths]
        expanded: list[Path] = []
        for entry in paths:
            entry_path = Path(entry)
            if entry_path.is_dir():
                expanded.extend(sorted(entry_path.glob(pattern)))
            elif _has_magic(str(entry)):
                matches = sorted(Path(match) for match in _glob(str(entry)))
                if not matches:
                    raise FileNotFoundError(f"glob {entry!r} matched no files")
                expanded.extend(matches)
            else:
                expanded.append(entry_path)
        if not expanded:
            raise FileNotFoundError(f"no capture files under {paths!r}")
        # Tie-break equal first timestamps by file name so replay order is
        # deterministic regardless of directory-listing or glob order —
        # rotated capture files routinely share a boundary timestamp.
        self.files: tuple[Path, ...] = tuple(
            sorted(
                expanded,
                key=lambda p: (_first_capture_timestamp(p), p.name, str(p)),
            )
        )
        self._open: PacketSourceBase | None = None

    def frame_batches(self) -> Iterator[FrameBatch]:
        """Raw-buffer batches, file by file in first-timestamp order."""
        for path in self.files:
            self._open = open_capture_source(
                path,
                telemetry=self._telemetry,
                tolerant=self._tolerant,
                batch_size=self._batch_size,
            )
            self._telemetry.count("ingest.files")
            try:
                for batch in self._open.frame_batches():
                    yield self._emit(batch)
            finally:
                self._open.close()
                self._open = None

    def close(self) -> None:
        if self._open is not None:
            self._open.close()
            self._open = None


class InterleavedSource(PacketSourceBase):
    """Compose sources by k-way merging on capture timestamp.

    Each input must itself be time-ordered (every source here is); the
    merge is a heap over one head frame per input, so composing k live
    taps costs O(log k) per frame and holds k frames of state.  Opening the
    merge counts ``ingest.sources``.
    """

    _records_capture = False  # the inputs do

    def __init__(
        self,
        *sources: PacketSource,
        telemetry: Telemetry | None = None,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
    ) -> None:
        super().__init__(telemetry=telemetry, batch_size=batch_size)
        if not sources:
            raise ValueError("InterleavedSource needs at least one source")
        self.sources: tuple[PacketSource, ...] = sources

    def _frames(self) -> Iterator[tuple[bytes, float]]:
        # Counted here, not at construction: the registry in use may have
        # been adopted (``attach_telemetry``) after the source was built.
        self._telemetry.count("ingest.sources", len(self.sources))
        yield from heapq.merge(
            *(_source_frames(source) for source in self.sources),
            key=lambda frame: frame[1],
        )

    def _propagate_telemetry(self, telemetry: Telemetry) -> None:
        for source in self.sources:
            if hasattr(source, "attach_telemetry"):
                source.attach_telemetry(telemetry)

    def close(self) -> None:
        for source in self.sources:
            source.close()


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


def _has_magic(text: str) -> bool:
    return any(char in text for char in "*?[")


def _source_frames(source: PacketSource) -> Iterator[tuple[bytes, float]]:
    for batch in source.frame_batches():
        yield from batch.iter_frames()


def _first_capture_timestamp(path: Path) -> float:
    """Peek one frame for file ordering; empty files sort last."""
    peek = open_capture_source(path, batch_size=1)
    try:
        for batch in peek.frame_batches():
            return batch.timestamps[0]
        return float("inf")
    finally:
        peek.close()


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
