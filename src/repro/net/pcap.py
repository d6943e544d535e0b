"""Reader and writer for the classic libpcap capture-file format.

Supports both microsecond (magic ``0xa1b2c3d4``) and nanosecond
(``0xa1b23c4d``) timestamp resolution, either endianness on read, and the
Ethernet link type.  This is the on-disk interchange format between the
traffic emulator (:mod:`repro.simulation`) and the analyzer
(:mod:`repro.core`).
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.net.batch import DEFAULT_FRAMES_PER_BATCH, FrameBatch
from repro.net.packet import CapturedPacket
from repro.telemetry.registry import Telemetry

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

#: Read granularity of :meth:`PcapReader.read_batches`.  Batches alias the
#: chunk, so this also bounds how much capture data one batch can pin.
_BATCH_CHUNK_BYTES = 1 << 20

_GLOBAL_HEADER = struct.Struct("IHHiIII")  # endianness applied at use site
_RECORD_HEADER = struct.Struct("IIII")


@dataclass(frozen=True, slots=True)
class PcapHeader:
    """Parsed pcap global header."""

    nanosecond: bool
    little_endian: bool
    version_major: int
    version_minor: int
    snaplen: int
    linktype: int


class PcapWriter:
    """Write packets to a libpcap file.

    Usage::

        with PcapWriter("trace.pcap") as writer:
            writer.write(CapturedPacket(1.5, frame_bytes))
    """

    def __init__(
        self,
        path: str | Path | BinaryIO,
        *,
        nanosecond: bool = True,
        snaplen: int = 262144,
        linktype: int = LINKTYPE_ETHERNET,
    ) -> None:
        if hasattr(path, "write"):
            self._file: BinaryIO = path  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(path, "wb")
            self._owns_file = True
        self._nanosecond = nanosecond
        self._tick = 1e-9 if nanosecond else 1e-6
        magic = MAGIC_NANOS if nanosecond else MAGIC_MICROS
        self._file.write(
            struct.pack("<IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype)
        )
        self.packets_written = 0

    def write(self, packet: CapturedPacket) -> None:
        """Append one packet record."""
        whole = int(packet.timestamp)
        frac = int(round((packet.timestamp - whole) / self._tick))
        limit = 1_000_000_000 if self._nanosecond else 1_000_000
        if frac >= limit:  # rounding pushed us into the next second
            whole += 1
            frac -= limit
        length = len(packet.data)
        self._file.write(struct.pack("<IIII", whole, frac, length, length))
        self._file.write(packet.data)
        self.packets_written += 1

    def write_all(self, packets: Iterable[CapturedPacket]) -> int:
        """Append many packets; returns the number written."""
        count = 0
        for packet in packets:
            self.write(packet)
            count += 1
        return count

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PcapReader:
    """Read packets from a libpcap file.

    :meth:`read_batches` is the one record walk; iterating is a
    frame-by-frame view over it yielding :class:`CapturedPacket` records
    with float timestamps.  Handles both endiannesses and both timestamp
    resolutions.

    Args:
        path: File path or open binary stream.
        telemetry: Optional :class:`~repro.telemetry.Telemetry` registry;
            when given, ``capture.frames`` / ``capture.bytes`` /
            ``capture.truncated`` are recorded while reading.
        tolerant: Real-world captures are often cut off mid-record (a
            monitor restarted, a disk filled).  When ``True``, a truncated
            tail ends iteration cleanly (counted as ``capture.truncated``)
            instead of raising :class:`ValueError`.
        start_offset: Byte offset to resume reading from — must be a record
            boundary previously reported via :attr:`next_offset` (the global
            header is always re-read from the start of the file, so the
            offset has to be at least 24).  This is what lets a tailing
            source re-open a growing file across polls without re-counting
            packets it already delivered.

    Attributes:
        next_offset: The byte offset of the first record *not yet* yielded.
            Advanced only after a record is read in full, so after a
            tolerant truncated-tail stop it still points at the last good
            record boundary and a later resume retries the partial record.
    """

    def __init__(
        self,
        path: str | Path | BinaryIO,
        *,
        telemetry: Telemetry | None = None,
        tolerant: bool = False,
        start_offset: int = 0,
    ) -> None:
        self._telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self._tolerant = tolerant
        if hasattr(path, "read"):
            self._file: BinaryIO = path  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(path, "rb")
            self._owns_file = True
        header_bytes = self._file.read(24)
        if len(header_bytes) < 24:
            raise ValueError("file too short for a pcap global header")
        (magic,) = struct.unpack("<I", header_bytes[:4])
        if magic in (MAGIC_MICROS, MAGIC_NANOS):
            endian = "<"
        else:
            (magic,) = struct.unpack(">I", header_bytes[:4])
            if magic not in (MAGIC_MICROS, MAGIC_NANOS):
                raise ValueError("not a libpcap file (bad magic)")
            endian = ">"
        major, minor, _tz, _sig, snaplen, linktype = struct.unpack(
            endian + "HHiIII", header_bytes[4:]
        )
        self.header = PcapHeader(
            nanosecond=(magic == MAGIC_NANOS),
            little_endian=(endian == "<"),
            version_major=major,
            version_minor=minor,
            snaplen=snaplen,
            linktype=linktype,
        )
        self._endian = endian
        self._tick = 1e-9 if self.header.nanosecond else 1e-6
        if start_offset:
            if start_offset < 24:
                raise ValueError("pcap start_offset lies inside the global header")
            self._file.seek(start_offset)
            self.next_offset = start_offset
        else:
            self.next_offset = 24

    def __iter__(self) -> Iterator[CapturedPacket]:
        # One-frame batches keep :attr:`next_offset` record-exact for a
        # consumer that stops between frames.
        for batch in self.read_batches(1):
            yield CapturedPacket(batch.timestamps[0], batch.frame(0))

    def read_batches(
        self, max_frames: int = DEFAULT_FRAMES_PER_BATCH
    ) -> Iterator[FrameBatch]:
        """Yield :class:`~repro.net.batch.FrameBatch`es with zero per-frame
        object allocation.

        The file is read in large chunks; record headers are scanned in
        place with a precompiled :class:`struct.Struct` and each batch's
        offset/caplen/timestamp columns point *into the chunk itself* — no
        per-frame ``bytes`` copy, no :class:`CapturedPacket`.  Records
        ``capture.frames`` / ``capture.bytes`` per batch and advances
        :attr:`next_offset` per batch, always to a record boundary; a
        truncated tail raises (or, tolerant, counts ``capture.truncated``
        and stops) after every complete record before it was yielded.
        """
        unpack_from = struct.Struct(self._endian + "IIII").unpack_from
        tel = self._telemetry
        tick = self._tick
        file = self._file
        chunk_size = max(_BATCH_CHUNK_BYTES, 16)
        pending = b""
        while True:
            chunk = file.read(chunk_size)
            if not chunk:
                if pending:
                    if self._tolerant:
                        tel.count("capture.truncated")
                        return
                    if len(pending) < 16:
                        raise ValueError("truncated pcap record header")
                    raise ValueError("truncated pcap packet data")
                return
            if pending:
                chunk = pending + chunk
                pending = b""
            limit = len(chunk)
            pos = 0
            while True:
                offsets = array("Q")
                caplens = array("I")
                timestamps = array("d")
                put_offset = offsets.append
                put_caplen = caplens.append
                put_timestamp = timestamps.append
                batch_start = pos
                total = 0
                while limit - pos >= 16 and len(offsets) < max_frames:
                    seconds, frac, caplen, _origlen = unpack_from(chunk, pos)
                    end = pos + 16 + caplen
                    if end > limit:
                        break
                    put_offset(pos + 16)
                    put_caplen(caplen)
                    put_timestamp(seconds + frac * tick)
                    total += caplen
                    pos = end
                if not offsets:
                    break
                self.next_offset += pos - batch_start
                tel.count("capture.frames", len(offsets))
                tel.count("capture.bytes", total)
                yield FrameBatch(
                    buffer=chunk,
                    offsets=offsets,
                    caplens=caplens,
                    timestamps=timestamps,
                    total_caplen=total,
                )
            # Whatever is left is an incomplete record (or record header)
            # straddling the chunk boundary; carry it into the next read.
            pending = chunk[pos:]

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_pcap(
    path: str | Path, packets: Iterable[CapturedPacket], *, nanosecond: bool = True
) -> int:
    """Write all ``packets`` to ``path``; returns the count written."""
    with PcapWriter(path, nanosecond=nanosecond) as writer:
        return writer.write_all(packets)
