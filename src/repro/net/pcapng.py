"""Reader and writer for the pcapng capture format (RFC draft-tuexen).

Campus capture systems increasingly hand researchers pcapng rather than
classic pcap; this module covers the subset needed to interchange packet
captures: Section Header Blocks, Interface Description Blocks (with the
``if_tsresol`` option), Enhanced Packet Blocks, and Simple Packet Blocks.
Unknown block types are skipped by length, per the spec.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.net.batch import DEFAULT_FRAMES_PER_BATCH, FrameBatch, FrameBatchBuilder
from repro.net.packet import CapturedPacket
from repro.telemetry.registry import Telemetry

BLOCK_SHB = 0x0A0D0D0A
BLOCK_IDB = 0x00000001
BLOCK_SPB = 0x00000003
BLOCK_EPB = 0x00000006

BYTE_ORDER_MAGIC = 0x1A2B3C4D
OPT_ENDOFOPT = 0
OPT_IF_TSRESOL = 9
LINKTYPE_ETHERNET = 1


def _pad4(length: int) -> int:
    return (-length) % 4


@dataclass
class _Interface:
    linktype: int
    ticks_per_second: float


@dataclass(frozen=True, slots=True)
class PcapngResumeState:
    """Where (and how) to pick up reading a growing pcapng file.

    Unlike classic pcap, a byte offset alone is not enough to resume: the
    enclosing section fixes the byte order and the interface table that
    packet blocks reference, and both were consumed before the offset.
    """

    offset: int
    endian: str
    interfaces: tuple[tuple[int, float], ...]  # (linktype, ticks_per_second)


class PcapngWriter:
    """Write packets as a single-section, single-interface pcapng file.

    Timestamps are written at nanosecond resolution (``if_tsresol`` = 9).
    """

    def __init__(self, path: str | Path | BinaryIO, *, snaplen: int = 262144) -> None:
        if hasattr(path, "write"):
            self._file: BinaryIO = path  # type: ignore[assignment]
            self._owns = False
        else:
            self._file = open(path, "wb")
            self._owns = True
        self.packets_written = 0
        self._write_shb()
        self._write_idb(snaplen)

    def _write_block(self, block_type: int, body: bytes) -> None:
        total = 12 + len(body)
        self._file.write(struct.pack("<II", block_type, total) + body + struct.pack("<I", total))

    def _write_shb(self) -> None:
        body = struct.pack("<IHHq", BYTE_ORDER_MAGIC, 1, 0, -1)
        self._write_block(BLOCK_SHB, body)

    def _write_idb(self, snaplen: int) -> None:
        # Option 9 (if_tsresol) = 9 -> 10^-9 seconds per tick.
        options = struct.pack("<HHB3x", OPT_IF_TSRESOL, 1, 9)
        options += struct.pack("<HH", OPT_ENDOFOPT, 0)
        body = struct.pack("<HHI", LINKTYPE_ETHERNET, 0, snaplen) + options
        self._write_block(BLOCK_IDB, body)

    def write(self, packet: CapturedPacket) -> None:
        ticks = int(round(packet.timestamp * 1_000_000_000))
        high, low = ticks >> 32, ticks & 0xFFFFFFFF
        length = len(packet.data)
        body = struct.pack("<IIIII", 0, high, low, length, length)
        body += packet.data + b"\x00" * _pad4(length)
        self._write_block(BLOCK_EPB, body)
        self.packets_written += 1

    def write_all(self, packets: Iterable[CapturedPacket]) -> int:
        count = 0
        for packet in packets:
            self.write(packet)
            count += 1
        return count

    def close(self) -> None:
        if self._owns:
            self._file.close()

    def __enter__(self) -> "PcapngWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class PcapngReader:
    """Read packets from a pcapng file (either endianness).

    :meth:`read_batches` is the one block walk; iterating is a
    frame-by-frame view over it yielding :class:`CapturedPacket` records.
    Simple Packet Blocks carry no timestamp; they are reported at time 0.0.
    Multiple sections and interfaces are supported; per-interface
    ``if_tsresol`` is honored.

    Args:
        path: File path or open binary stream.
        telemetry: Optional :class:`~repro.telemetry.Telemetry` registry;
            records ``capture.frames`` / ``capture.bytes`` /
            ``capture.unknown_blocks`` / ``capture.truncated`` while reading.
        tolerant: When ``True``, a truncated or corrupt tail ends iteration
            cleanly (counted as ``capture.truncated``) instead of raising.
        resume: A :class:`PcapngResumeState` from a previous reader's
            :meth:`resume_state`; reading continues at that block boundary
            with the recorded section byte order and interface table.

    Attributes:
        next_offset: The byte offset of the first block *not yet* consumed.
            Advanced only after a block is read in full, so a tolerant
            truncated-tail stop leaves it at the last good block boundary.
    """

    def __init__(
        self,
        path: str | Path | BinaryIO,
        *,
        telemetry: Telemetry | None = None,
        tolerant: bool = False,
        resume: PcapngResumeState | None = None,
    ) -> None:
        self._telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self._tolerant = tolerant
        if hasattr(path, "read"):
            self._file: BinaryIO = path  # type: ignore[assignment]
            self._owns = False
        else:
            self._file = open(path, "rb")
            self._owns = True
        self._endian = "<"
        self._interfaces: list[_Interface] = []
        header = self._file.read(8)
        if len(header) < 8:
            raise ValueError("file too short for pcapng")
        (block_type,) = struct.unpack("<I", header[:4])
        if block_type != BLOCK_SHB:
            raise ValueError("not a pcapng file (no section header block)")
        self._pending = header
        self.next_offset = 0
        if resume is not None:
            self._endian = resume.endian
            self._interfaces = [
                _Interface(linktype, ticks) for linktype, ticks in resume.interfaces
            ]
            self._pending = b""
            self._file.seek(resume.offset)
            self.next_offset = resume.offset

    def resume_state(self) -> PcapngResumeState:
        """Snapshot of the current read position for a later ``resume=``."""
        return PcapngResumeState(
            offset=self.next_offset,
            endian=self._endian,
            interfaces=tuple(
                (iface.linktype, iface.ticks_per_second) for iface in self._interfaces
            ),
        )

    def _read_exact(self, count: int) -> bytes | None:
        if self._pending:
            chunk, self._pending = self._pending, b""
            rest = self._file.read(count - len(chunk))
            data = chunk + rest
        else:
            data = self._file.read(count)
        if not data:
            return None
        if len(data) < count:
            raise ValueError("truncated pcapng block")
        return data

    def __iter__(self) -> Iterator[CapturedPacket]:
        # One-frame batches keep :attr:`next_offset` block-exact for a
        # consumer that stops between frames.
        for batch in self.read_batches(1):
            yield CapturedPacket(batch.timestamps[0], batch.frame(0))

    def read_batches(
        self, max_frames: int = DEFAULT_FRAMES_PER_BATCH
    ) -> Iterator[FrameBatch]:
        """Yield :class:`~repro.net.batch.FrameBatch`es of EPB/SPB frames.

        Frame bytes are appended straight from each block body into the
        batch buffer — no per-frame :class:`CapturedPacket`.  A truncated
        or corrupt tail raises (or, tolerant, counts ``capture.truncated``
        and stops) only after the partial batch built before it was
        yielded, so no complete block is lost to the error.
        """
        if not self._tolerant:
            yield from self._batch_blocks(max_frames)
            return
        try:
            yield from self._batch_blocks(max_frames)
        except ValueError:
            self._telemetry.count("capture.truncated")

    def _batch_blocks(self, max_frames: int) -> Iterator[FrameBatch]:
        """Walk the block structure, packing packet blocks into batches.

        Section headers (byte-order switches, interface-table resets),
        interface descriptions, and unknown blocks are consumed on the way.
        """
        tel = self._telemetry
        builder = FrameBatchBuilder()
        try:
            while True:
                head = self._read_exact(8)
                if head is None:
                    break
                block_type, total_len = struct.unpack(self._endian + "II", head)
                if block_type == BLOCK_SHB:
                    # Length may be in the other byte order until we read the magic.
                    body_start = self._read_exact(4)
                    if body_start is None:
                        raise ValueError("truncated section header")
                    (magic_le,) = struct.unpack("<I", body_start)
                    self._endian = "<" if magic_le == BYTE_ORDER_MAGIC else ">"
                    (_type, total_len) = struct.unpack(self._endian + "II", head)
                    # Consume the rest of the block: body after the magic plus
                    # the trailing total-length word.
                    remaining = total_len - 8 - 4
                    if self._read_exact(remaining) is None:
                        raise ValueError("truncated section header block")
                    self._interfaces = []  # interfaces are per section
                    self.next_offset += total_len
                    continue
                body_len = total_len - 12
                if body_len < 0:
                    raise ValueError(f"invalid block length {total_len}")
                body = self._read_exact(body_len + 4)  # body + trailing length
                if body is None:
                    raise ValueError("truncated block body")
                self.next_offset += total_len
                if block_type == BLOCK_IDB:
                    self._handle_idb(body[:-4])
                    continue
                view = memoryview(body)[:-4]
                if block_type == BLOCK_EPB:
                    if len(view) < 20:
                        raise ValueError("enhanced packet block too short")
                    interface_id, high, low, caplen, _origlen = struct.unpack_from(
                        self._endian + "IIIII", view, 0
                    )
                    if 20 + caplen > len(view):
                        raise ValueError("truncated packet data in EPB")
                    if interface_id < len(self._interfaces):
                        ticks_per_second = self._interfaces[
                            interface_id
                        ].ticks_per_second
                    else:
                        ticks_per_second = 1_000_000.0
                    data = view[20 : 20 + caplen]
                    timestamp = ((high << 32) | low) / ticks_per_second
                elif block_type == BLOCK_SPB:
                    # No timestamp; the data may be silently short.
                    if len(view) < 4:
                        raise ValueError("simple packet block too short")
                    (origlen,) = struct.unpack_from(self._endian + "I", view, 0)
                    data = view[4 : 4 + origlen]
                    timestamp = 0.0
                else:
                    # Unknown block types are skipped by length, per spec —
                    # but counted, so --stats shows what the reader ignored.
                    tel.count("capture.unknown_blocks")
                    continue
                builder.append(data, timestamp)
                tel.count("capture.frames")
                tel.count("capture.bytes", len(data))
                if len(builder) >= max_frames:
                    yield builder.build()
        except ValueError:
            # Flush the frames read before the corrupt tail, then let the
            # tolerant wrapper (or the caller) see the error.
            if len(builder):
                yield builder.build()
            raise
        if len(builder):
            yield builder.build()

    def _handle_idb(self, body: bytes) -> None:
        linktype, _reserved, _snaplen = struct.unpack_from(self._endian + "HHI", body, 0)
        ticks_per_second = 1_000_000.0  # spec default: microseconds
        position = 8
        while position + 4 <= len(body):
            code, length = struct.unpack_from(self._endian + "HH", body, position)
            position += 4
            if code == OPT_ENDOFOPT:
                break
            value = body[position : position + length]
            position += length + _pad4(length)
            if code == OPT_IF_TSRESOL and len(value) >= 1:
                resol = value[0]
                if resol & 0x80:
                    ticks_per_second = float(2 ** (resol & 0x7F))
                else:
                    ticks_per_second = float(10 ** resol)
        self._interfaces.append(_Interface(linktype, ticks_per_second))

    def close(self) -> None:
        if self._owns:
            self._file.close()

    def __enter__(self) -> "PcapngReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def write_pcapng(path: str | Path, packets: Iterable[CapturedPacket]) -> int:
    """Write all packets to a pcapng file; returns the count."""
    with PcapngWriter(path) as writer:
        return writer.write_all(packets)
