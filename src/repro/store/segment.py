"""Segment files: the on-disk unit of the metrics store.

A segment is a sequence of *frames*, each one JSON record of the store
(a closed window, a finalized stream, a meeting summary).  Two states:

* **Active** (``active-p<partition>.seg``) — the plain, uncompressed file a
  writer appends to.  Every frame is length-prefixed and CRC-protected, so
  a process killed mid-write leaves at most one torn frame at the tail;
  :func:`recover_active` truncates the file back to the last valid frame on
  the next open and the writer continues appending after it.
* **Sealed** (``seg-p<partition>-<seq>.segz``) — the gzip-compressed,
  immutable form.  Sealing renames the active file to a hand-off name
  (``seal-p<partition>-<seq>.seg``), copies its CRC-verified frames
  verbatim through gzip plus a *footer frame* (the segment's own index:
  time range, record counts by kind, meeting ids, media types) into a temp
  name, fsyncs, atomically renames, and only then deletes the hand-off
  file — a sealed segment either exists completely or not at all.

The footer makes every sealed segment self-describing: the store-level
manifest is a cache of the footers, and :meth:`MetricsStore` rebuilds any
missing manifest entry by reading the footer back.  Frames are compact JSON
rather than a binary rowformat because the records are small (a few hundred
bytes), gzip removes most of the redundancy on seal, and debuggability of a
long-lived on-disk format outweighs the codec cost at window cadence (one
record per window per ~10 s, not per packet).
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

#: Identifies (and versions) a segment byte stream.  Bumping the version
#: byte invalidates old stores loudly instead of misreading them.
SEGMENT_MAGIC = b"RPRSEG1\n"

_FRAME_HEADER = struct.Struct(">II")  # payload length, CRC32 of payload

#: Key marking the final frame of a sealed segment as its index, not a
#: record.  Readers never yield it as data.
FOOTER_KEY = "__footer__"
_FOOTER_BYTES = json.dumps(FOOTER_KEY).encode("ascii")

#: Refuse absurd frame lengths during recovery: a corrupt header would
#: otherwise ask for gigabytes.  No legitimate store record approaches this.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def encode_frame(record: dict) -> bytes:
    """One record as a length-prefixed, CRC-protected frame."""
    payload = json.dumps(
        record, separators=(",", ":"), sort_keys=True, allow_nan=False
    ).encode("utf-8")
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def iter_frames(handle: IO[bytes]) -> Iterator[dict]:
    """Yield every valid record frame from ``handle`` (positioned after the
    magic); stops silently at the first torn or corrupt frame."""
    for record, _ in iter_frames_with_offsets(handle):
        yield record


def iter_raw_frames(handle: IO[bytes]) -> Iterator[tuple[bytes, bytes]]:
    """The one frame walker: each frame's ``(header, payload)`` bytes, up to
    the first torn header, absurd length, short payload or CRC mismatch."""
    while True:
        header = handle.read(_FRAME_HEADER.size)
        if len(header) < _FRAME_HEADER.size:
            return
        length, crc = _FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            return
        payload = handle.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return
        yield header, payload


def _decode(payload: bytes) -> dict | None:
    """A frame payload as its record, or ``None`` if it is not a JSON object."""
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def iter_frames_with_offsets(handle: IO[bytes]) -> Iterator[tuple[dict, int]]:
    """Like :func:`iter_frames` but also yields the byte offset at which
    each frame *ends* — what recovery truncates back to."""
    offset = handle.tell()
    for header, payload in iter_raw_frames(handle):
        record = _decode(payload)
        if record is None:
            return
        offset += len(header) + len(payload)
        yield record, offset


@dataclass
class SegmentMeta:
    """What a segment's footer (and the manifest) records about it.

    Accumulated incrementally as records are appended so sealing never has
    to re-read the data, and rebuilt from the recovered records when an
    active segment is reopened after a crash.  ``replaces`` names the
    segments a compaction output supersedes (empty for any other segment).
    """

    partition: int
    start: float = float("inf")
    end: float = float("-inf")
    records: int = 0
    kinds: dict[str, int] = field(default_factory=dict)
    meetings: set[int] = field(default_factory=set)
    media: set[str] = field(default_factory=set)
    replaces: list[str] = field(default_factory=list)

    def observe(self, record: dict) -> None:
        self.records += 1
        kind = str(record.get("kind", "unknown"))
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        start = float(record.get("start", 0.0))
        end = float(record.get("end", start))
        self.start = min(self.start, start)
        self.end = max(self.end, end)
        if kind == "meeting" and "meeting_id" in record:
            self.meetings.add(int(record["meeting_id"]))
        if kind == "stream" and record.get("media") is not None:
            self.media.add(str(record["media"]))
        for entry in record.get("media", []) if kind == "window" else ():
            if isinstance(entry, dict) and "media" in entry:
                self.media.add(str(entry["media"]))

    def footer_record(self) -> dict:
        footer = {
            FOOTER_KEY: 1,
            "partition": self.partition,
            "start": self.start if self.records else 0.0,
            "end": self.end if self.records else 0.0,
            "records": self.records,
            "kinds": dict(sorted(self.kinds.items())),
            "meetings": sorted(self.meetings),
            "media": sorted(self.media),
        }
        if self.replaces:
            footer["replaces"] = self.replaces
        return footer

    @classmethod
    def from_footer(cls, footer: dict) -> "SegmentMeta":
        meta = cls(partition=int(footer["partition"]))
        meta.records = int(footer["records"])
        if meta.records:
            meta.start = float(footer["start"])
            meta.end = float(footer["end"])
        meta.kinds = {str(k): int(v) for k, v in footer.get("kinds", {}).items()}
        meta.meetings = {int(m) for m in footer.get("meetings", ())}
        meta.media = {str(m) for m in footer.get("media", ())}
        meta.replaces = [str(name) for name in footer.get("replaces", ())]
        return meta


@dataclass
class RecoveredSegment:
    """What :func:`recover_active` found in an existing active file."""

    meta: SegmentMeta
    valid_bytes: int
    truncated: bool  # a torn/corrupt tail was cut off


def recover_active(path: Path, partition: int) -> RecoveredSegment:
    """Validate an active segment, truncating any torn tail in place.

    Reads every intact frame to rebuild the segment's metadata, then —
    if the file holds trailing garbage (a frame cut short by a crash, a
    corrupt CRC) — truncates the file back to the end of the last valid
    frame so appending can resume.  A file too short to hold the magic, or
    with the wrong magic, is reset to a fresh empty segment.
    """
    meta = SegmentMeta(partition=partition)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        magic = handle.read(len(SEGMENT_MAGIC))
        if magic != SEGMENT_MAGIC:
            handle.seek(0)
            handle.write(SEGMENT_MAGIC)
            handle.truncate(len(SEGMENT_MAGIC))
            return RecoveredSegment(meta, len(SEGMENT_MAGIC), truncated=size > 0)
        valid = len(SEGMENT_MAGIC)
        for record, end_offset in iter_frames_with_offsets(handle):
            if FOOTER_KEY in record:
                continue  # sealed content copied into an active name; skip
            meta.observe(record)
            valid = end_offset
        truncated = valid < size
        if truncated:
            handle.truncate(valid)
    return RecoveredSegment(meta, valid, truncated=truncated)


class ActiveSegment:
    """The append side of one partition's active segment file."""

    def __init__(self, path: Path, partition: int) -> None:
        self.path = path
        self.partition = partition
        if path.exists():
            recovered = recover_active(path, partition)
            self.meta = recovered.meta
            self.recovered_truncated = recovered.truncated
        else:
            self.meta = SegmentMeta(partition=partition)
            self.recovered_truncated = False
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(SEGMENT_MAGIC)
        self._file = open(path, "ab")
        self.bytes = self._file.tell()

    def append(self, record: dict, *, fsync: bool = False) -> None:
        frame = encode_frame(record)
        self._file.write(frame)
        self._file.flush()
        if fsync:
            os.fsync(self._file.fileno())
        self.bytes += len(frame)
        self.meta.observe(record)

    def records_on_disk(self) -> list[dict]:
        """Re-read every appended record (used by queries over the active
        tail and by sealing after a crash recovery)."""
        with open(self.path, "rb") as handle:
            handle.seek(len(SEGMENT_MAGIC))
            return [r for r in iter_frames(handle) if FOOTER_KEY not in r]

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


def seal_segment(active: ActiveSegment, sealed_path: Path, *, gzip_level: int = 6) -> SegmentMeta:
    """Compress an active segment into its immutable sealed form.

    The active file is first handed off: renamed to ``seal-p<P>-<seq>.seg``
    beside ``sealed_path = seg-p<P>-<seq>.segz``.  Its frames (re-read from
    disk, so a recovered writer seals exactly what survived) are copied
    verbatim once the frame walker has checked their length and CRC —
    :func:`encode_frame` is deterministic, so those are the bytes
    re-encoding would write — then the footer frame is appended and the
    segment published (:func:`_publish`).  Only then is the hand-off file
    deleted.  A payload is decoded only if it holds ``"__footer__"``, to
    skip a footer frame copied into an active file.  On open, the store
    deletes a hand-off file whose sealed segment exists and seals one that
    has none again (roll forward).
    """
    active.close()
    meta = active.meta
    stem = sealed_path.name.removeprefix("seg-").removesuffix(".segz")
    handoff = sealed_path.with_name(f"seal-{stem}.seg")
    os.replace(active.path, handoff)
    frames = [SEGMENT_MAGIC]
    with open(handoff, "rb") as src:
        src.seek(len(SEGMENT_MAGIC))
        for header, payload in iter_raw_frames(src):
            if _FOOTER_BYTES in payload:
                record = _decode(payload)
                if record is None:
                    break
                if FOOTER_KEY in record:
                    continue
            frames += (header, payload)
    frames.append(encode_frame(meta.footer_record()))
    _publish(sealed_path, frames, gzip_level)
    handoff.unlink()
    return meta


def write_sealed_segment(
    sealed_path: Path,
    records: Iterable[dict],
    meta: SegmentMeta,
    *,
    gzip_level: int = 6,
) -> SegmentMeta:
    """Write a sealed segment directly from records (the compaction path),
    observing them into the fresh ``meta`` that becomes its footer."""
    frames = [SEGMENT_MAGIC]
    for record in records:
        frames.append(encode_frame(record))
        meta.observe(record)
    frames.append(encode_frame(meta.footer_record()))
    _publish(sealed_path, frames, gzip_level)
    return meta


def _publish(sealed_path: Path, frames: list[bytes], gzip_level: int) -> None:
    """Gzip ``frames`` into a temp name, fsync, and atomically rename it to
    ``sealed_path`` — a sealed segment exists completely or not at all.
    ``mtime=0`` keeps sealing deterministic: the same records always give
    byte-identical segments, which the compaction and equivalence tests
    rely on."""
    tmp_path = sealed_path.with_name(sealed_path.name + ".tmp")
    with open(tmp_path, "wb") as raw:
        with gzip.GzipFile(
            fileobj=raw, mode="wb", compresslevel=gzip_level, mtime=0, filename=""
        ) as out:
            out.write(b"".join(frames))
        raw.flush()
        os.fsync(raw.fileno())
    os.replace(tmp_path, sealed_path)


def read_sealed_segment(path: Path) -> tuple[list[dict], SegmentMeta | None]:
    """All records of a sealed segment plus its footer metadata.

    Returns ``(records, None)`` for a segment whose footer is missing or
    unreadable — the caller decides whether to adopt or quarantine it.
    """
    records: list[dict] = []
    footer: SegmentMeta | None = None
    with gzip.open(path, "rb") as handle:
        magic = handle.read(len(SEGMENT_MAGIC))
        if magic != SEGMENT_MAGIC:
            raise ValueError(f"{path}: not a store segment (magic {magic!r})")
        for record in iter_frames(handle):
            if FOOTER_KEY in record:
                footer = SegmentMeta.from_footer(record)
            else:
                records.append(record)
    return records, footer
