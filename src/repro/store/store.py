""":class:`MetricsStore` — the embedded, append-only, time-partitioned store.

Directory layout::

    <store>/
      manifest.json            # version, partition width, sealed-segment index
      active-p<P>.seg          # per-partition append file (crash-recoverable)
      seg-p<P>-<NNNN>.segz     # sealed, gzip-compressed, immutable segments
      seal-p<P>-<NNNN>.seg     # only mid-seal: the active file, handed off

Records are routed to the partition covering their ``start`` time
(``partition = floor(start / partition_seconds)``); each partition has at
most one active segment, sealed when it crosses the record/byte thresholds,
when capture time moves on, or at :meth:`close`.  Sealed segments carry a
self-describing footer; ``manifest.json`` caches those footers so a query
can skip non-overlapping segments without opening them.  The manifest is a
*cache*, not the truth: on open, sealed segments missing from it are
adopted by reading their footers back (``store.manifest_orphans``) and
entries whose file vanished are dropped — so losing the manifest loses
nothing but a directory scan.

Crash-safety invariants (exercised by ``tests/test_store_durability.py``):

* sealing goes through a temp name + ``os.replace`` — a sealed segment is
  never observable half-written;
* a record lives under one name: a seal renames the active file to its
  hand-off name, deleted only once the segment is published.  On open, a
  hand-off file whose segment exists is deleted, one without is sealed
  again (roll forward), and stale ``*.tmp`` files go — a crash at any step
  of a seal neither loses nor duplicates a record;
* the active segment is append-only with CRC-framed records — any kill
  leaves at most one torn tail frame, truncated away on the next open
  (``store.torn_frames``);
* the manifest (one line of compact, key-sorted JSON) is rewritten
  atomically on every seal and can always be rebuilt;
* a compaction output names its inputs in its footer (``replaces``) and is
  published before they are deleted.  On open, adopting it deletes any
  input still present, so a crash mid-compaction duplicates nothing.

Maintenance (``repro compact``, or the live sink's periodic call):
:meth:`compact` merges a partition's many small sealed segments into one,
and :meth:`enforce_retention` deletes the oldest sealed segments beyond the
configured age/byte budget — both through the same atomic-publish path.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.store.segment import (
    ActiveSegment,
    SegmentMeta,
    read_sealed_segment,
    seal_segment,
    write_sealed_segment,
)
from repro.telemetry.registry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import StoreConfig
    from repro.store.query import QueryResult, StoreQuery

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

_SEALED_RE = re.compile(r"^seg-p(-?\d+)-(\d+)\.segz$")
_ACTIVE_RE = re.compile(r"^active-p(-?\d+)\.seg$")
_HANDOFF_RE = re.compile(r"^seal-p(-?\d+)-\d+\.seg$")


def _locked(method):
    """Serialize a :class:`MetricsStore` method on the store's RLock.

    The live daemon appends from its analysis thread while the metrics
    HTTP server answers ``POST /store/query`` from handler threads; the
    reentrant lock lets a query see a consistent segment set (and lets
    ``append`` seal through ``seal_partition`` without deadlocking).
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


@dataclass(frozen=True, slots=True)
class SegmentInfo:
    """One sealed segment as the manifest (and queries) see it."""

    name: str
    partition: int
    start: float
    end: float
    records: int
    bytes: int
    kinds: tuple[tuple[str, int], ...]
    meetings: tuple[int, ...]
    media: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "partition": self.partition,
            "start": self.start,
            "end": self.end,
            "records": self.records,
            "bytes": self.bytes,
            "kinds": dict(self.kinds),
            "meetings": list(self.meetings),
            "media": list(self.media),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SegmentInfo":
        return cls(
            name=str(payload["name"]),
            partition=int(payload["partition"]),
            start=float(payload["start"]),
            end=float(payload["end"]),
            records=int(payload["records"]),
            bytes=int(payload["bytes"]),
            kinds=tuple(sorted((str(k), int(v)) for k, v in payload.get("kinds", {}).items())),
            meetings=tuple(int(m) for m in payload.get("meetings", ())),
            media=tuple(str(m) for m in payload.get("media", ())),
        )

    @classmethod
    def from_meta(cls, name: str, meta: SegmentMeta, size: int) -> "SegmentInfo":
        return cls(
            name=name,
            partition=meta.partition,
            start=meta.start if meta.records else 0.0,
            end=meta.end if meta.records else 0.0,
            records=meta.records,
            bytes=size,
            kinds=tuple(sorted(meta.kinds.items())),
            meetings=tuple(sorted(meta.meetings)),
            media=tuple(sorted(meta.media)),
        )


@dataclass(frozen=True, slots=True)
class MaintenanceReport:
    """What one :meth:`MetricsStore.maintain` pass did."""

    compactions: int
    segments_merged: int
    segments_expired: int
    bytes_reclaimed: int


class MetricsStore:
    """Open (creating if needed) the store rooted at ``directory``.

    Args:
        directory: Store root; created on first open.
        config: A frozen :class:`~repro.core.config.StoreConfig`; ``None``
            uses the defaults.
        telemetry: Optional registry for ``store.*`` counters.
    """

    def __init__(
        self,
        directory: str | Path,
        config: "StoreConfig | None" = None,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        from repro.core.config import StoreConfig

        self.directory = Path(directory)
        self.config = config if config is not None else StoreConfig()
        self._telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segments: dict[str, SegmentInfo] = {}
        self._active: dict[int, ActiveSegment] = {}
        self._next_seq: dict[int, int] = {}
        self._seals_since_maintenance = 0
        self._closed = False
        self._lock = threading.RLock()
        self._open_directory()

    # ------------------------------------------------------------------ open

    def _open_directory(self) -> None:
        tel = self._telemetry
        manifest_path = self.directory / MANIFEST_NAME
        if manifest_path.exists():
            payload = json.loads(manifest_path.read_text())
            if payload.get("version") != MANIFEST_VERSION:
                raise ValueError(
                    f"{manifest_path}: unsupported store version "
                    f"{payload.get('version')!r}"
                )
            stored_width = float(payload.get("partition_seconds", 0.0))
            if stored_width and stored_width != self.config.partition_seconds:
                # The directory's layout wins: partitions on disk were cut
                # at its width, and silently mixing widths would misfile new
                # records.
                self.config = self.config.replace(partition_seconds=stored_width)
            for entry in payload.get("segments", ()):
                info = SegmentInfo.from_dict(entry)
                self._segments[info.name] = info
        dirty = False
        # Drop manifest entries whose segment file is gone.
        for name in [n for n in self._segments if not (self.directory / n).exists()]:
            del self._segments[name]
            tel.count("store.manifest_dropped")
            dirty = True
        # Finish interrupted seals: drop unpublished temp files; delete a
        # hand-off file whose seal was published, seal it again if not.
        for path in sorted(self.directory.iterdir()):
            if path.name.endswith(".tmp"):
                path.unlink(missing_ok=True)  # a roll forward may have reused it
                continue
            match = _HANDOFF_RE.match(path.name)
            if match is None:
                continue
            sealed_path = path.with_name("seg-" + path.name.removeprefix("seal-") + "z")
            if sealed_path.exists():
                path.unlink()
            else:
                seal_segment(
                    ActiveSegment(path, int(match.group(1))),
                    sealed_path,
                    gzip_level=self.config.gzip_level,
                )
        # Adopt sealed segments the manifest does not know (crash between
        # rename and manifest write, or a manifest lost entirely).
        for path in sorted(self.directory.iterdir()):
            match = _SEALED_RE.match(path.name)
            if match is None or not path.exists():  # deleted: a merge that sorts first replaced it
                continue
            partition, seq = int(match.group(1)), int(match.group(2))
            self._next_seq[partition] = max(self._next_seq.get(partition, 0), seq + 1)
            if path.name in self._segments:
                continue
            records, footer = read_sealed_segment(path)
            if footer is None:  # rebuild the index from the records
                footer = SegmentMeta(partition=partition)
                for record in records:
                    footer.observe(record)
            for name in footer.replaces:  # a compaction cut short
                (self.directory / name).unlink(missing_ok=True)
                self._segments.pop(name, None)
            self._segments[path.name] = SegmentInfo.from_meta(
                path.name, footer, path.stat().st_size
            )
            tel.count("store.manifest_orphans")
            dirty = True
        # Recover active segments (torn tails truncated in place).
        for path in sorted(self.directory.iterdir()):
            match = _ACTIVE_RE.match(path.name)
            if match is None:
                continue
            partition = int(match.group(1))
            active = ActiveSegment(path, partition)
            if active.recovered_truncated:
                tel.count("store.torn_frames")
            self._active[partition] = active
        if dirty or not manifest_path.exists():
            self._write_manifest()

    # ---------------------------------------------------------------- append

    def partition_for(self, start: float) -> int:
        return int(math.floor(start / self.config.partition_seconds))

    @_locked
    def append(self, record: dict) -> None:
        """Durably append one store record (see :mod:`repro.store.records`).

        The record lands in the active segment of the partition covering
        its ``start`` time; crossing the configured record/byte thresholds
        seals that segment.  Far-behind partitions (older than the newest
        partition minus one) are sealed eagerly so a long run keeps at most
        a couple of active files.
        """
        if self._closed:
            raise ValueError("store is closed")
        start = float(record.get("start", 0.0))
        partition = self.partition_for(start)
        active = self._active.get(partition)
        if active is None:
            active = self._active[partition] = ActiveSegment(
                self.directory / f"active-p{partition}.seg", partition
            )
        active.append(record, fsync=self.config.fsync)
        self._telemetry.count("store.appended")
        self._telemetry.count(f"store.appended.{record.get('kind', 'unknown')}")
        if (
            active.meta.records >= self.config.seal_records
            or active.bytes >= self.config.seal_bytes
        ):
            self.seal_partition(partition)
        # Seal partitions capture time has clearly moved past.
        newest = max(self._active, default=partition)
        for stale in [p for p in self._active if p < newest - 1]:
            self.seal_partition(stale)

    # ----------------------------------------------------------------- seal

    @_locked
    def seal_partition(self, partition: int) -> str | None:
        """Seal ``partition``'s active segment; returns the sealed name."""
        active = self._active.pop(partition, None)
        if active is None:
            return None
        if active.meta.records == 0:
            active.close()
            active.path.unlink(missing_ok=True)
            return None
        seq = self._next_seq.get(partition, 0)
        self._next_seq[partition] = seq + 1
        name = f"seg-p{partition}-{seq:04d}.segz"
        sealed_path = self.directory / name
        meta = seal_segment(active, sealed_path, gzip_level=self.config.gzip_level)
        size = sealed_path.stat().st_size
        self._segments[name] = SegmentInfo.from_meta(name, meta, size)
        self._write_manifest()
        self._telemetry.count("store.segments_sealed")
        self._telemetry.count("store.records_sealed", meta.records)
        self._telemetry.count("store.bytes_sealed", size)
        self._seals_since_maintenance += 1
        return name

    @_locked
    def seal_all(self) -> list[str]:
        return [
            name
            for partition in sorted(self._active)
            if (name := self.seal_partition(partition)) is not None
        ]

    @_locked
    def close(self) -> None:
        """Seal every active segment and persist the manifest (each seal
        already publishes it; write it here only if nothing was sealed)."""
        if self._closed:
            return
        if not self.seal_all():
            self._write_manifest()
        self._closed = True

    def __enter__(self) -> "MetricsStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------ inspection

    @_locked
    def segments(self) -> list[SegmentInfo]:
        """Sealed segments, ordered by (start time, name)."""
        return sorted(self._segments.values(), key=lambda s: (s.start, s.name))

    @_locked
    def active_partitions(self) -> list[int]:
        return sorted(self._active)

    @_locked
    def record_count(self) -> int:
        sealed = sum(info.records for info in self._segments.values())
        return sealed + sum(a.meta.records for a in self._active.values())

    @_locked
    def total_bytes(self) -> int:
        return sum(info.bytes for info in self._segments.values()) + sum(
            a.bytes for a in self._active.values()
        )

    @_locked
    def iter_segment_records(self, info: SegmentInfo) -> list[dict]:
        records, _ = read_sealed_segment(self.directory / info.name)
        return records

    def iter_active_records(self) -> Iterator[tuple[int, list[dict]]]:
        """(partition, records) for every still-active segment.

        The snapshot is taken under the store lock (a generator body would
        run outside it, racing concurrent appends and seals).
        """
        with self._lock:
            snapshot = [
                (partition, self._active[partition].records_on_disk())
                for partition in sorted(self._active)
            ]
        yield from snapshot

    # --------------------------------------------------------------- queries

    @_locked
    def query(self, query: "StoreQuery") -> "QueryResult":
        """Run a :class:`~repro.store.query.StoreQuery` over this store.

        Locked end to end: compaction or retention on another thread cannot
        unlink a planned segment before the scan reads it."""
        from repro.store.query import run_query

        return run_query(self, query)

    # ----------------------------------------------------------- maintenance

    @_locked
    def compact(self) -> tuple[int, int]:
        """Merge small sealed segments partition by partition.

        A partition with at least ``compact_min_segments`` sealed segments
        smaller than ``compact_small_bytes`` gets them rewritten as one
        (records in original append order), published atomically before the
        inputs are removed; its footer names them, so a reopen after a crash
        in between removes the rest.  Returns ``(compactions, segments_merged)``.
        """
        by_partition: dict[int, list[SegmentInfo]] = {}
        for info in self._segments.values():
            if info.bytes <= self.config.compact_small_bytes:
                by_partition.setdefault(info.partition, []).append(info)
        compactions = merged = 0
        for partition, infos in sorted(by_partition.items()):
            if len(infos) < self.config.compact_min_segments:
                continue
            infos.sort(key=lambda s: s.name)
            records: list[dict] = []
            for info in infos:
                records.extend(self.iter_segment_records(info))
            seq = self._next_seq.get(partition, 0)
            self._next_seq[partition] = seq + 1
            name = f"seg-p{partition}-{seq:04d}.segz"
            sealed_path = self.directory / name
            meta = write_sealed_segment(
                sealed_path,
                records,
                SegmentMeta(partition, replaces=[info.name for info in infos]),
                gzip_level=self.config.gzip_level,
            )
            self._segments[name] = SegmentInfo.from_meta(
                name, meta, sealed_path.stat().st_size
            )
            for info in infos:
                (self.directory / info.name).unlink(missing_ok=True)
                del self._segments[info.name]
            self._write_manifest()
            compactions += 1
            merged += len(infos)
            self._telemetry.count("store.compactions")
            self._telemetry.count("store.segments_compacted", len(infos))
        return compactions, merged

    @_locked
    def enforce_retention(self) -> tuple[int, int]:
        """Delete the oldest sealed segments beyond the retention budget.

        Age first (segments whose newest record is older than
        ``retention_max_age`` behind the store's newest record), then total
        size (oldest-first until under ``retention_max_bytes``).  Active
        segments are never deleted.  Returns ``(segments, bytes)`` removed.
        """
        removed = reclaimed = 0
        ordered = self.segments()
        if self.config.retention_max_age is not None and ordered:
            horizon = max(info.end for info in ordered) - self.config.retention_max_age
            for info in [s for s in ordered if s.end < horizon]:
                removed += 1
                reclaimed += info.bytes
                (self.directory / info.name).unlink(missing_ok=True)
                del self._segments[info.name]
        if self.config.retention_max_bytes is not None:
            ordered = self.segments()
            total = sum(info.bytes for info in ordered)
            for info in ordered:
                if total <= self.config.retention_max_bytes:
                    break
                total -= info.bytes
                removed += 1
                reclaimed += info.bytes
                (self.directory / info.name).unlink(missing_ok=True)
                del self._segments[info.name]
        if removed:
            self._write_manifest()
            self._telemetry.count("store.segments_expired", removed)
            self._telemetry.count("store.bytes_expired", reclaimed)
        return removed, reclaimed

    def maintain(self) -> MaintenanceReport:
        """One compaction + retention pass (the ``repro compact`` body)."""
        compactions, merged = self.compact()
        expired, reclaimed = self.enforce_retention()
        self._seals_since_maintenance = 0
        return MaintenanceReport(
            compactions=compactions,
            segments_merged=merged,
            segments_expired=expired,
            bytes_reclaimed=reclaimed,
        )

    def maintain_if_due(self) -> MaintenanceReport | None:
        """Run maintenance after every ``maintenance_interval`` seals — the
        live sink's cheap hook: a no-op almost always."""
        if self._seals_since_maintenance < self.config.maintenance_interval:
            return None
        return self.maintain()

    # ------------------------------------------------------------- manifest

    def _write_manifest(self) -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "partition_seconds": self.config.partition_seconds,
            "segments": [info.to_dict() for info in self.segments()],
        }
        # Compact separators keep json on its C encoder (``indent`` forces the
        # pure-Python one); readers only ever ``json.loads`` the file.
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        tmp_path = self.directory / (MANIFEST_NAME + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.directory / MANIFEST_NAME)
