"""The store's query engine: time/meeting/media slicing with segment skipping.

A :class:`StoreQuery` describes the slice — capture-time range, record
kinds, a meeting id, a media type, optional metric projection, optional
re-aggregation of windows into coarser buckets — and :func:`run_query`
executes it against a :class:`~repro.store.store.MetricsStore`:

1. **Plan**: each sealed segment's footer (cached in the manifest) goes
   through :func:`_match`'s own predicate, its ``[start, end]`` standing in
   for every record inside; only segments that could hold a match are
   decompressed (``segments_scanned`` vs ``segments_skipped``).
   ``use_index=False`` forces the full scan indexed answers must equal.
2. **Scan**: surviving segments (plus any still-active tails) are read and
   records filtered exactly.
3. **Shape**: windows are optionally re-aggregated into coarser windows
   and/or projected down to the selected metrics.

Querying by meeting resolves the meeting's activity span first (from
``meeting`` records, which the footer indexes by id) and then selects the
windows/streams overlapping that span (which also plans the scan) — the
longitudinal "slice by time, meeting, and media type" workflow of the
paper's §6.2 campus study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.store.merge import shape_records

__all__ = [
    "QueryResult",
    "StoreQuery",
    "flatten_records",
    "run_query",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.store import MetricsStore, SegmentInfo


@dataclass(frozen=True, slots=True)
class StoreQuery:
    """One declarative slice of the store.

    Attributes:
        start / end: Capture-time range; a record matches if its
            ``[start, end]`` span overlaps the half-open ``[start, end)``
            query range.  ``None`` leaves that side unbounded.
        kinds: Record kinds to return (default: windows only).
        meeting_id: Restrict to one meeting — ``meeting`` records with the
            id, and other kinds overlapping that meeting's activity span.
        media: Media-type name (``audio``/``video``/``screen``): ``stream``
            records of that type, and ``window`` records thinned to that
            media entry (windows with no such traffic are dropped).
        metrics: Optional projection: window records keep only these keys
            (identity keys always survive; per-media metric names select
            within each media entry).
        reaggregate_seconds: Merge window records into tumbling buckets of
            this width (must be a multiple of the stored window width to
            be lossless; checked by the caller's eyes, not enforced).
        use_index: ``False`` disables manifest-based segment skipping (the
            full-scan baseline the benchmark compares against).
        meeting_spans: Pre-resolved activity span(s) for ``meeting_id``.
            When set, :func:`run_query` skips its own span-resolution pass
            and filters non-meeting kinds against these spans directly.
            This is how the fleet's federated plane keeps meeting queries
            correct when the meeting record lives in one node's store but
            the meeting's windows were captured by another tap: the plane
            resolves spans fleet-wide first, then fans the scan out with
            the spans attached.
    """

    start: float | None = None
    end: float | None = None
    kinds: tuple[str, ...] = ("window",)
    meeting_id: int | None = None
    media: str | None = None
    metrics: tuple[str, ...] | None = None
    reaggregate_seconds: float | None = None
    use_index: bool = True
    meeting_spans: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if self.metrics is not None:
            object.__setattr__(self, "metrics", tuple(self.metrics))
        if self.reaggregate_seconds is not None and self.reaggregate_seconds <= 0:
            raise ValueError("reaggregate_seconds must be > 0")
        if self.meeting_spans is not None:
            object.__setattr__(
                self,
                "meeting_spans",
                tuple((float(lo), float(hi)) for lo, hi in self.meeting_spans),
            )

    # ------------------------------------------------------- meeting spans

    def needs_span_pass(self) -> bool:
        """Whether answering takes two passes: a meeting slice of
        non-meeting kinds whose activity span(s) are not resolved yet."""
        return (
            self.meeting_id is not None
            and self.meeting_spans is None
            and self.kinds != ("meeting",)
        )

    def span_query(self) -> "StoreQuery":
        """The first pass: this meeting's ``meeting`` records (index-pruned
        by the footers' meeting-id sets), whose bounds are the spans."""
        return StoreQuery(
            kinds=("meeting",),
            meeting_id=self.meeting_id,
            start=self.start,
            end=self.end,
            use_index=self.use_index,
        )

    # ------------------------------------------------------------ transport

    def to_dict(self) -> dict:
        """JSON-serializable form (the fleet HTTP store endpoint's wire
        format); only non-default fields are emitted."""
        payload: dict = {"kinds": list(self.kinds)}
        if self.start is not None:
            payload["start"] = self.start
        if self.end is not None:
            payload["end"] = self.end
        if self.meeting_id is not None:
            payload["meeting_id"] = self.meeting_id
        if self.media is not None:
            payload["media"] = self.media
        if self.metrics is not None:
            payload["metrics"] = list(self.metrics)
        if self.reaggregate_seconds is not None:
            payload["reaggregate_seconds"] = self.reaggregate_seconds
        if not self.use_index:
            payload["use_index"] = False
        if self.meeting_spans is not None:
            payload["meeting_spans"] = [list(span) for span in self.meeting_spans]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "StoreQuery":
        """Inverse of :meth:`to_dict`; unknown keys raise (a version-skewed
        fleet peer should fail loudly, not silently mis-filter)."""
        known = {
            "start", "end", "kinds", "meeting_id", "media", "metrics",
            "reaggregate_seconds", "use_index", "meeting_spans",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown StoreQuery fields: {sorted(unknown)}")
        fields = dict(payload)
        if "kinds" in fields:
            fields["kinds"] = tuple(str(kind) for kind in fields["kinds"])
        if "metrics" in fields and fields["metrics"] is not None:
            fields["metrics"] = tuple(str(m) for m in fields["metrics"])
        if "meeting_spans" in fields and fields["meeting_spans"] is not None:
            fields["meeting_spans"] = tuple(
                (float(lo), float(hi)) for lo, hi in fields["meeting_spans"]
            )
        return cls(**fields)


@dataclass
class QueryResult:
    """Matching records plus the plan accounting the benchmark reads."""

    records: list[dict] = field(default_factory=list)
    segments_scanned: int = 0
    segments_skipped: int = 0
    records_examined: int = 0

    @property
    def count(self) -> int:
        return len(self.records)


def run_query(store: "MetricsStore", query: StoreQuery) -> QueryResult:
    """Execute ``query`` against ``store`` (see module docstring)."""
    spans: list[tuple[float, float]] | None = None
    span_result: QueryResult | None = None
    if query.meeting_spans is not None:
        spans = list(query.meeting_spans)
        if not spans:
            return QueryResult()
    elif query.needs_span_pass():
        span_result = _scan(store, query.span_query(), spans=None)
        spans = [
            (float(r["start"]), float(r["end"])) for r in span_result.records
        ]
        if not spans:
            return QueryResult(
                segments_scanned=span_result.segments_scanned,
                segments_skipped=span_result.segments_skipped,
                records_examined=span_result.records_examined,
            )
    result = _scan(store, query, spans=spans)
    if span_result is not None:
        result.segments_scanned += span_result.segments_scanned
        result.segments_skipped += span_result.segments_skipped
        result.records_examined += span_result.records_examined
    # Shaping (re-aggregation, canonical ordering, projection) goes through
    # the same helper the federated plane uses — the bit-identity contract.
    result.records = shape_records(result.records, query)
    return result


# ----------------------------------------------------------------- planning


def _segment_may_match(
    info: "SegmentInfo",
    query: StoreQuery,
    spans: list[tuple[float, float]] | None,
) -> bool:
    """:func:`_match` one level up: could some record of an asked kind,
    bounded by the footer's ``[start, end]``, match?"""
    if not _overlaps(info.start, info.end, query.start, query.end):
        return False
    counts = dict(info.kinds)
    media_ok = query.media is None or not info.media or query.media in info.media
    spans_ok = spans is None or any(
        _overlaps(info.start, info.end, lo, hi) for lo, hi in spans
    )
    for kind in query.kinds:
        if not counts.get(kind):
            continue
        if kind == "meeting":
            if query.meeting_id is None or query.meeting_id in info.meetings:
                return True
        elif media_ok and spans_ok:
            return True
    return False


def _scan(
    store: "MetricsStore",
    query: StoreQuery,
    *,
    spans: list[tuple[float, float]] | None,
) -> QueryResult:
    result = QueryResult()
    batches: list[list[dict]] = []
    for info in store.segments():
        if query.use_index and not _segment_may_match(info, query, spans):
            result.segments_skipped += 1
            continue
        result.segments_scanned += 1
        batches.append(store.iter_segment_records(info))
    for _, records in store.iter_active_records():
        batches.append(records)
    for records in batches:
        for record in records:
            result.records_examined += 1
            matched = _match(record, query, spans)
            if matched is not None:
                result.records.append(matched)
    return result


# ---------------------------------------------------------------- matching


def _overlaps(start: float, end: float, lo: float | None, hi: float | None) -> bool:
    if lo is not None and end < lo:
        return False
    if hi is not None and start >= hi:
        return False
    return True


def _match(
    record: dict,
    query: StoreQuery,
    spans: list[tuple[float, float]] | None,
) -> dict | None:
    kind = record.get("kind")
    if kind not in query.kinds:
        return None
    start = float(record.get("start", 0.0))
    end = float(record.get("end", start))
    if not _overlaps(start, end, query.start, query.end):
        return None
    if kind == "meeting":
        if (
            query.meeting_id is not None
            and int(record.get("meeting_id", -1)) != query.meeting_id
        ):
            return None
    elif spans is not None and not any(
        _overlaps(start, end, lo, hi) for lo, hi in spans
    ):
        return None
    if query.media is not None:
        if kind == "stream":
            if record.get("media") != query.media:
                return None
        elif kind == "window":
            entries = [
                entry
                for entry in record.get("media", ())
                if entry.get("media") == query.media
            ]
            if not entries:
                return None
            record = dict(record)
            record["media"] = entries
    return record


# ------------------------------------------------------------ flat output


WINDOW_COLUMNS = (
    "window",
    "start",
    "end",
    "packets_total",
    "zoom_packets",
    "meetings_active",
    "media",
    "media_packets",
    "media_bytes",
    "bitrate_bps",
    "streams",
    "mean_fps",
    "mean_jitter_ms",
    "lost",
)

STREAM_COLUMNS = (
    "start",
    "end",
    "ssrc",
    "media",
    "packets",
    "bytes",
    "frames_completed",
    "mean_fps",
    "jitter_ms",
    "lost",
    "duplicates",
    "stall_count",
)

MEETING_COLUMNS = ("start", "end", "meeting_id", "streams", "participants")


def flatten_records(records: list[dict]) -> tuple[list[str], list[dict]]:
    """Rows for tabular output (``repro query --format table|csv``).

    Window records flatten to one row per media entry (a totals-only row
    when a window carried no media), keyed by the ``media`` column; stream
    and meeting records map straight onto their columns.  The column set is
    the union, in kind order, of the kinds present.
    """
    columns: list[str] = []
    rows: list[dict] = []
    kinds_present = {str(r.get("kind")) for r in records}
    for kind, kind_columns in (
        ("window", WINDOW_COLUMNS),
        ("stream", STREAM_COLUMNS),
        ("meeting", MEETING_COLUMNS),
    ):
        if kind in kinds_present:
            columns.extend(c for c in kind_columns if c not in columns)
    if len(kinds_present) > 1:
        columns.insert(0, "kind")
    for record in records:
        kind = record.get("kind")
        if kind == "window":
            media_entries = record.get("media") or [None]
            for entry in media_entries:
                row = {key: record.get(key) for key in WINDOW_COLUMNS[:6]}
                if entry is not None:
                    row["media"] = entry.get("media")
                    row["media_packets"] = entry.get("packets")
                    row["media_bytes"] = entry.get("bytes")
                    row["bitrate_bps"] = entry.get("bitrate_bps")
                    row["streams"] = entry.get("streams")
                    row["mean_fps"] = entry.get("mean_fps")
                    row["mean_jitter_ms"] = entry.get("mean_jitter_ms")
                    row["lost"] = entry.get("lost")
                row["kind"] = "window"
                rows.append(row)
        else:
            row = dict(record)
            rows.append(row)
    if "kind" not in columns:
        for row in rows:
            row.pop("kind", None)
    return columns, rows
