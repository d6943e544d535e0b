"""``repro backfill`` — load pre-store history into a metrics store.

Two ingestion paths, matching the two artifact kinds older deployments
already have on disk:

* :func:`backfill_jsonl` — the live service's JSONL window logs, current
  (plain ``.jsonl``) and rotated (``.jsonl.1.gz`` — the rotation path
  gzip-compresses what it rotates out).  Each line is adopted verbatim as a
  ``window`` record, so summing queried windows over a backfilled store
  reproduces the original run's totals exactly.
* :func:`backfill_result` — a finished batch
  :class:`~repro.core.pipeline.AnalysisResult`: its media streams and
  meetings become ``stream``/``meeting`` records (a batch run has no
  tumbling-window timeline to store).  ``repro backfill`` analyzes all of
  its capture files as one run, so one meeting stays one record.  Meeting
  ids come from that run alone: a second backfill into the same store
  starts again at 0, and its records are not told apart from the first's.

Both append through the normal store write path — partition routing,
sealing, manifest updates, and telemetry all behave exactly as live ingest.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.store.records import records_from_result, window_record_from_jsonl
from repro.store.store import MetricsStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisResult


@dataclass(frozen=True, slots=True)
class BackfillReport:
    """What one backfill call ingested."""

    files: int
    windows: int
    streams: int
    meetings: int
    skipped_lines: int


def iter_jsonl_windows(path: str | Path) -> Iterator[dict]:
    """Window dicts from one JSONL log, transparently gunzipping ``.gz``.

    Blank lines are skipped; a torn final line (the log's writer was killed
    mid-append) stops the file quietly, mirroring the store's own torn-tail
    semantics.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                return  # torn tail: the writer died mid-line
            if isinstance(payload, dict):
                yield payload


def backfill_jsonl(
    store: MetricsStore, paths: Iterable[str | Path]
) -> BackfillReport:
    """Ingest service JSONL window logs (plain or gzip-rotated) into
    ``store``.  Returns ingestion counts; lines that are valid JSON but not
    window records are counted as skipped rather than failing the run."""
    files = windows = skipped = 0
    for path in paths:
        files += 1
        for payload in iter_jsonl_windows(path):
            try:
                record = window_record_from_jsonl(payload)
            except ValueError:
                skipped += 1
                continue
            store.append(record)
            windows += 1
    return BackfillReport(
        files=files, windows=windows, streams=0, meetings=0, skipped_lines=skipped
    )


def backfill_result(store: MetricsStore, result: "AnalysisResult") -> BackfillReport:
    """Ingest a batch analysis's stream + meeting summaries into ``store``."""
    streams = meetings = 0
    for record in records_from_result(result):
        store.append(record)
        if record["kind"] == "stream":
            streams += 1
        else:
            meetings += 1
    return BackfillReport(
        files=0, windows=0, streams=streams, meetings=meetings, skipped_lines=0
    )
