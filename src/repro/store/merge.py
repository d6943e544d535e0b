"""Packet-weighted record merging — the one code path every query shape uses.

The store's window re-aggregation (``repro query --reaggregate``) and the
fleet's federated merge (:mod:`repro.fleet.federation`) answer the same
question — "combine these fine-grained window records into one coherent
timeline" — and they must answer it with *identical arithmetic*: a fleet
query over N single-node stores has to be bit-identical to the same query
over one store holding the union of their records.  That is only provable
if both run through one implementation, so the math lives here and both
callers import it:

* :func:`reaggregate_windows` — merge window records into tumbling buckets.
  Counting fields sum exactly; ``meetings_active`` takes the bucket maximum
  (a point-in-time census, not an event count); per-media quality values
  (fps, jitter) combine as packet-weighted means via
  :func:`merge_media_entries`.
* :func:`shape_records` — the full post-scan shaping stage: optional
  re-aggregation, deterministic ordering, optional metric projection.
  :func:`repro.store.query.run_query` applies it to one store's scan;
  the federated plane applies it to the concatenation of N scans.

Determinism note: records that tie on ``(start, kind)`` are ordered by
their canonical JSON encoding (:func:`canonical_key`; :func:`canonical_sorted`
encodes only those ties), so the merged output is a pure function of the
record *set* — independent of which node contributed which record and of
the order nodes answered.  Float summation order inside a bucket is fixed
the same way, which is what makes the packet-weighted means reproducible
across node partitions.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import TYPE_CHECKING

from repro.service.windows import (
    ANY,
    MAX,
    MEAN,
    MEDIA_SCHEMA,
    RATE,
    RATE_FIELD,
    SUM,
    WEIGHT_FIELD,
    WINDOW_SCHEMA,
    rate_bps,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.query import StoreQuery

#: Window-record keys that survive any metric projection — without them a
#: projected record loses its identity on the timeline.
IDENTITY_KEYS = ("kind", "window", "start", "end")

#: How each non-quality merge rule of the window schema combines one
#: field across records (a record lacking the field contributes nothing).
_COMBINE = {
    SUM: lambda records, key: sum(int(r.get(key, 0)) for r in records),
    MAX: lambda records, key: max((int(r.get(key, 0)) for r in records), default=0),
    ANY: lambda records, key: any(r.get(key) for r in records),
}


def _start_kind(record: dict) -> tuple[float, str]:
    return float(record.get("start", 0.0)), str(record.get("kind", ""))


def canonical_key(record: dict) -> tuple[float, str, str]:
    """Total order over records: ``(start, kind, canonical JSON)``.

    The JSON tiebreak makes ordering independent of insertion order, so a
    federated merge sorts to the same byte sequence no matter how records
    were partitioned across nodes or in which order the nodes answered.
    """
    return (
        *_start_kind(record),
        json.dumps(record, sort_keys=True, separators=(",", ":")),
    )


def canonical_sorted(records: list[dict]) -> list[dict]:
    """``sorted(records, key=canonical_key)``, JSON-encoding only the runs
    of records that tie on ``(start, kind)``."""
    ordered: list[dict] = []
    for _, run in itertools.groupby(sorted(records, key=_start_kind), key=_start_kind):
        run = list(run)
        if len(run) > 1:
            run.sort(key=canonical_key)
        ordered.extend(run)
    return ordered


def reaggregate_windows(windows: list[dict], coarse_seconds: float) -> list[dict]:
    """Merge fine window records into tumbling ``coarse_seconds`` buckets.

    Counting fields sum exactly (that is the window invariant the service
    tests pin down); ``meetings_active`` takes the bucket maximum (it is a
    point-in-time census, not a count of events); per-media quality values
    (fps, jitter) combine as packet-weighted means over the windows that
    reported them, matching how a coarser aggregator would have sampled
    more streams per close.

    Windows from *different vantage points* merge through the same rules:
    per-bucket traffic totals add, and the packet weighting makes a node
    that carried most of a media type's packets dominate the bucket's
    quality estimate — exactly what one aggregator over the union of taps
    would have computed.
    """
    buckets: dict[int, list[dict]] = {}
    for window in windows:
        index = int(math.floor(float(window["start"]) / coarse_seconds))
        buckets.setdefault(index, []).append(window)
    merged: list[dict] = []
    for index in sorted(buckets):
        group = canonical_sorted(buckets[index])
        record: dict = {
            "kind": "window",
            "window": index,
            "start": index * coarse_seconds,
            "end": (index + 1) * coarse_seconds,
            "windows_merged": len(group),
        }
        for key, rule in WINDOW_SCHEMA.items():
            record[key] = _COMBINE[rule](group, key)
        record["media"] = merge_media_entries(group, coarse_seconds)
        merged.append(record)
    return merged


def merge_media_entries(group: list[dict], coarse_seconds: float) -> list[dict]:
    """Combine the per-media entries of several window records into one set.

    Each field merges by its :data:`~repro.service.windows.MEDIA_SCHEMA`
    rule: counting fields sum; ``streams`` takes the maximum (a census);
    ``bitrate_bps`` is recomputed from the summed bytes over the coarse
    width; ``mean_fps``/``mean_jitter_ms`` become packet-weighted means
    over the entries that reported them (weight floor 1, so a quality
    sample from a packetless entry still counts once rather than
    vanishing).
    """
    by_name: dict[str, list[dict]] = {}
    for window in group:
        for entry in window.get("media", ()):
            by_name.setdefault(str(entry.get("media")), []).append(entry)
    out: list[dict] = []
    for name in sorted(by_name):
        entries = by_name[name]
        merged: dict = {"media": name}
        for key, rule in MEDIA_SCHEMA.items():
            if rule == RATE:
                total = _COMBINE[SUM](entries, RATE_FIELD)
                merged[key] = rate_bps(total, coarse_seconds)
            elif rule == MEAN:
                weighted = [
                    (float(e[key]), max(int(e.get(WEIGHT_FIELD, 0)), 1))
                    for e in entries
                    if e.get(key) is not None
                ]
                if weighted:
                    weight = sum(w for _, w in weighted)
                    merged[key] = round(
                        sum(v * w for v, w in weighted) / weight, 3
                    )
                else:
                    merged[key] = None
            else:
                merged[key] = _COMBINE[rule](entries, key)
        out.append(merged)
    return out


def shape_records(records: list[dict], query: "StoreQuery") -> list[dict]:
    """The post-scan shaping stage shared by every query plane.

    Applies, in order: window re-aggregation (when the query asks for it),
    deterministic ``(start, kind, canonical)`` ordering, and metric
    projection.  ``records`` is not mutated.
    """
    shaped = records
    if query.reaggregate_seconds is not None:
        windows = [r for r in shaped if r.get("kind") == "window"]
        others = [r for r in shaped if r.get("kind") != "window"]
        shaped = reaggregate_windows(windows, query.reaggregate_seconds) + others
    shaped = canonical_sorted(shaped)
    if query.metrics is not None:
        shaped = [project_record(record, query.metrics) for record in shaped]
    return shaped


def project_record(record: dict, metrics: tuple[str, ...]) -> dict:
    """Thin ``record`` down to ``metrics`` (identity keys always survive)."""
    keep = set(metrics) | set(IDENTITY_KEYS)
    projected = {key: value for key, value in record.items() if key in keep}
    media = record.get("media")
    if isinstance(media, list) and "media" not in keep:
        thinned = [
            {
                key: value
                for key, value in entry.items()
                if key == "media" or key in keep
            }
            for entry in media
        ]
        # Media entries stay only if a per-media metric was requested.
        if any(len(entry) > 1 for entry in thinned):
            projected["media"] = thinned
    return projected
