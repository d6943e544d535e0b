"""The federated query plane: one :class:`~repro.store.query.StoreQuery`,
every vantage point, one coherent answer.

:class:`FederatedQuery` fans a query out over the fleet's node stores — a
thread pool over local store directories and/or the thin HTTP store
endpoint daemons expose (``POST /store/query``) — and merges the results
as if one store held the union of all records:

* **Raw fan-out, shared shaping.**  Nodes return *unshaped* records (the
  fanned-out query strips re-aggregation and projection); the plane
  applies :func:`repro.store.merge.shape_records` exactly once over the
  concatenation.  Because that is the same code path a single-store
  :func:`~repro.store.query.run_query` uses, a federated query over N
  partitioned stores is bit-identical to a single-store query over the
  union of their records — re-aggregating per node and again at the plane
  would average averages and break that.
* **Plane-level meeting resolution.**  A ``meeting_id`` query resolves
  the meeting's activity span(s) fleet-wide first (the meeting record may
  live in one node's store while the meeting's windows were captured by
  another tap), then fans the scan out with ``meeting_spans`` attached so
  no node re-resolves locally.
* **Cross-tap meeting dedup.**  Meeting ids are analyzer-assigned
  counters — meaningless across nodes — so a meeting seen by several taps
  is recognized by its observable fingerprint (span + stream/participant
  counts).  One copy survives (the lexicographically-first node's, for
  determinism), annotated with the ``sites`` that saw it; duplicates from
  the *same* node are preserved, since a single store would return them
  too.  Only meeting records dedup: windows and streams are per-vantage-
  point traffic measurements, and summing them across taps is the point.
* **Graceful degradation.**  Each node gets ``query_timeout`` seconds and
  ``query_retries`` retries; a node that still fails lands in
  ``nodes_missing`` (with its error in ``node_errors``) and the partial
  answer is returned — an unreachable tap must not take down the fleet's
  query plane.  Only zero reachable nodes is an error, and even that is
  the *caller's* call (``FederatedResult.complete`` says which).

Local store directories are opened read-mostly for the lifetime of the
:class:`FederatedQuery` (open replays crash recovery, so point it at
sealed bundles or snapshot copies — a store a live daemon is writing
should be queried through that daemon's endpoint instead).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace

from repro.core.config import FleetConfig, FleetNodeConfig
from repro.store.merge import shape_records
from repro.store.query import QueryResult, StoreQuery, run_query
from repro.store.store import MetricsStore

__all__ = [
    "FederatedQuery",
    "FederatedResult",
    "federated_query",
    "meeting_fingerprint",
]


def meeting_fingerprint(record: dict) -> tuple:
    """The cross-tap identity of a meeting record.

    ``meeting_id`` is deliberately excluded — it is a per-analyzer counter
    and collides across nodes — so two taps that both watched a meeting
    agree on its span and composition, which is everything a passive
    observer can know.
    """
    start = float(record.get("start", 0.0))
    end = float(record.get("end", start))
    return (
        round(start, 9),
        round(end, 9),
        int(record.get("streams", 0)),
        int(record.get("participants", 0)),
    )


@dataclass(slots=True)
class FederatedResult:
    """The merged answer plus per-node accounting.

    ``nodes_missing`` is the partial-result annotation: non-empty means
    the records cover only the listed ``nodes_queried`` — the query plane
    degrades, it does not fail.
    """

    records: list[dict] = field(default_factory=list)
    nodes_queried: list[str] = field(default_factory=list)
    nodes_missing: list[str] = field(default_factory=list)
    node_errors: dict[str, str] = field(default_factory=dict)
    meetings_deduped: int = 0
    segments_scanned: int = 0
    segments_skipped: int = 0
    records_examined: int = 0

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def complete(self) -> bool:
        return not self.nodes_missing


class FederatedQuery:
    """The fleet's query plane over ``config.nodes``.

    Args:
        config: The fleet description (nodes plus timeout/retry knobs).
        local_stores: Optional pre-opened ``{node name: MetricsStore}``
            mapping; nodes found here are queried in-process without
            touching disk or network (how tests and ``fleet simulate``
            inject stores).  Other store-backed nodes are opened lazily
            from ``store_dir`` and cached.
    """

    def __init__(
        self,
        config: FleetConfig,
        *,
        local_stores: dict[str, MetricsStore] | None = None,
    ) -> None:
        self.config = config
        self._stores: dict[str, MetricsStore] = dict(local_stores or {})

    # Opened stores are dropped, not closed: MetricsStore.close() seals
    # active segments, and a read path must not restructure the store.
    def close(self) -> None:
        self._stores.clear()

    def __enter__(self) -> "FederatedQuery":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ run

    def run(self, query: StoreQuery) -> FederatedResult:
        """Execute ``query`` across the fleet (see module docstring)."""
        result = FederatedResult()
        if query.needs_span_pass():
            span_rows = self._fan_out(query.span_query(), result)
            meetings, _ = _dedupe_meetings(span_rows)
            spans = tuple(
                (float(r["start"]), float(r["end"])) for _, r in meetings
            )
            query = replace(query, meeting_spans=spans)
            if not spans:
                return result
        # Nodes return raw records; shaping happens once, at the plane.
        fan_query = replace(query, reaggregate_seconds=None, metrics=None)
        tagged = self._fan_out(fan_query, result)
        meetings = [(n, r) for n, r in tagged if r.get("kind") == "meeting"]
        others = [r for _, r in tagged if r.get("kind") != "meeting"]
        kept, result.meetings_deduped = _dedupe_meetings(meetings)
        result.records = shape_records(others + [r for _, r in kept], query)
        # A node that failed either pass contributed incomplete data.
        result.nodes_queried = [
            n for n in result.nodes_queried if n not in result.nodes_missing
        ]
        return result

    # -------------------------------------------------------------- fan-out

    def _fan_out(
        self, query: StoreQuery, result: FederatedResult
    ) -> list[tuple[str, dict]]:
        """One fan-out pass; returns ``(node name, record)`` pairs and
        accumulates per-node accounting into ``result``."""
        config = self.config
        # Generous backstop: the per-attempt timeout already bounds HTTP
        # nodes; this catches a wedged local scan.
        deadline = config.query_timeout * (config.query_retries + 1) + 1.0
        tagged: list[tuple[str, dict]] = []
        with ThreadPoolExecutor(
            max_workers=min(config.max_workers, len(config.nodes))
        ) as pool:
            futures = {
                node.name: pool.submit(self._query_node, node, query)
                for node in config.nodes
            }
            for name, future in futures.items():
                try:
                    node_result = future.result(timeout=deadline)
                except FutureTimeoutError:
                    future.cancel()
                    self._mark_missing(result, name, "query timed out")
                    continue
                except Exception as exc:  # noqa: BLE001 - degrade, never raise
                    self._mark_missing(result, name, str(exc))
                    continue
                if name not in result.nodes_queried:
                    result.nodes_queried.append(name)
                result.segments_scanned += node_result.segments_scanned
                result.segments_skipped += node_result.segments_skipped
                result.records_examined += node_result.records_examined
                tagged.extend((name, record) for record in node_result.records)
        return tagged

    @staticmethod
    def _mark_missing(result: FederatedResult, name: str, error: str) -> None:
        if name in result.nodes_queried:
            # Reachable for the span pass but not the scan: its records
            # are incomplete, so it counts as missing.
            result.nodes_queried.remove(name)
        if name not in result.nodes_missing:
            result.nodes_missing.append(name)
        result.node_errors[name] = error

    def _query_node(
        self, node: FleetNodeConfig, query: StoreQuery
    ) -> QueryResult:
        attempts = self.config.query_retries + 1
        last_error: Exception | None = None
        for _ in range(attempts):
            try:
                return self._query_node_once(node, query)
            except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                last_error = exc
        raise last_error  # type: ignore[misc]

    def _query_node_once(
        self, node: FleetNodeConfig, query: StoreQuery
    ) -> QueryResult:
        if node.name in self._stores:
            return run_query(self._stores[node.name], query)
        if node.query_source == "store":
            store = MetricsStore(node.store_dir)  # type: ignore[arg-type]
            self._stores[node.name] = store
            return run_query(store, query)
        return _http_query(
            node.endpoint,  # type: ignore[arg-type]
            query,
            timeout=self.config.query_timeout,
        )


def federated_query(
    config: FleetConfig,
    query: StoreQuery,
    *,
    local_stores: dict[str, MetricsStore] | None = None,
) -> FederatedResult:
    """One-shot convenience wrapper around :class:`FederatedQuery`."""
    with FederatedQuery(config, local_stores=local_stores) as plane:
        return plane.run(query)


# ------------------------------------------------------------- HTTP client


def _http_query(
    endpoint: str, query: StoreQuery, *, timeout: float
) -> QueryResult:
    """``POST /store/query`` against a daemon node's metrics server."""
    url = endpoint.rstrip("/") + "/store/query"
    body = json.dumps(query.to_dict()).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", errors="replace").strip()
        raise RuntimeError(
            f"store query failed: HTTP {exc.code} {detail or exc.reason}"
        ) from exc
    return QueryResult(
        records=list(payload.get("records", [])),
        segments_scanned=int(payload.get("segments_scanned", 0)),
        segments_skipped=int(payload.get("segments_skipped", 0)),
        records_examined=int(payload.get("records_examined", 0)),
    )


# ------------------------------------------------------------------- dedup


def _dedupe_meetings(
    tagged: list[tuple[str, dict]],
) -> tuple[list[tuple[str, dict]], int]:
    """Collapse cross-node duplicate meetings (module docstring has the
    semantics).  Returns the surviving ``(node, record)`` pairs — original
    arrival order preserved — and the number of records dropped."""
    groups: dict[tuple, list[tuple[str, dict]]] = {}
    for name, record in tagged:
        groups.setdefault(meeting_fingerprint(record), []).append(
            (name, record)
        )
    survivors: set[int] = set()
    annotations: dict[int, list[str]] = {}
    dropped = 0
    for group in groups.values():
        sites = sorted({name for name, _ in group})
        if len(sites) == 1:
            survivors.update(id(record) for _, record in group)
            continue
        keeper = sites[0]
        for name, record in group:
            if name == keeper:
                survivors.add(id(record))
                annotations[id(record)] = sites
            else:
                dropped += 1
    kept: list[tuple[str, dict]] = []
    for name, record in tagged:
        if id(record) not in survivors:
            continue
        sites = annotations.get(id(record))
        if sites is not None:
            record = dict(record)
            record["sites"] = sites
        kept.append((name, record))
    return kept, dropped
