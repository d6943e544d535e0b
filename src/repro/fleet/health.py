"""Fleet health: scrape every node's surface into one operator view.

Each monitor node already exposes its vitals — the Prometheus ``/metrics``
page for daemon nodes, ``manifest.json`` for plain store directories — so
fleet health is a *read-only* layer: :func:`scrape_node` normalizes one
node's surface into a :class:`NodeHealth`, :func:`fleet_status` collects
the fleet and runs the anomaly rules over it, and
:func:`render_fleet_status` prints the ``repro fleet status`` table.

Anomaly rules (each yields a :class:`FleetAnomaly`):

* **node-unreachable** — the scrape failed (connection refused, timeout,
  missing/corrupt manifest).  The fleet keeps answering queries without
  the node; this is the signal an operator chases first.
* **node-stale** — the node's newest capture time trails the fleet's
  newest by more than ``FleetConfig.stale_after`` seconds.  Staleness is
  *capture-time-relative* (node vs. fleet max), not wall-clock-relative,
  so replayed traces and live captures grade on the same scale.

This module stays importable from :mod:`repro.service.runner` (which
pre-seeds :data:`FLEET_COUNTER_SEEDS`), so it must not import anything
from :mod:`repro.service` or :mod:`repro.fleet.federation`.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.tables import format_table
from repro.core.config import FleetConfig, FleetNodeConfig

__all__ = [
    "FLEET_COUNTER_SEEDS",
    "FleetAnomaly",
    "FleetStatus",
    "NodeHealth",
    "fleet_status",
    "parse_prometheus_text",
    "render_fleet_status",
    "scrape_node",
]

#: Counters every store-serving daemon pre-seeds at startup, so fleet
#: dashboards see an explicit zero (and can alert on rate) from the first
#: scrape rather than an absent series after the first federated query.
FLEET_COUNTER_SEEDS = (
    "fleet.store_queries",
    "fleet.store_query_records",
    "fleet.store_query_errors",
)

#: QoE states in severity order, as exported by ``repro_qoe_meetings_*``.
_QOE_STATES = ("good", "degraded", "impaired", "critical")


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse a text-exposition page into ``{name{labels}: value}``.

    Only what :mod:`repro.service.prometheus` emits is supported — ``#``
    comment lines and ``name{labels} value`` samples; that is all a fleet
    peer ever serves.  Unparseable sample lines are skipped (a truncated
    scrape should degrade to fewer metrics, not an error).
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value_text = line.rpartition(" ")
        if not name:
            continue
        try:
            samples[name] = float(value_text)
        except ValueError:
            continue
    return samples


@dataclass(slots=True)
class NodeHealth:
    """One node's vitals, normalized across scrape surfaces.

    ``None`` means "this surface does not report that" — a plain store
    directory has record counts but no capture counters, a daemon endpoint
    the reverse — and the renderer prints ``-`` for it.
    """

    name: str
    source: str  # "endpoint" | "store"
    reachable: bool
    error: str | None = None
    frames: int | None = None
    restarts: int | None = None
    windows: int | None = None
    qoe_states: dict[str, int] = field(default_factory=dict)
    newest: float | None = None
    store_records: int | None = None
    store_bytes: int | None = None

    def qoe_mix(self) -> str:
        """``good:3 impaired:1`` — only the non-zero states, in severity
        order (``-`` when the node exports no QoE gauges)."""
        parts = [
            f"{state}:{self.qoe_states[state]}"
            for state in _QOE_STATES
            if self.qoe_states.get(state)
        ]
        return " ".join(parts) if parts else "-"


@dataclass(frozen=True, slots=True)
class FleetAnomaly:
    """One fired fleet-level rule."""

    rule: str
    node: str
    detail: str


@dataclass(slots=True)
class FleetStatus:
    """The fleet view ``repro fleet status`` renders."""

    nodes: list[NodeHealth]
    anomalies: list[FleetAnomaly]

    @property
    def reachable(self) -> int:
        return sum(1 for node in self.nodes if node.reachable)


def scrape_node(
    node: FleetNodeConfig, *, timeout: float = 5.0
) -> NodeHealth:
    """Read one node's health surface (never raises; failures are data)."""
    if node.query_source == "endpoint":
        return _scrape_endpoint(node, timeout)
    return _scrape_store(node)


def _scrape_endpoint(node: FleetNodeConfig, timeout: float) -> NodeHealth:
    health = NodeHealth(name=node.name, source="endpoint", reachable=False)
    url = node.endpoint.rstrip("/") + "/metrics"  # type: ignore[union-attr]
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            text = response.read().decode("utf-8", errors="replace")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        health.error = str(exc)
        return health
    samples = parse_prometheus_text(text)
    health.reachable = True
    health.frames = _as_int(samples.get("repro_capture_frames_total"))
    health.restarts = _as_int(samples.get("repro_service_ingest_restarts_total"))
    health.windows = _as_int(samples.get("repro_service_windows_total"))
    newest = samples.get("repro_window_start_seconds")
    health.newest = float(newest) if newest is not None else None
    for state in _QOE_STATES:
        value = samples.get(f"repro_qoe_meetings_{state}")
        if value is not None:
            health.qoe_states[state] = int(value)
    return health


def _scrape_store(node: FleetNodeConfig) -> NodeHealth:
    # Reads manifest.json directly rather than opening a MetricsStore:
    # open runs crash recovery (truncates torn tails, rewrites the
    # manifest), which must never happen to a store another process is
    # actively writing.  The manifest only indexes *sealed* segments, so
    # ``newest`` trails the active tail by at most one segment — fine for
    # staleness grading.
    health = NodeHealth(name=node.name, source="store", reachable=False)
    manifest_path = Path(node.store_dir) / "manifest.json"  # type: ignore[arg-type]
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        health.error = str(exc)
        return health
    segments = payload.get("segments", [])
    health.reachable = True
    health.store_records = sum(int(s.get("records", 0)) for s in segments)
    health.store_bytes = sum(int(s.get("bytes", 0)) for s in segments)
    ends = [float(s["end"]) for s in segments if "end" in s]
    health.newest = max(ends) if ends else None
    return health


def _as_int(value: float | None) -> int | None:
    return None if value is None else int(value)


def fleet_status(
    config: FleetConfig,
    *,
    scrape=scrape_node,
) -> FleetStatus:
    """Scrape every node and run the anomaly rules.

    ``scrape`` is injectable for tests (and for callers that already hold
    scraped pages); it must match :func:`scrape_node`'s signature.
    """
    nodes = [
        scrape(node, timeout=config.query_timeout) for node in config.nodes
    ]
    return FleetStatus(nodes=nodes, anomalies=_find_anomalies(config, nodes))


def _find_anomalies(
    config: FleetConfig, nodes: list[NodeHealth]
) -> list[FleetAnomaly]:
    anomalies: list[FleetAnomaly] = []
    for node in nodes:
        if not node.reachable:
            anomalies.append(
                FleetAnomaly(
                    rule="node-unreachable",
                    node=node.name,
                    detail=node.error or "scrape failed",
                )
            )
    # Staleness grades against the fleet's newest capture time, so a
    # replayed-trace fleet and a live fleet use the same rule.
    newest = [n.newest for n in nodes if n.reachable and n.newest is not None]
    if newest:
        fleet_newest = max(newest)
        for node in nodes:
            if not node.reachable or node.newest is None:
                continue
            lag = fleet_newest - node.newest
            if lag > config.stale_after:
                anomalies.append(
                    FleetAnomaly(
                        rule="node-stale",
                        node=node.name,
                        detail=(
                            f"newest capture time trails fleet by {lag:.0f}s"
                            f" (> {config.stale_after:.0f}s)"
                        ),
                    )
                )
    return anomalies


def render_fleet_status(status: FleetStatus) -> str:
    """The ``repro fleet status`` page: node table + fired anomalies."""
    headers = (
        "node",
        "source",
        "up",
        "frames",
        "restarts",
        "records",
        "newest",
        "qoe",
    )
    rows = []
    for node in status.nodes:
        rows.append(
            (
                node.name,
                node.source,
                "yes" if node.reachable else "NO",
                _cell(node.frames),
                _cell(node.restarts),
                _cell(node.store_records),
                _cell(node.newest),
                node.qoe_mix(),
            )
        )
    lines = [format_table(headers, rows).rstrip("\n")]
    lines.append("")
    lines.append(
        f"nodes: {status.reachable}/{len(status.nodes)} reachable,"
        f" {len(status.anomalies)} anomalies"
    )
    for anomaly in status.anomalies:
        lines.append(f"  [{anomaly.rule}] {anomaly.node}: {anomaly.detail}")
    return "\n".join(lines) + "\n"


def _cell(value: object) -> object:
    return "-" if value is None else value
