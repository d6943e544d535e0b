"""Fleet federation: many vantage points, one query plane.

The paper measures Zoom from a single campus border tap; a production
deployment has many — dorm aggregation, library, data-center egress —
each running its own monitor daemon and its own metrics store.  This
package makes that fleet operable as one system:

* :mod:`repro.fleet.manifest` — ``fleet.json``: the operator-edited list
  of vantage points (local store directory or daemon HTTP endpoint),
  loaded into the frozen :class:`~repro.core.config.FleetConfig`.
* :mod:`repro.fleet.federation` — :class:`FederatedQuery`: fan one
  :class:`~repro.store.query.StoreQuery` out over every node, merge
  through the same shaping code path single-store queries use (so a
  federated answer over partitioned stores is bit-identical to a
  single-store answer over the union), dedup meetings seen by multiple
  taps, and degrade to annotated partial results when nodes are down.
* :mod:`repro.fleet.health` — scrape every node's Prometheus/manifest
  surface into one ``fleet status`` view with fleet-level anomaly rules
  (unreachable, stale).
* :mod:`repro.fleet.simulate` — build an N-node fleet in-process from
  campus-trace generators (imported lazily: it pulls in the service
  pipeline, which itself imports :mod:`repro.fleet.health` for the
  ``fleet.*`` counter seeds).

CLI faces: ``repro fleet simulate | status | query``.
"""

from repro.core.config import FleetConfig, FleetNodeConfig
from repro.fleet.federation import (
    FederatedQuery,
    FederatedResult,
    federated_query,
    meeting_fingerprint,
)
from repro.fleet.health import (
    FLEET_COUNTER_SEEDS,
    FleetAnomaly,
    FleetStatus,
    NodeHealth,
    fleet_status,
    render_fleet_status,
    scrape_node,
)
from repro.fleet.manifest import (
    FLEET_MANIFEST_NAME,
    load_fleet_manifest,
    save_fleet_manifest,
)

__all__ = [
    "FLEET_COUNTER_SEEDS",
    "FLEET_MANIFEST_NAME",
    "FederatedQuery",
    "FederatedResult",
    "FleetAnomaly",
    "FleetConfig",
    "FleetNodeConfig",
    "FleetStatus",
    "NodeHealth",
    "federated_query",
    "fleet_status",
    "load_fleet_manifest",
    "meeting_fingerprint",
    "render_fleet_status",
    "save_fleet_manifest",
    "scrape_node",
]
