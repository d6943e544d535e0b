"""``fleet.json`` — the on-disk description of a monitor fleet.

A fleet manifest is a plain JSON file an operator edits (or ``repro fleet
simulate`` writes) that lists every vantage point and the fleet-level
query/health knobs::

    {
      "nodes": [
        {"name": "dorm-tap", "store_dir": "dorm-tap/store",
         "campus_subnets": ["10.1.0.0/16"]},
        {"name": "library", "endpoint": "http://library:9310"}
      ],
      "query_timeout": 5.0
    }

Relative ``store_dir`` paths resolve against the manifest's own directory,
so a simulated fleet (or an rsync'd bundle of node stores) stays portable:
move the directory, and the manifest inside it still points at the right
stores.  :func:`load_fleet_manifest` returns the same frozen
:class:`~repro.core.config.FleetConfig` the rest of :mod:`repro.fleet`
consumes, so a file-configured fleet and a programmatic one are
indistinguishable downstream.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import FleetConfig, FleetNodeConfig

__all__ = ["FLEET_MANIFEST_NAME", "load_fleet_manifest", "save_fleet_manifest"]

FLEET_MANIFEST_NAME = "fleet.json"

#: FleetConfig knobs that pass straight through the JSON round-trip.
_CONFIG_KEYS = (
    "query_timeout",
    "query_retries",
    "max_workers",
    "stale_after",
)


def load_fleet_manifest(path: str | Path) -> FleetConfig:
    """Parse ``path`` (a ``fleet.json`` file, or a directory holding one).

    Raises ``ValueError`` on unknown keys — a typo'd knob should fail
    loudly, not silently run with defaults.
    """
    manifest_path = Path(path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / FLEET_MANIFEST_NAME
    payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    unknown = set(payload) - set(_CONFIG_KEYS) - {"nodes"}
    if unknown:
        raise ValueError(f"unknown fleet manifest keys: {sorted(unknown)}")
    base = manifest_path.resolve().parent
    nodes = []
    for entry in payload.get("nodes", []):
        unknown = set(entry) - {"name", "store_dir", "endpoint", "campus_subnets"}
        if unknown:
            raise ValueError(
                f"unknown fleet node keys: {sorted(unknown)}"
            )
        store_dir = entry.get("store_dir")
        if store_dir is not None and not Path(store_dir).is_absolute():
            store_dir = str(base / store_dir)
        subnets = entry.get("campus_subnets")
        nodes.append(
            FleetNodeConfig(
                name=str(entry["name"]),
                store_dir=store_dir,
                endpoint=entry.get("endpoint"),
                campus_subnets=tuple(subnets) if subnets is not None else None,
            )
        )
    knobs = {key: payload[key] for key in _CONFIG_KEYS if key in payload}
    return FleetConfig(nodes=tuple(nodes), **knobs)


def save_fleet_manifest(config: FleetConfig, path: str | Path) -> Path:
    """Write ``config`` as ``fleet.json`` (to ``path``, or inside it if a
    directory); store paths under that directory are written relative, so
    the resulting bundle is relocatable."""
    manifest_path = Path(path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / FLEET_MANIFEST_NAME
    base = manifest_path.resolve().parent
    nodes = []
    for node in config.nodes:
        entry: dict = {"name": node.name}
        if node.store_dir is not None:
            store_dir = Path(node.store_dir).resolve()
            try:
                entry["store_dir"] = str(store_dir.relative_to(base))
            except ValueError:
                entry["store_dir"] = str(store_dir)
        if node.endpoint is not None:
            entry["endpoint"] = node.endpoint
        if node.campus_subnets is not None:
            entry["campus_subnets"] = list(node.campus_subnets)
        nodes.append(entry)
    payload: dict = {"nodes": nodes}
    defaults = FleetConfig(nodes=config.nodes)
    for key in _CONFIG_KEYS:
        if getattr(config, key) != getattr(defaults, key):
            payload[key] = getattr(config, key)
    manifest_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return manifest_path
