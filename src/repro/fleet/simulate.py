"""``repro fleet simulate`` — build a whole fleet in-process.

Spins up N simulated vantage points: each node generates its own campus
trace (same diurnal structure, different seed — N taps watching different
slices of one campus day) and runs it through the *real* monitor pipeline
— :class:`~repro.service.windows.WindowAggregator` → rolling-mode
:class:`~repro.core.pipeline.ZoomAnalyzer` →
:class:`~repro.store.sink.StoreSink` — into a per-node
:class:`~repro.store.store.MetricsStore`.  The result is a directory an
operator can immediately point the rest of the fleet tooling at::

    <root>/
      fleet.json        # the manifest `fleet status` / `fleet query` read
      node-00/          # one sealed store per vantage point
      node-01/
      ...

With ``overlap=True`` an extra small trace is fed to the *first two*
nodes, so the same meetings appear in both stores — the input that
exercises the federated plane's cross-tap meeting dedup.

This module imports the service pipeline, so :mod:`repro.fleet`'s
``__init__`` must keep it lazily imported (``repro.service`` imports
:mod:`repro.fleet.health` at startup for the counter seeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core import AnalyzerConfig, FleetConfig, FleetNodeConfig, ZoomAnalyzer
from repro.fleet.manifest import save_fleet_manifest
from repro.net.packet import CapturedPacket
from repro.net.source import IterableSource
from repro.service.windows import WindowAggregator
from repro.simulation.campus import CampusTraceConfig, generate_campus_trace
from repro.store.sink import StoreSink
from repro.store.store import MetricsStore

__all__ = ["FleetSimConfig", "SimulatedNode", "simulate_fleet"]


@dataclass(frozen=True, slots=True)
class FleetSimConfig:
    """Knobs for :func:`simulate_fleet`.

    Attributes:
        nodes: Number of vantage points to simulate.
        hours: Campus-trace hours per node (laptop scale: 1–2).
        meetings_per_hour_peak: Per-node meeting arrival rate at peak.
        window_seconds: Aggregation window width written to the stores.
        seed: Master seed; node ``i`` uses ``seed + i``.
        overlap: Feed an extra shared trace to the first two nodes, so
            the same meetings are visible from both taps (needs
            ``nodes >= 2``).
    """

    nodes: int = 3
    hours: int = 1
    meetings_per_hour_peak: float = 2.0
    window_seconds: float = 10.0
    seed: int = 7
    overlap: bool = False

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.overlap and self.nodes < 2:
            raise ValueError("overlap needs at least 2 nodes")


@dataclass(slots=True)
class SimulatedNode:
    """What one simulated vantage point produced."""

    name: str
    store_dir: str
    packets: int
    windows_stored: int
    streams_stored: int
    meetings_stored: int


def simulate_fleet(
    root: str | Path, config: FleetSimConfig | None = None
) -> tuple[FleetConfig, list[SimulatedNode]]:
    """Build the fleet under ``root``; returns the written
    :class:`FleetConfig` (also saved as ``root/fleet.json``) and per-node
    production stats."""
    sim = config if config is not None else FleetSimConfig()
    root_path = Path(root)
    root_path.mkdir(parents=True, exist_ok=True)
    per_node: list[list[CapturedPacket]] = []
    # Each trace gets a disjoint address-octet range: participant IPs embed
    # the meeting index, and the meeting grouper merges by client IP, so
    # traces that will be combined (overlap mode) must not collide.
    for index in range(sim.nodes):
        trace = generate_campus_trace(
            CampusTraceConfig(
                hours=sim.hours,
                meetings_per_hour_peak=sim.meetings_per_hour_peak,
                seed=sim.seed + index,
                address_octet_base=index * 40,
            )
        )
        per_node.append(list(trace.result.captures))
    if sim.overlap:
        shared = generate_campus_trace(
            CampusTraceConfig(
                hours=1,
                meetings_per_hour_peak=max(sim.meetings_per_hour_peak, 3.0),
                seed=sim.seed + 9973,  # disjoint from every per-node seed
                address_octet_base=200,
            )
        )
        # Shift the shared meetings past every node's own traffic: both
        # taps must analyze identical, isolated packet sequences, or the
        # meeting grouper would merge them differently with each node's
        # local meetings and the cross-tap fingerprints would diverge.
        offset = sim.hours * 3600.0
        shifted = [
            CapturedPacket(timestamp=p.timestamp + offset, data=p.data)
            for p in shared.result.captures
        ]
        for index in (0, 1):
            per_node[index].extend(shifted)
    nodes: list[SimulatedNode] = []
    node_configs: list[FleetNodeConfig] = []
    for index, packets in enumerate(per_node):
        name = f"node-{index:02d}"
        store_dir = root_path / name
        nodes.append(_run_node(name, store_dir, packets, sim.window_seconds))
        node_configs.append(
            FleetNodeConfig(
                name=name,
                store_dir=str(store_dir),
                campus_subnets=("10.0.0.0/8",),
            )
        )
    fleet = FleetConfig(nodes=tuple(node_configs))
    save_fleet_manifest(fleet, root_path)
    return fleet, nodes


def _run_node(
    name: str,
    store_dir: Path,
    packets: list[CapturedPacket],
    window_seconds: float,
) -> SimulatedNode:
    """One vantage point: the live daemon's analysis pipeline, fed from a
    list instead of an interface, writing the same store layout."""
    store = MetricsStore(store_dir)
    sink = StoreSink(store)
    analyzer = ZoomAnalyzer(AnalyzerConfig(rolling=True))
    analyzer.eviction_hooks.append(sink.write_stream)
    aggregator = WindowAggregator(
        analyzer,
        window_seconds=window_seconds,
        on_window=(sink.write_window,),
    )
    packets.sort(key=lambda packet: packet.timestamp)
    for batch in IterableSource(packets).frame_batches():
        aggregator.ingest(batch)
    aggregator.finish()
    sink.write_meetings(analyzer.result.meetings)
    store.close()
    return SimulatedNode(
        name=name,
        store_dir=str(store_dir),
        packets=len(packets),
        windows_stored=sink.windows_stored,
        streams_stored=sink.streams_stored,
        meetings_stored=sink.meetings_stored,
    )
