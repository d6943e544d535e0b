"""``fleet`` — operate a multi-vantage-point monitor fleet."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.options import add_query_options, positive_int, print_records, store_query


def register(sub) -> None:
    fleet = sub.add_parser(
        "fleet",
        help="operate a multi-vantage-point monitor fleet",
        description="Federate several monitor nodes (local store "
                    "directories and/or live daemon endpoints) behind one "
                    "query plane: 'simulate' builds an N-node fleet "
                    "in-process, 'status' scrapes every node's health "
                    "surface, 'query' fans a store query out over the "
                    "fleet and merges the results.",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    simulate = fleet_sub.add_parser(
        "simulate", help="build an N-node simulated fleet under a directory"
    )
    simulate.add_argument("root", type=Path, help="fleet root directory")
    simulate.add_argument("--nodes", type=positive_int, default=3,
                          help="vantage points to simulate (default 3)")
    simulate.add_argument("--hours", type=positive_int, default=1,
                          help="campus-trace hours per node (default 1)")
    simulate.add_argument("--peak", type=float, default=3.0,
                          help="meetings/hour per node at peak (default 3)")
    simulate.add_argument("--window", type=float, default=10.0,
                          help="aggregation window seconds (default 10)")
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--overlap", action="store_true",
                          help="feed a shared trace to the first two nodes "
                               "(exercises cross-tap meeting dedup)")
    simulate.set_defaults(func=_simulate)

    status = fleet_sub.add_parser(
        "status", help="scrape and summarize every node's health"
    )
    status.add_argument(
        "fleet", type=Path,
        help="fleet.json manifest (or a directory containing one)")
    status.set_defaults(func=_status)

    query = fleet_sub.add_parser(
        "query", help="run one store query across the whole fleet"
    )
    query.add_argument(
        "fleet", type=Path,
        help="fleet.json manifest (or a directory containing one)")
    add_query_options(query, "restrict to one meeting id (spans are "
                             "resolved fleet-wide first)")
    query.set_defaults(func=_query)


def _simulate(args: argparse.Namespace) -> int:
    from repro.fleet.simulate import FleetSimConfig, simulate_fleet

    _, nodes = simulate_fleet(
        args.root,
        FleetSimConfig(
            nodes=args.nodes,
            hours=args.hours,
            meetings_per_hour_peak=args.peak,
            window_seconds=args.window,
            seed=args.seed,
            overlap=args.overlap,
        ),
    )
    for node in nodes:
        print(
            f"{node.name}: {node.packets} packets -> "
            f"{node.windows_stored} windows, {node.streams_stored} streams, "
            f"{node.meetings_stored} meetings ({node.store_dir})"
        )
    print(f"fleet manifest written to {Path(args.root) / 'fleet.json'}")
    return 0


def _status(args: argparse.Namespace) -> int:
    from repro.fleet import fleet_status, load_fleet_manifest, render_fleet_status

    config = load_fleet_manifest(args.fleet)
    status = fleet_status(config)
    print(render_fleet_status(status), end="")
    # Unreachable nodes make status non-zero (scripts can alert on it);
    # softer anomalies (stale, drop outliers) are printed but exit 0.
    return 0 if status.reachable == len(status.nodes) else 1


def _query(args: argparse.Namespace) -> int:
    from repro.fleet import FederatedQuery, load_fleet_manifest

    config = load_fleet_manifest(args.fleet)
    with FederatedQuery(config) as plane:
        result = plane.run(store_query(args))
    print_records(result.records, args.format)
    print(
        f"{result.count} records from {len(result.nodes_queried)}/"
        f"{len(config.nodes)} nodes ({result.segments_scanned} segments "
        f"scanned, {result.segments_skipped} skipped, "
        f"{result.meetings_deduped} cross-tap meetings deduplicated)",
        file=sys.stderr,
    )
    for name in result.nodes_missing:
        print(
            f"warning: node {name} missing from results: "
            f"{result.node_errors.get(name, 'unreachable')}",
            file=sys.stderr,
        )
    # Partial results are the degraded-but-working case; only a fleet
    # with zero reachable nodes is an error.
    return 0 if result.nodes_queried else 1
