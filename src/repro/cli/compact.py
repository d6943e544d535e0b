"""``compact`` — metrics-store maintenance (compaction + retention)."""

from __future__ import annotations

import argparse
from pathlib import Path


def register(sub) -> None:
    parser = sub.add_parser(
        "compact",
        help="metrics-store maintenance (compaction + retention)",
        description="Merge a partition's many small sealed segments into "
                    "one and delete the oldest segments beyond the "
                    "retention budget.  Safe to run while no writer holds "
                    "the store.",
    )
    parser.add_argument("store", type=Path, help="store directory")
    parser.add_argument("--retention-max-age", type=float, default=None,
                        metavar="SECONDS",
                        help="drop sealed segments older than this behind "
                             "the newest record")
    parser.add_argument("--retention-max-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="drop oldest sealed segments until under this "
                             "total size")
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.store import MetricsStore

    store = MetricsStore(args.store)
    if args.retention_max_age is not None or args.retention_max_bytes is not None:
        store.config = store.config.replace(
            retention_max_age=args.retention_max_age,
            retention_max_bytes=args.retention_max_bytes,
        )
    before_segments = len(store.segments())
    before_bytes = store.total_bytes()
    report = store.maintain()
    store.close()
    print(
        f"compacted {report.segments_merged} segments into "
        f"{report.compactions}, expired {report.segments_expired} "
        f"({report.bytes_reclaimed} bytes reclaimed)"
    )
    print(
        f"segments: {before_segments} -> {len(store.segments())}, "
        f"bytes: {before_bytes} -> {store.total_bytes()}"
    )
    return 0
