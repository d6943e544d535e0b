"""``query`` — slice a persistent metrics store."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.options import add_query_options, print_records, store_query


def register(sub) -> None:
    parser = sub.add_parser(
        "query",
        help="slice a persistent metrics store",
        description="Query a store written by 'analyze-live --store' or "
                    "'backfill': filter by time range, meeting id, and media "
                    "type, optionally re-aggregate windows into coarser "
                    "buckets, and print as a table, JSON lines, or CSV. "
                    "Segment skipping statistics go to stderr.",
    )
    parser.add_argument("store", type=Path, help="store directory")
    add_query_options(parser, "restrict to one meeting (other kinds are "
                              "filtered to the meeting's activity span)")
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.store import MetricsStore

    result = MetricsStore(args.store).query(store_query(args))
    print_records(result.records, args.format)
    print(
        f"{result.count} records from {result.segments_scanned} segments "
        f"({result.segments_skipped} skipped by index, "
        f"{result.records_examined} records examined)",
        file=sys.stderr,
    )
    return 0
