"""Argument types, and the option groups several verbs share, declared once."""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import format_table


def subnet_list(value: str) -> list[str]:
    """argparse type for comma-separated CIDR lists.

    Tolerates whitespace and stray commas ("10.0.0.0/8, ,10.1.0.0/16,"),
    rejects malformed prefixes with a proper argparse error instead of a
    traceback deep inside the analyzer.
    """
    import ipaddress

    subnets: list[str] = []
    for token in value.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            ipaddress.ip_network(token)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad subnet {token!r}: {exc}") from None
        subnets.append(token)
    if not subnets:
        raise argparse.ArgumentTypeError(f"no subnets in {value!r}")
    return subnets


def protocol_list(value: str) -> tuple[str, ...]:
    """argparse type for comma-separated protocol-plugin names."""
    from repro.core.config import KNOWN_PROTOCOLS

    names = tuple(token.strip() for token in value.split(",") if token.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"no protocol names in {value!r}")
    for name in names:
        if name not in KNOWN_PROTOCOLS:
            raise argparse.ArgumentTypeError(
                f"unknown protocol {name!r} (known: {', '.join(KNOWN_PROTOCOLS)})"
            )
    return names


def positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def metric_list(value: str) -> tuple[str, ...]:
    metrics = tuple(token.strip() for token in value.split(",") if token.strip())
    if not metrics:
        raise argparse.ArgumentTypeError(f"no metric names in {value!r}")
    return metrics


def add_subnet_options(
    parser: argparse.ArgumentParser,
    *,
    campus: bool = False,
    campus_default: str | None = None,
) -> None:
    """``--zoom-subnets``, plus ``--campus-subnets`` where the verb has a
    campus gate."""
    parser.add_argument(
        "--zoom-subnets",
        type=subnet_list,
        default="170.114.0.0/16,203.0.113.0/24",
    )
    if campus:
        parser.add_argument(
            "--campus-subnets", type=subnet_list, default=campus_default
        )


def add_protocols_option(parser: argparse.ArgumentParser, default: str, help: str) -> None:
    parser.add_argument("--protocols", type=protocol_list, default=default,
                        metavar="NAME[,NAME...]", help=help)


def add_batch_size_option(parser: argparse.ArgumentParser) -> None:
    from repro.net.batch import DEFAULT_FRAMES_PER_BATCH

    parser.add_argument("--batch-size", type=positive_int,
                        default=DEFAULT_FRAMES_PER_BATCH, metavar="FRAMES",
                        help="frames per ingest batch "
                             f"(default {DEFAULT_FRAMES_PER_BATCH})")


def campus_tuple(args: argparse.Namespace) -> tuple[str, ...] | None:
    return tuple(args.campus_subnets) if args.campus_subnets else None


def add_query_options(parser: argparse.ArgumentParser, meeting_help: str) -> None:
    """The store-query group ``query`` and ``fleet query`` share."""
    parser.add_argument("--start", type=float, default=None, metavar="SECONDS",
                        help="capture-time lower bound (inclusive)")
    parser.add_argument("--end", type=float, default=None, metavar="SECONDS",
                        help="capture-time upper bound (exclusive)")
    parser.add_argument("--kind", action="append",
                        choices=("window", "stream", "meeting"), default=None,
                        help="record kind(s) to return; may be repeated "
                             "(default: window)")
    parser.add_argument("--meeting", type=int, default=None, metavar="ID",
                        help=meeting_help)
    parser.add_argument("--media", choices=("audio", "video", "screen"),
                        default=None,
                        help="restrict to one media type")
    parser.add_argument("--metrics", type=metric_list, default=None,
                        metavar="NAME[,NAME...]",
                        help="project records down to these metric keys")
    parser.add_argument("--reaggregate", type=float, default=None,
                        metavar="SECONDS",
                        help="merge windows into coarser tumbling buckets of "
                             "this width")
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    parser.add_argument("--no-index", action="store_true",
                        help="disable footer-index segment skipping "
                             "(full-scan baseline)")


def store_query(args: argparse.Namespace):
    """The :class:`~repro.store.StoreQuery` the query group spells."""
    from repro.store import StoreQuery

    return StoreQuery(
        start=args.start,
        end=args.end,
        kinds=tuple(args.kind) if args.kind else ("window",),
        meeting_id=args.meeting,
        media=args.media,
        metrics=args.metrics,
        reaggregate_seconds=args.reaggregate,
        use_index=not args.no_index,
    )


def print_records(records: list[dict], fmt: str) -> None:
    """Render query results to stdout as a table, JSON lines, or CSV."""
    if fmt == "json":
        import json

        for record in records:
            print(json.dumps(record, sort_keys=True))
        return
    from repro.store import flatten_records

    columns, rows = flatten_records(records)
    if fmt == "csv" and not columns:
        return  # an empty result: nothing, not a blank header row
    cells = [
        tuple("" if row.get(c) is None else row.get(c) for c in columns)
        for row in rows
    ]
    if fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        writer.writerows(cells)
    else:
        print(format_table(columns, cells))
