"""``backfill`` — load pre-store history into a metrics store.

The capture inputs are one capture: a single
:class:`~repro.core.session.AnalysisSession` reads them in capture order
through :class:`~repro.net.source.CaptureDirectorySource`, so a meeting
split across rotated files is one meeting with whole streams.  Still open:
the store keeps no analyzer state between runs, so a second backfill into
the same store numbers its meetings from 0 again, and captures are stored
as stream/meeting records only, with no windows.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.options import add_subnet_options


def register(sub) -> None:
    parser = sub.add_parser(
        "backfill",
        help="load pre-store history into a metrics store",
        description="Ingest existing artifacts into a store: service JSONL "
                    "window logs (plain or gzip-rotated) become window "
                    "records; capture files are batch-analyzed as one "
                    "capture, in capture order, and its stream/meeting "
                    "summaries stored.",
    )
    parser.add_argument("store", type=Path, help="store directory "
                        "(created if missing)")
    parser.add_argument("inputs", type=Path, nargs="+", metavar="input",
                        help="JSONL window logs (*.jsonl, *.jsonl*.gz) "
                             "and/or capture files (*.pcap*)")
    add_subnet_options(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.core import AnalysisSession, AnalyzerConfig
    from repro.net.source import CaptureDirectorySource
    from repro.store import MetricsStore, backfill_jsonl, backfill_result

    jsonl_paths = [p for p in args.inputs if not _looks_like_capture(p)]
    capture_paths = [p for p in args.inputs if _looks_like_capture(p)]
    with MetricsStore(args.store) as store:
        if jsonl_paths:
            report = backfill_jsonl(store, jsonl_paths)
            print(
                f"jsonl: {report.windows} windows from {report.files} files "
                f"({report.skipped_lines} lines skipped)"
            )
        if capture_paths:
            config = AnalyzerConfig(zoom_subnets=tuple(args.zoom_subnets))
            source = CaptureDirectorySource(capture_paths)
            report = backfill_result(store, AnalysisSession(config).run(source))
            print(
                f"captures: {report.streams} streams, {report.meetings} "
                f"meetings from {len(source.files)} files"
            )
        total = store.record_count()
    print(f"store now holds {total} records in {args.store}")
    return 0


def _looks_like_capture(path: Path) -> bool:
    name = path.name.lower()
    return any(token in name for token in (".pcap", ".cap"))
