"""``analyze`` — the full passive analysis of one or more captures."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.tables import format_table
from repro.cli.options import (
    add_batch_size_option,
    add_protocols_option,
    add_subnet_options,
    positive_int,
)


def register(sub) -> None:
    parser = sub.add_parser("analyze", help="full passive analysis of captures")
    parser.add_argument("inputs", type=Path, nargs="+", metavar="input",
                        help="capture files, directories, or glob patterns; "
                             "multiple inputs are merged in timestamp order")
    parser.add_argument("--glob", action="append", default=None, metavar="PATTERN",
                        help="add capture files matching an (unexpanded) glob "
                             "pattern; may be repeated")
    add_subnet_options(parser)
    add_protocols_option(parser, "zoom",
                         "protocol plugins to enable, in registry "
                         "priority order (default: zoom; e.g. "
                         "'zoom,rtp' for mixed traces)")
    parser.add_argument("--shards", type=positive_int, default=1,
                        help="flow-shard the analysis across N parallel workers "
                             "(RTP-latency matching needs a single pass)")
    parser.add_argument("--csv", type=Path, default=None,
                        help="write the per-(stream,second) ML feature matrix")
    parser.add_argument("--report", action="store_true",
                        help="print per-meeting report cards with diagnoses")
    parser.add_argument("--stats", action="store_true",
                        help="print the runtime-telemetry health report "
                             "(per-stage packet/time counters, drop reasons, "
                             "shard balance) plus anomaly warnings")
    parser.add_argument("--stats-json", type=Path, default=None, metavar="PATH",
                        help="write the telemetry snapshot as JSON "
                             "('-' for stdout)")
    parser.add_argument("--tolerant", action="store_true",
                        help="treat a truncated capture tail as end-of-file "
                             "instead of an error (counted in --stats)")
    add_batch_size_option(parser)
    parser.set_defaults(func=run)


def _build_analyze_source(args: argparse.Namespace):
    """One file streams directly; anything else goes through the directory
    source (timestamp-ordered multi-file replay)."""
    from repro.net.source import CaptureDirectorySource, open_capture_source

    inputs = [str(path) for path in args.inputs] + list(args.glob or [])
    if (
        len(inputs) == 1
        and not any(char in inputs[0] for char in "*?[")
        and not Path(inputs[0]).is_dir()
    ):
        return open_capture_source(
            inputs[0], tolerant=args.tolerant, batch_size=args.batch_size
        )
    return CaptureDirectorySource(
        inputs, tolerant=args.tolerant, batch_size=args.batch_size
    )


def run(args: argparse.Namespace) -> int:
    from repro.core import AnalysisSession, AnalyzerConfig
    from repro.core.config import ProtocolConfig

    want_stats = args.stats or args.stats_json is not None
    config = AnalyzerConfig(
        zoom_subnets=tuple(args.zoom_subnets),
        shards=args.shards,
        tolerant=args.tolerant,
        telemetry=want_stats,
        protocols=ProtocolConfig(protocols=tuple(args.protocols)),
        batch_size=args.batch_size,
    )
    source = _build_analyze_source(args)
    if getattr(source, "files", None) is not None and len(source.files) > 1:
        print(f"inputs: {len(source.files)} capture files (timestamp order)")
    result = AnalysisSession(config).run(source)

    claimed = "zoom" if config.protocols.protocols == ("zoom",) else "claimed"
    print(f"packets: {result.packets_total} total, {result.packets_zoom} {claimed}")
    print(f"meetings: {len(result.meetings)}")
    for meeting in result.meetings:
        print(
            f"  meeting {meeting.meeting_id}: ~{meeting.participant_estimate()} "
            f"participants, {len(meeting.stream_uids)} media streams, "
            f"{meeting.duration:.1f}s"
        )
    print("\nmedia encapsulation shares (cf. Table 2):")
    print(
        format_table(
            ["type", "% pkts", "% bytes"],
            [(str(v), p, b) for v, p, b in result.encap_share_table()],
        )
    )
    print("\nRTP payload types (cf. Table 3):")
    print(
        format_table(
            ["media/PT", "% pkts", "% bytes"],
            [(f"{mt}/{pt}", p, b) for mt, pt, p, b in result.payload_type_table()],
        )
    )
    if result.rtp_latency.samples:
        mean_rtt = sum(s.rtt for s in result.rtp_latency.samples) / len(
            result.rtp_latency.samples
        )
        print(
            f"\nlatency (RTP matching): {len(result.rtp_latency.samples)} samples, "
            f"mean {1000 * mean_rtt:.1f} ms"
        )
    print("\nper-stream metrics:")
    streams = sorted(result.media_streams(), key=lambda s: s.first_time)
    # The protocol column only appears once a non-Zoom plugin claimed a
    # stream, so single-protocol output is unchanged.
    multi = any(stream.protocol != "zoom" for stream in streams)
    rows = []
    for stream in streams:
        metrics = result.metrics_for(stream.key)
        row = (
            f"{stream.ssrc:#x}",
            stream.media_type_name,
            "p2p" if stream.is_p2p else ("up" if stream.to_server else "down"),
            stream.packets,
            metrics.framerate_delivered.mean_fps,
            metrics.jitter.jitter * 1000,
            metrics.loss.report().duplicates,
            metrics.stall_count,
        )
        rows.append((stream.protocol,) + row if multi else row)
    headers = ["ssrc", "media", "dir", "pkts", "mean fps", "jitter ms", "dups", "stalls"]
    if multi:
        headers = ["proto"] + headers
    print(format_table(headers, rows))
    if want_stats:
        snapshot = result.telemetry_snapshot()
        if args.stats:
            from repro.telemetry import log_anomalies, render_stats

            print("\n=== runtime telemetry (--stats) ===\n")
            print(render_stats(snapshot))
            anomalies = log_anomalies(snapshot)
            if anomalies:
                print("\nhealth warnings:")
                for anomaly in anomalies:
                    print(f"  [{anomaly.name}] {anomaly.message}")
        if args.stats_json is not None:
            import json

            payload = json.dumps(snapshot.to_dict(), indent=2, sort_keys=True)
            if str(args.stats_json) == "-":
                print(payload)
            else:
                Path(args.stats_json).write_text(payload + "\n")
                print(f"\nwrote telemetry JSON to {args.stats_json}")
    if args.report:
        from repro.analysis.reportgen import full_report

        print("\n" + full_report(result))
    if args.csv:
        from repro.analysis.export import write_feature_csv

        count = write_feature_csv(result, args.csv)
        print(f"\nwrote {count} feature rows to {args.csv}")
    return 0
