"""``zoom-analysis`` — the command-line face of the library.

Subcommands mirror the paper's workflow:

* ``simulate``  — generate a meeting or campus trace to a pcap (the stand-in
  for a real capture);
* ``filter``    — run a pcap through the P4 capture-pipeline model
  (optionally anonymizing), writing the Zoom-only pcap;
* ``analyze``   — the full passive analysis: meetings, streams, Table 2/3
  style shares, latency, per-stream metrics; optional ML feature CSV;
* ``dissect``   — Wireshark-plugin style packet dissection;
* ``entropy``   — the §4.2 reverse-engineering sweep over a flow;
* ``query``     — slice a persistent metrics store (``analyze-live
  --store``) by time, meeting, and media type;
* ``backfill``  — load pre-store JSONL window logs or batch captures into
  a metrics store;
* ``compact``   — store maintenance: merge small segments, enforce
  retention.

Run ``zoom-analysis <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.tables import format_table


def _subnet_list(value: str) -> list[str]:
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


def _protocol_list(value: str) -> tuple[str, ...]:
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


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.net.pcap import write_pcap
    from repro.simulation import MeetingConfig, MeetingSimulator, ParticipantConfig
    from repro.simulation.campus import CampusTraceConfig, generate_campus_trace
    from repro.simulation.webrtc import WebRTCCallConfig, simulate_webrtc_call

    if args.kind == "webrtc":
        result = simulate_webrtc_call(
            WebRTCCallConfig(duration=args.duration, seed=args.seed)
        )
        packets = result.captures
        print(
            f"webrtc call: {len(packets)} captured packets over "
            f"{args.duration:.0f}s ({result.stun_sent} stun, "
            f"{result.rtp_sent} rtp, {result.rtcp_sent} rtcp)"
        )
    elif args.kind == "campus":
        trace = generate_campus_trace(
            CampusTraceConfig(
                hours=args.hours,
                meetings_per_hour_peak=args.peak,
                background_pps=args.background_pps,
                seed=args.seed,
            )
        )
        packets = trace.all_packets()
        print(
            f"campus trace: {len(trace.meeting_configs)} meetings, "
            f"{len(trace.result.captures)} zoom + {len(trace.background)} background packets"
        )
    else:
        participants = [
            ParticipantConfig(name=f"p{i}", on_campus=(i % 2 == 0), join_time=0.4 * i)
            for i in range(args.participants)
        ]
        config = MeetingConfig(
            meeting_id="cli-meeting",
            participants=tuple(participants),
            duration=args.duration,
            allow_p2p=args.participants == 2,
            seed=args.seed,
        )
        result = MeetingSimulator(config).run()
        packets = result.captures
        print(f"meeting: {len(packets)} captured packets over {args.duration:.0f}s")
    count = write_pcap(args.output, packets)
    print(f"wrote {count} packets to {args.output}")
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    from repro.capture.anonymize import Anonymizer
    from repro.capture.p4_model import P4CaptureModel
    from repro.net.packet import CapturedPacket
    from repro.net.pcap import PcapWriter
    from repro.net.source import open_capture_source

    anonymizer = Anonymizer(key=args.anonymize.encode()) if args.anonymize else None
    model = P4CaptureModel(
        zoom_subnets=args.zoom_subnets,
        campus_subnets=args.campus_subnets,
        anonymizer=anonymizer,
    )
    with open_capture_source(args.input) as source, PcapWriter(args.output) as writer:
        captured = (CapturedPacket(p.timestamp, p.raw) for p in source)
        for packet in model.process(captured):
            writer.write(packet)
        written = writer.packets_written
    counters = model.counters
    print(
        f"processed {counters.processed}, passed {written} "
        f"(server {counters.zoom_ip_matched}, p2p {counters.p2p_matched}), "
        f"dropped {counters.dropped}"
    )
    return 0


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


def _cmd_analyze(args: argparse.Namespace) -> int:
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
        fps = metrics.framerate_delivered.samples
        row = (
            f"{stream.ssrc:#x}",
            stream.media_type_name,
            "p2p" if stream.is_p2p else ("up" if stream.to_server else "down"),
            stream.packets,
            (sum(s.fps for s in fps) / len(fps)) if fps else float("nan"),
            metrics.jitter.jitter * 1000,
            metrics.loss.report().duplicates,
            len(metrics.stall_events()),
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


def _cmd_dissect(args: argparse.Namespace) -> int:
    from repro.core.config import AnalyzerConfig, ProtocolConfig
    from repro.net.source import open_capture_source
    from repro.protocols import build_registry

    # Classify with the real plugin registry rather than guessing "server"
    # from a port number: a P2P flow carries no SFU encapsulation (its bytes
    # start at the media layer), and an unrelated flow that happens to use
    # port 8801 is not Zoom at all.  STUN exchanges seen along the way teach
    # each plugin its endpoints, exactly as in the analyze path.  Every
    # media packet is printed under the plugin that claimed it, e.g.
    # ``[zoom][server]`` or ``[rtp][p2p]``.
    config = AnalyzerConfig(
        zoom_subnets=tuple(args.zoom_subnets),
        campus_subnets=(
            tuple(args.campus_subnets) if args.campus_subnets else None
        ),
        protocols=ProtocolConfig(protocols=tuple(args.protocols)),
    )
    plugins = build_registry(config)
    show = set(args.protocol) if args.protocol else None
    printed = 0
    for packet in open_capture_source(args.input):
        if not packet.is_udp:
            continue
        claimant = klass = None
        for plugin in plugins:
            verdict = plugin.classify(packet)
            if verdict is not None and verdict.claimed:
                claimant, klass = plugin, verdict
                break
        if claimant is None or not klass.is_media:
            continue
        if show is not None and claimant.name not in show:
            continue
        print(
            f"--- t={packet.timestamp:.4f}s "
            f"{packet.src_ip}:{packet.src_port} -> {packet.dst_ip}:{packet.dst_port} "
            f"[{claimant.name}][{claimant.flow_tag(klass)}] ---"
        )
        print(claimant.dissect_text(packet, klass).rstrip("\n"))
        print()
        printed += 1
        if printed >= args.limit:
            break
    if printed == 0:
        label = "Zoom" if any(p.name == "zoom" for p in plugins) else "media"
        print(f"no dissectable {label} UDP packets found", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze_live(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.core import AnalyzerConfig, ServiceConfig
    from repro.core.config import ProtocolConfig
    from repro.service.runner import ZoomMonitorService

    if args.interface is None and args.directory is None:
        print("analyze-live: a capture directory or --interface is required",
              file=sys.stderr)
        return 2
    if args.interface is not None and args.directory is not None:
        print("analyze-live: --interface and a capture directory are "
              "mutually exclusive", file=sys.stderr)
        return 2
    config = ServiceConfig(
        analyzer=AnalyzerConfig(
            zoom_subnets=tuple(args.zoom_subnets),
            campus_subnets=(
                tuple(args.campus_subnets) if args.campus_subnets else None
            ),
            rolling=True,
            rolling_idle_timeout=args.idle_timeout,
            telemetry=True,
            protocols=ProtocolConfig(protocols=tuple(args.protocols)),
            batch_size=args.batch_size,
        ),
        window_seconds=args.window,
        watermark_lateness=args.lateness,
        poll_interval=args.poll_interval,
        tail_pattern=args.pattern,
        interface=args.interface,
        listen=args.listen,
        jsonl_path=str(args.jsonl_out) if args.jsonl_out else None,
        store_dir=str(args.store) if args.store else None,
    )
    if args.no_qoe:
        config = replace(config, qoe=replace(config.qoe, enabled=False))
    service = ZoomMonitorService(args.directory, config)
    if args.interface is not None:
        print(f"capturing from {args.interface} "
              f"(cBPF capture filter, {args.window:.0f}s windows)")
    else:
        print(f"tailing {args.directory} (pattern {args.pattern!r}, "
              f"{args.window:.0f}s windows)")
    if service.http is not None:
        host, port = service.http.address
        print(f"metrics: http://{host}:{port}/metrics", flush=True)
    report = service.run(
        install_signal_handlers=True, stop_after_polls=args.max_polls
    )
    print(
        f"processed {report.packets_processed} packets over {report.polls} polls: "
        f"{report.windows_emitted} windows, {report.streams_finalized} streams, "
        f"{report.meetings_formed} meetings"
    )
    if service.qoe is not None:
        summary = service.qoe.fleet_summary()
        breakdown = (
            " ".join(f"{name}={count}" for name, count in sorted(summary.items()))
            or "no scored meetings"
        )
        print(
            f"qoe: worst={report.qoe_worst_state} [{breakdown}] "
            f"{report.qoe_transitions} transitions, {report.qoe_alerts} alerts"
        )
    if report.packets_dropped or report.ingest_restarts or report.kernel_drops:
        print(
            f"degraded: dropped {report.packets_dropped} packets "
            f"({report.batches_dropped} batches), "
            f"{report.kernel_drops} kernel ring drops, "
            f"{report.ingest_restarts} ingest restarts",
            file=sys.stderr,
        )
    from repro.telemetry import log_anomalies

    anomalies = log_anomalies(service.telemetry.snapshot())
    if anomalies:
        print("health warnings:", file=sys.stderr)
        for anomaly in anomalies:
            print(f"  [{anomaly.name}] {anomaly.message}", file=sys.stderr)
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    from collections import defaultdict

    from repro.core.entropy import analyze_flow, find_rtp_signature
    from repro.core.offset_finder import discover_offsets
    from repro.net.source import open_capture_source

    flows: dict = defaultdict(list)
    for packet in open_capture_source(args.input):
        if packet.is_udp and packet.five_tuple is not None:
            flows[packet.five_tuple].append(packet.payload)
    if not flows:
        print("no UDP flows in capture", file=sys.stderr)
        return 1
    flow_key, payloads = max(flows.items(), key=lambda kv: len(kv[1]))
    print(f"busiest flow: {flow_key[0]}:{flow_key[1]} -> {flow_key[2]}:{flow_key[3]} "
          f"({len(payloads)} packets)")
    reports = analyze_flow(payloads, max_offset=args.max_offset)
    rows = [
        (r.offset, r.width, r.field_class.value, r.stats.distinct,
         f"{r.stats.entropy:.2f}", f"{r.stats.increment_fraction:.2f}")
        for r in reports
        if r.field_class.value != "mixed"
    ]
    print(format_table(["offset", "width", "class", "distinct", "entropy", "inc"], rows))
    print("RTP signature offsets:", find_rtp_signature(reports))
    all_payloads = [p for ps in flows.values() for p in ps]
    discovery = discover_offsets(all_payloads)
    print("flow-wide RTP offsets:", dict(discovery.rtp_offsets))
    print("type field position(s):", discovery.type_field_positions)
    print("type -> offset map:", discovery.offset_by_type_value)
    return 0


def _metric_list(value: str) -> tuple[str, ...]:
    metrics = tuple(token.strip() for token in value.split(",") if token.strip())
    if not metrics:
        raise argparse.ArgumentTypeError(f"no metric names in {value!r}")
    return metrics


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.store import MetricsStore, StoreQuery, flatten_records

    store = MetricsStore(args.store)
    query = StoreQuery(
        start=args.start,
        end=args.end,
        kinds=tuple(args.kind) if args.kind else ("window",),
        meeting_id=args.meeting,
        media=args.media,
        metrics=args.metrics,
        reaggregate_seconds=args.reaggregate,
        use_index=not args.no_index,
    )
    result = store.query(query)
    if args.format == "json":
        for record in result.records:
            print(json.dumps(record, sort_keys=True))
    else:
        columns, rows = flatten_records(result.records)
        cells = [
            tuple("" if row.get(c) is None else row.get(c) for c in columns)
            for row in rows
        ]
        if args.format == "csv":
            import csv

            writer = csv.writer(sys.stdout)
            writer.writerow(columns)
            writer.writerows(cells)
        else:
            print(format_table(columns, cells))
    print(
        f"{result.count} records from {result.segments_scanned} segments "
        f"({result.segments_skipped} skipped by index, "
        f"{result.records_examined} records examined)",
        file=sys.stderr,
    )
    return 0


def _cmd_backfill(args: argparse.Namespace) -> int:
    from repro.core import AnalysisSession, AnalyzerConfig
    from repro.net.source import open_capture_source
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
        for path in capture_paths:
            config = AnalyzerConfig(zoom_subnets=tuple(args.zoom_subnets))
            result = AnalysisSession(config).run(open_capture_source(str(path)))
            report = backfill_result(store, result)
            print(
                f"{path}: {report.streams} streams, {report.meetings} meetings"
            )
        total = store.record_count()
    print(f"store now holds {total} records in {args.store}")
    return 0


def _looks_like_capture(path: Path) -> bool:
    name = path.name.lower()
    return any(token in name for token in (".pcap", ".cap"))


def _cmd_compact(args: argparse.Namespace) -> int:
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


def _cmd_fleet_simulate(args: argparse.Namespace) -> int:
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


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.fleet import fleet_status, load_fleet_manifest, render_fleet_status

    config = load_fleet_manifest(args.fleet)
    status = fleet_status(config)
    print(render_fleet_status(status), end="")
    # Unreachable nodes make status non-zero (scripts can alert on it);
    # softer anomalies (stale, drop outliers) are printed but exit 0.
    return 0 if status.reachable == len(status.nodes) else 1


def _cmd_fleet_query(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import FederatedQuery, load_fleet_manifest
    from repro.store import StoreQuery, flatten_records

    config = load_fleet_manifest(args.fleet)
    query = StoreQuery(
        start=args.start,
        end=args.end,
        kinds=tuple(args.kind) if args.kind else ("window",),
        meeting_id=args.meeting,
        media=args.media,
        metrics=args.metrics,
        reaggregate_seconds=args.reaggregate,
        use_index=not args.no_index,
    )
    with FederatedQuery(config) as plane:
        result = plane.run(query)
    if args.format == "json":
        for record in result.records:
            print(json.dumps(record, sort_keys=True))
    else:
        columns, rows = flatten_records(result.records)
        cells = [
            tuple("" if row.get(c) is None else row.get(c) for c in columns)
            for row in rows
        ]
        if args.format == "csv":
            import csv

            writer = csv.writer(sys.stdout)
            writer.writerow(columns)
            writer.writerows(cells)
        else:
            print(format_table(columns, cells))
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


def build_parser() -> argparse.ArgumentParser:
    from repro.net.batch import DEFAULT_FRAMES_PER_BATCH

    parser = argparse.ArgumentParser(
        prog="zoom-analysis",
        description="Passive measurement of Zoom performance (IMC'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate an emulated capture")
    simulate.add_argument("output", type=Path)
    simulate.add_argument(
        "--kind", choices=("meeting", "campus", "webrtc"), default="meeting"
    )
    simulate.add_argument("--participants", type=int, default=3)
    simulate.add_argument("--duration", type=float, default=30.0)
    simulate.add_argument("--hours", type=int, default=4)
    simulate.add_argument("--peak", type=float, default=2.0)
    simulate.add_argument("--background-pps", type=float, default=0.05)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.set_defaults(func=_cmd_simulate)

    filter_cmd = sub.add_parser("filter", help="run the P4 capture model over a pcap")
    filter_cmd.add_argument("input", type=Path)
    filter_cmd.add_argument("output", type=Path)
    filter_cmd.add_argument(
        "--zoom-subnets",
        type=_subnet_list,
        default="170.114.0.0/16,203.0.113.0/24",
    )
    filter_cmd.add_argument(
        "--campus-subnets",
        type=_subnet_list,
        default="10.8.0.0/16,10.9.0.0/16",
    )
    filter_cmd.add_argument("--anonymize", metavar="KEY", default=None)
    filter_cmd.set_defaults(func=_cmd_filter)

    analyze = sub.add_parser("analyze", help="full passive analysis of captures")
    analyze.add_argument("inputs", type=Path, nargs="+", metavar="input",
                         help="capture files, directories, or glob patterns; "
                              "multiple inputs are merged in timestamp order")
    analyze.add_argument("--glob", action="append", default=None, metavar="PATTERN",
                         help="add capture files matching an (unexpanded) glob "
                              "pattern; may be repeated")
    analyze.add_argument(
        "--zoom-subnets",
        type=_subnet_list,
        default="170.114.0.0/16,203.0.113.0/24",
    )
    analyze.add_argument("--protocols", type=_protocol_list, default="zoom",
                         metavar="NAME[,NAME...]",
                         help="protocol plugins to enable, in registry "
                              "priority order (default: zoom; e.g. "
                              "'zoom,rtp' for mixed traces)")
    analyze.add_argument("--shards", type=_positive_int, default=1,
                         help="flow-shard the analysis across N parallel workers "
                              "(RTP-latency matching needs a single pass)")
    analyze.add_argument("--csv", type=Path, default=None,
                         help="write the per-(stream,second) ML feature matrix")
    analyze.add_argument("--report", action="store_true",
                         help="print per-meeting report cards with diagnoses")
    analyze.add_argument("--stats", action="store_true",
                         help="print the runtime-telemetry health report "
                              "(per-stage packet/time counters, drop reasons, "
                              "shard balance) plus anomaly warnings")
    analyze.add_argument("--stats-json", type=Path, default=None, metavar="PATH",
                         help="write the telemetry snapshot as JSON "
                              "('-' for stdout)")
    analyze.add_argument("--tolerant", action="store_true",
                         help="treat a truncated capture tail as end-of-file "
                              "instead of an error (counted in --stats)")
    analyze.add_argument("--batch-size", type=_positive_int,
                         default=DEFAULT_FRAMES_PER_BATCH, metavar="FRAMES",
                         help="frames per ingest batch "
                              f"(default {DEFAULT_FRAMES_PER_BATCH})")
    analyze.set_defaults(func=_cmd_analyze)

    live = sub.add_parser(
        "analyze-live",
        help="monitor a capture directory or a live interface (daemon mode)",
        description="Follow a rotating capture directory as a capture daemon "
                    "writes it — or capture straight off a NIC with "
                    "--interface — analyze continuously with bounded memory, "
                    "and export tumbling-window metrics (Prometheus /metrics "
                    "+ JSONL). SIGTERM flushes all open windows and exits 0.",
    )
    live.add_argument("directory", type=Path, nargs="?", default=None,
                      help="capture directory to tail (omit with --interface)")
    live.add_argument("--interface", default=None, metavar="IFACE",
                      help="capture from this network interface instead of "
                           "tailing a directory: attaches the compiled cBPF "
                           "capture filter to an AF_PACKET socket (needs "
                           "CAP_NET_RAW); 'sim:<capture-path>' replays a "
                           "capture through the simulated socket, no "
                           "privileges needed")
    live.add_argument("--batch-size", type=_positive_int,
                      default=DEFAULT_FRAMES_PER_BATCH, metavar="FRAMES",
                      help="frames per ingest batch "
                           f"(default {DEFAULT_FRAMES_PER_BATCH})")
    live.add_argument("--window", type=float, default=10.0, metavar="SECONDS",
                      help="tumbling aggregation window width (default 10)")
    live.add_argument("--lateness", type=float, default=5.0, metavar="SECONDS",
                      help="watermark lag before a window closes (default 5)")
    live.add_argument("--listen", default=None, metavar="HOST:PORT",
                      help="serve /metrics, /healthz, /readyz here "
                           "(port 0 picks a free port; default: no server)")
    live.add_argument("--jsonl-out", type=Path, default=None, metavar="PATH",
                      help="append one JSON object per closed window")
    live.add_argument("--poll-interval", type=float, default=1.0, metavar="SECONDS",
                      help="directory scan interval (default 1)")
    live.add_argument("--pattern", default="*.pcap*",
                      help="capture-file glob inside the directory")
    live.add_argument("--idle-timeout", type=float, default=60.0, metavar="SECONDS",
                      help="finalize streams idle this long (default 60)")
    live.add_argument(
        "--zoom-subnets",
        type=_subnet_list,
        default="170.114.0.0/16,203.0.113.0/24",
    )
    live.add_argument("--campus-subnets", type=_subnet_list, default=None)
    live.add_argument("--protocols", type=_protocol_list, default="zoom",
                      metavar="NAME[,NAME...]",
                      help="protocol plugins to enable (default: zoom)")
    live.add_argument("--max-polls", type=_positive_int, default=None,
                      help="exit after this many directory polls "
                           "(smoke tests; default: run until SIGTERM)")
    live.add_argument("--store", type=Path, default=None, metavar="DIR",
                      help="append closed windows and finalized streams to "
                           "a persistent metrics store (query later with "
                           "'query'); crash-safe — a kill loses at most one "
                           "torn record")
    live.add_argument("--no-qoe", action="store_true",
                      help="disable the per-meeting QoE state machines "
                           "(and their qoe.* counters and gauges)")
    live.set_defaults(func=_cmd_analyze_live)

    query = sub.add_parser(
        "query",
        help="slice a persistent metrics store",
        description="Query a store written by 'analyze-live --store' or "
                    "'backfill': filter by time range, meeting id, and media "
                    "type, optionally re-aggregate windows into coarser "
                    "buckets, and print as a table, JSON lines, or CSV. "
                    "Segment skipping statistics go to stderr.",
    )
    query.add_argument("store", type=Path, help="store directory")
    query.add_argument("--start", type=float, default=None, metavar="SECONDS",
                       help="capture-time lower bound (inclusive)")
    query.add_argument("--end", type=float, default=None, metavar="SECONDS",
                       help="capture-time upper bound (exclusive)")
    query.add_argument("--kind", action="append",
                       choices=("window", "stream", "meeting"), default=None,
                       help="record kind(s) to return; may be repeated "
                            "(default: window)")
    query.add_argument("--meeting", type=int, default=None, metavar="ID",
                       help="restrict to one meeting (other kinds are "
                            "filtered to the meeting's activity span)")
    query.add_argument("--media", choices=("audio", "video", "screen"),
                       default=None,
                       help="restrict to one media type")
    query.add_argument("--metrics", type=_metric_list, default=None,
                       metavar="NAME[,NAME...]",
                       help="project records down to these metric keys")
    query.add_argument("--reaggregate", type=float, default=None,
                       metavar="SECONDS",
                       help="merge windows into coarser tumbling buckets of "
                            "this width")
    query.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")
    query.add_argument("--no-index", action="store_true",
                       help="disable footer-index segment skipping "
                            "(full-scan baseline)")
    query.set_defaults(func=_cmd_query)

    backfill = sub.add_parser(
        "backfill",
        help="load pre-store history into a metrics store",
        description="Ingest existing artifacts into a store: service JSONL "
                    "window logs (plain or gzip-rotated) become window "
                    "records; capture files are batch-analyzed and their "
                    "stream/meeting summaries stored.",
    )
    backfill.add_argument("store", type=Path, help="store directory "
                          "(created if missing)")
    backfill.add_argument("inputs", type=Path, nargs="+", metavar="input",
                          help="JSONL window logs (*.jsonl, *.jsonl*.gz) "
                               "and/or capture files (*.pcap*)")
    backfill.add_argument(
        "--zoom-subnets",
        type=_subnet_list,
        default="170.114.0.0/16,203.0.113.0/24",
    )
    backfill.set_defaults(func=_cmd_backfill)

    compact = sub.add_parser(
        "compact",
        help="metrics-store maintenance (compaction + retention)",
        description="Merge a partition's many small sealed segments into "
                    "one and delete the oldest segments beyond the "
                    "retention budget.  Safe to run while no writer holds "
                    "the store.",
    )
    compact.add_argument("store", type=Path, help="store directory")
    compact.add_argument("--retention-max-age", type=float, default=None,
                         metavar="SECONDS",
                         help="drop sealed segments older than this behind "
                              "the newest record")
    compact.add_argument("--retention-max-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="drop oldest sealed segments until under this "
                              "total size")
    compact.set_defaults(func=_cmd_compact)

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

    fleet_sim = fleet_sub.add_parser(
        "simulate", help="build an N-node simulated fleet under a directory"
    )
    fleet_sim.add_argument("root", type=Path, help="fleet root directory")
    fleet_sim.add_argument("--nodes", type=_positive_int, default=3,
                           help="vantage points to simulate (default 3)")
    fleet_sim.add_argument("--hours", type=_positive_int, default=1,
                           help="campus-trace hours per node (default 1)")
    fleet_sim.add_argument("--peak", type=float, default=3.0,
                           help="meetings/hour per node at peak (default 3)")
    fleet_sim.add_argument("--window", type=float, default=10.0,
                           help="aggregation window seconds (default 10)")
    fleet_sim.add_argument("--seed", type=int, default=7)
    fleet_sim.add_argument("--overlap", action="store_true",
                           help="feed a shared trace to the first two nodes "
                                "(exercises cross-tap meeting dedup)")
    fleet_sim.set_defaults(func=_cmd_fleet_simulate)

    fleet_status_cmd = fleet_sub.add_parser(
        "status", help="scrape and summarize every node's health"
    )
    fleet_status_cmd.add_argument(
        "fleet", type=Path,
        help="fleet.json manifest (or a directory containing one)")
    fleet_status_cmd.set_defaults(func=_cmd_fleet_status)

    fleet_query = fleet_sub.add_parser(
        "query", help="run one store query across the whole fleet"
    )
    fleet_query.add_argument(
        "fleet", type=Path,
        help="fleet.json manifest (or a directory containing one)")
    fleet_query.add_argument("--start", type=float, default=None,
                             metavar="SECONDS")
    fleet_query.add_argument("--end", type=float, default=None,
                             metavar="SECONDS")
    fleet_query.add_argument("--kind", action="append",
                             choices=("window", "stream", "meeting"),
                             default=None,
                             help="record kind(s); may be repeated "
                                  "(default: window)")
    fleet_query.add_argument("--meeting", type=int, default=None, metavar="ID",
                             help="restrict to one meeting id (spans are "
                                  "resolved fleet-wide first)")
    fleet_query.add_argument("--media", choices=("audio", "video", "screen"),
                             default=None)
    fleet_query.add_argument("--metrics", type=_metric_list, default=None,
                             metavar="NAME[,NAME...]")
    fleet_query.add_argument("--reaggregate", type=float, default=None,
                             metavar="SECONDS")
    fleet_query.add_argument("--format", choices=("table", "json", "csv"),
                             default="table")
    fleet_query.add_argument("--no-index", action="store_true")
    fleet_query.set_defaults(func=_cmd_fleet_query)

    dissect = sub.add_parser("dissect", help="Wireshark-style packet dissection")
    dissect.add_argument("input", type=Path)
    dissect.add_argument("--limit", type=int, default=5)
    dissect.add_argument(
        "--zoom-subnets",
        type=_subnet_list,
        default="170.114.0.0/16,203.0.113.0/24",
    )
    dissect.add_argument("--campus-subnets", type=_subnet_list, default=None)
    dissect.add_argument("--protocols", type=_protocol_list, default="zoom,rtp",
                         metavar="NAME[,NAME...]",
                         help="protocol plugins to classify with "
                              "(default: zoom,rtp)")
    dissect.add_argument("--protocol", action="append", default=None,
                         metavar="NAME",
                         help="only print packets claimed by this plugin; "
                              "may be repeated")
    dissect.set_defaults(func=_cmd_dissect)

    entropy = sub.add_parser("entropy", help="reverse-engineering sweep over a pcap")
    entropy.add_argument("input", type=Path)
    entropy.add_argument("--max-offset", type=int, default=48)
    entropy.set_defaults(func=_cmd_entropy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
