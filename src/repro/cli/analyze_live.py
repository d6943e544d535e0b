"""``analyze-live`` — the monitoring daemon (directory tailer or live NIC)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.options import (
    add_batch_size_option,
    add_protocols_option,
    add_subnet_options,
    campus_tuple,
    positive_int,
)


def register(sub) -> None:
    parser = sub.add_parser(
        "analyze-live",
        help="monitor a capture directory or a live interface (daemon mode)",
        description="Follow a rotating capture directory as a capture daemon "
                    "writes it — or capture straight off a NIC with "
                    "--interface — analyze continuously with bounded memory, "
                    "and export tumbling-window metrics (Prometheus /metrics "
                    "+ JSONL). SIGTERM flushes all open windows and exits 0.",
    )
    parser.add_argument("directory", type=Path, nargs="?", default=None,
                        help="capture directory to tail (omit with --interface)")
    parser.add_argument("--interface", default=None, metavar="IFACE",
                        help="capture from this network interface instead of "
                             "tailing a directory: attaches the compiled cBPF "
                             "capture filter to an AF_PACKET socket (needs "
                             "CAP_NET_RAW); 'sim:<capture-path>' replays a "
                             "capture through the simulated socket, no "
                             "privileges needed")
    add_batch_size_option(parser)
    parser.add_argument("--window", type=float, default=10.0, metavar="SECONDS",
                        help="tumbling aggregation window width (default 10)")
    parser.add_argument("--lateness", type=float, default=5.0, metavar="SECONDS",
                        help="watermark lag before a window closes (default 5)")
    parser.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="serve /metrics, /healthz, /readyz here "
                             "(port 0 picks a free port; default: no server)")
    parser.add_argument("--jsonl-out", type=Path, default=None, metavar="PATH",
                        help="append one JSON object per closed window")
    parser.add_argument("--poll-interval", type=float, default=1.0, metavar="SECONDS",
                        help="directory scan interval (default 1)")
    parser.add_argument("--pattern", default="*.pcap*",
                        help="capture-file glob inside the directory")
    parser.add_argument("--idle-timeout", type=float, default=60.0, metavar="SECONDS",
                        help="finalize streams idle this long (default 60)")
    add_subnet_options(parser, campus=True)
    add_protocols_option(parser, "zoom", "protocol plugins to enable (default: zoom)")
    parser.add_argument("--max-polls", type=positive_int, default=None,
                        help="exit after this many directory polls "
                             "(smoke tests; default: run until SIGTERM)")
    parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="append closed windows and finalized streams to "
                             "a persistent metrics store (query later with "
                             "'query'); crash-safe — a kill loses at most one "
                             "torn record")
    parser.add_argument("--no-qoe", action="store_true",
                        help="disable the per-meeting QoE state machines "
                             "(and their qoe.* counters and gauges)")
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
            campus_subnets=campus_tuple(args),
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
    if report.ingest_restarts or report.kernel_drops:
        print(
            f"degraded: {report.kernel_drops} kernel ring drops, "
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
