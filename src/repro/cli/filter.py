"""``filter`` — run the P4 capture-pipeline model over a pcap."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.options import add_subnet_options


def register(sub) -> None:
    parser = sub.add_parser("filter", help="run the P4 capture model over a pcap")
    parser.add_argument("input", type=Path)
    parser.add_argument("output", type=Path)
    add_subnet_options(parser, campus=True, campus_default="10.8.0.0/16,10.9.0.0/16")
    parser.add_argument("--anonymize", metavar="KEY", default=None)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
