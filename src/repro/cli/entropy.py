"""``entropy`` — the §4.2 reverse-engineering sweep over a flow."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.tables import format_table


def register(sub) -> None:
    parser = sub.add_parser("entropy", help="reverse-engineering sweep over a pcap")
    parser.add_argument("input", type=Path)
    parser.add_argument("--max-offset", type=int, default=48)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from collections import defaultdict

    from repro.core.entropy import analyze_flow, find_rtp_signature
    from repro.core.offset_finder import discover_offsets
    from repro.net.ip import ip_to_str
    from repro.net.source import open_capture_source

    flows: dict = defaultdict(list)
    for packet in open_capture_source(args.input):
        if packet.is_udp and packet.five_tuple is not None:
            flows[packet.five_tuple].append(packet.payload)
    if not flows:
        print("no UDP flows in capture", file=sys.stderr)
        return 1
    flow_key, payloads = max(flows.items(), key=lambda kv: len(kv[1]))
    print(f"busiest flow: {ip_to_str(flow_key[0])}:{flow_key[1]} -> "
          f"{ip_to_str(flow_key[2])}:{flow_key[3]} "
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
