"""``dissect`` — Wireshark-plugin style packet dissection."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.options import add_protocols_option, add_subnet_options, campus_tuple


def register(sub) -> None:
    parser = sub.add_parser("dissect", help="Wireshark-style packet dissection")
    parser.add_argument("input", type=Path)
    parser.add_argument("--limit", type=int, default=5)
    add_subnet_options(parser, campus=True)
    add_protocols_option(parser, "zoom,rtp",
                         "protocol plugins to classify with "
                         "(default: zoom,rtp)")
    parser.add_argument("--protocol", action="append", default=None,
                        metavar="NAME",
                        help="only print packets claimed by this plugin; "
                             "may be repeated")
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
        campus_subnets=campus_tuple(args),
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
