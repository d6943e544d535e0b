#!/usr/bin/env python3
"""The Wireshark-plugin workflow (Appendix C): dissect Zoom packets in a pcap.

Without arguments, generates a small meeting, writes it to a temporary pcap,
reads it back, and dissects a sample of packets — demonstrating the on-disk
interchange format.  Point it at your own capture with::

    python examples/dissect_pcap.py path/to/trace.pcap [--limit N]

Server-based traffic is recognized by UDP port 8801 (like the plugin, which
"automatically treats all UDP traffic to port 8801 as Zoom"); other UDP flows
are attempted as P2P.
"""

import argparse
import tempfile
from pathlib import Path

from repro.core.dissector import dissect
from repro.net.pcap import write_pcap
from repro.net.source import open_capture_source
from repro.rtp.stun import is_stun
from repro.simulation import MeetingConfig, MeetingSimulator, ParticipantConfig
from repro.zoom.constants import SERVER_MEDIA_PORT


def generate_demo_pcap(path: Path) -> None:
    config = MeetingConfig(
        meeting_id="pcap-demo",
        participants=(
            ParticipantConfig(name="a", on_campus=True),
            ParticipantConfig(name="b", on_campus=False, join_time=0.5),
        ),
        duration=8.0,
        allow_p2p=True,
        p2p_switch_delay=3.0,
        seed=31,
    )
    captures = MeetingSimulator(config).run().captures
    count = write_pcap(path, captures)
    print(f"wrote {count} packets to {path}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("pcap", nargs="?", help="pcap file to dissect")
    parser.add_argument("--limit", type=int, default=6, help="packets to print")
    args = parser.parse_args()

    if args.pcap:
        path = Path(args.pcap)
    else:
        path = Path(tempfile.mkdtemp()) / "zoom-demo.pcap"
        print("No pcap given — generating a demo meeting capture.")
        generate_demo_pcap(path)

    printed = 0
    kinds_seen = set()
    for packet in open_capture_source(path):
        if not packet.is_udp or is_stun(packet.payload):
            continue
        from_server = SERVER_MEDIA_PORT in (packet.src_port, packet.dst_port)
        tree = dissect(packet.payload, from_server=from_server)
        # Show one of each packet kind rather than six identical video packets.
        kind = tree.display.split("]")[1].split()[0] if "]" in tree.display else "?"
        if kind in kinds_seen and len(kinds_seen) < 4:
            continue
        kinds_seen.add(kind)
        print(f"--- packet @ t={packet.timestamp:.4f}s "
              f"{packet.src_ip}:{packet.src_port} -> {packet.dst_ip}:{packet.dst_port} ---")
        print(tree.render())
        print()
        printed += 1
        if printed >= args.limit:
            break
    if printed == 0:
        print("no dissectable Zoom UDP packets found")


if __name__ == "__main__":
    main()
