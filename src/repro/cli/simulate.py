"""``simulate`` — generate an emulated capture."""

from __future__ import annotations

import argparse
from pathlib import Path


def register(sub) -> None:
    parser = sub.add_parser("simulate", help="generate an emulated capture")
    parser.add_argument("output", type=Path)
    parser.add_argument(
        "--kind", choices=("meeting", "campus", "webrtc"), default="meeting"
    )
    parser.add_argument("--participants", type=int, default=3)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--hours", type=int, default=4)
    parser.add_argument("--peak", type=float, default=2.0)
    parser.add_argument("--background-pps", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
