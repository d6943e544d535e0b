#!/usr/bin/env python3
"""Quickstart: emulate a Zoom meeting, analyze it passively, print metrics.

This is the whole paper in ~60 lines: generate the traffic a campus border
monitor would capture during a three-party Zoom meeting, run the passive
analyzer over it, and report what an operator would learn — meetings,
streams, media mix, frame rates, latency — without any endpoint cooperation.

Run:  python examples/quickstart.py
"""

from repro.analysis.tables import format_table
from repro.core import ZoomAnalyzer
from repro.net.ip import ip_to_str
from repro.simulation import (
    CongestionEvent,
    MeetingConfig,
    MeetingSimulator,
    ParticipantConfig,
)
from repro.zoom.constants import ZoomMediaType


def main() -> None:
    config = MeetingConfig(
        meeting_id="quickstart",
        participants=(
            ParticipantConfig(
                name="alice",
                on_campus=True,
                # Cross-traffic hits alice's uplink mid-call (cf. §5's
                # validation experiments).
                congestion=(CongestionEvent(start=12.0, end=17.0),),
            ),
            ParticipantConfig(name="bob", on_campus=True, join_time=1.0),
            ParticipantConfig(name="carol", on_campus=False, join_time=2.0),
        ),
        duration=30.0,
        allow_p2p=False,
        seed=7,
    )
    print("Simulating a 30 s three-party meeting ...")
    captures = MeetingSimulator(config).run().captures
    print(f"  monitor captured {len(captures)} packets\n")

    result = ZoomAnalyzer().analyze(captures)

    print("=== What passive analysis recovers ===")
    print(f"meetings found:      {len(result.meetings)}")
    meeting = result.meetings[0]
    print(f"participant estimate: {meeting.participant_estimate()}")
    print(f"unique media streams: {len(meeting.stream_uids)}")
    print(f"RTCP sender reports:  {result.rtcp_sender_reports} "
          f"(receiver reports: {result.rtcp_receiver_reports} — Zoom sends none)\n")

    print("--- Media mix (cf. Table 2) ---")
    rows = [
        (str(value), pct, byte_pct)
        for value, pct, byte_pct in result.encap_share_table()
    ]
    print(format_table(["encap type", "% pkts", "% bytes"], rows), "\n")

    print("--- Per-stream performance (video streams) ---")
    table_rows = []
    for stream in result.media_streams():
        if stream.media_type != int(ZoomMediaType.VIDEO) or stream.to_server is not True:
            continue
        metrics = result.metrics_for(stream.key)
        fps_samples = [s.fps for s in metrics.framerate_delivered.samples]
        mid = sum(fps_samples) / len(fps_samples) if fps_samples else 0.0
        table_rows.append(
            (
                f"{stream.ssrc:#06x}",
                metrics.assembler.completed_count,
                mid,
                metrics.framesize.summary()["median"],
                metrics.jitter.jitter * 1000.0,
                metrics.loss.report().duplicates,
            )
        )
    print(
        format_table(
            ["ssrc", "frames", "mean fps", "median size B", "jitter ms", "retransmits"],
            table_rows,
        ),
        "\n",
    )

    samples = result.rtp_latency.samples
    clean = [s.rtt for s in samples if s.time < 11]
    congested = [s.rtt for s in samples if 13 <= s.time <= 16]
    print("--- Latency to SFU (Method 1: RTP sequence matching, §5.3) ---")
    print(f"samples: {len(samples)}")
    if clean:
        print(f"before congestion: {1000 * sum(clean) / len(clean):6.1f} ms")
    if congested:
        print(f"during congestion: {1000 * sum(congested) / len(congested):6.1f} ms")

    for (client, server), estimator in result.tcp_rtt.items():
        asymmetry = estimator.asymmetry()
        if asymmetry is None:
            continue
        where = "outside" if asymmetry > 0 else "inside"
        print(
            f"TCP proxy {ip_to_str(client)} ↔ {ip_to_str(server)}: "
            f"latency dominated {where} the campus "
            f"(asymmetry {1000 * asymmetry:+.1f} ms)"
        )
        break


if __name__ == "__main__":
    main()
