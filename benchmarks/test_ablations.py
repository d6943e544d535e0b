"""Ablations of the design choices DESIGN.md §12 calls out.

1. Duplicate-stream matching features: with SSRC-only matching (no RTP
   timestamp window), re-used SSRCs from unrelated meetings collapse into
   one stream id — the full four-feature check prevents that.
2. STUN tracker timeout: too short misses the P2P switch, too long invites
   port-reuse false positives.
3. Frame-rate methods: delivered (Method 1) vs encoder (Method 2) rates
   diverge under congestion before the encoder adapts.

Analyzer throughput is measured by the benchmark harness
(``benchmarks/harness/run.py``), not here.
"""

from repro.analysis.tables import format_table
from repro.core.detector import ZoomClass, ZoomTrafficDetector
from repro.core.meetings import MeetingGrouper
from repro.core.streams import RTPPacketRecord, StreamTable
from repro.net.packet import parse_frame
from repro.simulation import MeetingConfig, MeetingSimulator, ParticipantConfig


def _rec(src, sport, *, ssrc, rtp_ts, t):
    return RTPPacketRecord(
        timestamp=t, five_tuple=(src, sport, "170.114.1.1", 8801, 17),
        ssrc=ssrc, payload_type=98, sequence=1, rtp_timestamp=rtp_ts,
        marker=False, media_type=16, payload_len=500, udp_payload_len=550,
        to_server=True,
    )


def test_ablation_duplicate_matching_features(report, benchmark):
    """SSRC reuse across meetings: the timestamp window is load-bearing."""
    records = [
        _rec("10.8.1.2", 50001, ssrc=0x110, rtp_ts=100_000, t=1.0),
        # Same SSRC, unrelated meeting, wildly different timestamp base.
        _rec("10.8.7.7", 50002, ssrc=0x110, rtp_ts=2_500_000_000, t=2.0),
    ]

    def run_both():
        full = MeetingGrouper()  # default: time + timestamp windows
        table_full = StreamTable()
        for record in records:
            full.observe_new_stream(table_full.observe(record), table_full)
        # "SSRC-only": timestamp window wide open (half the 32-bit space).
        ssrc_only = MeetingGrouper(rtp_window_seconds=2_147_483_648 / 90_000)
        table_ssrc = StreamTable()
        for record in records:
            ssrc_only.observe_new_stream(table_ssrc.observe(record), table_ssrc)
        return full, ssrc_only

    full, ssrc_only = benchmark(run_both)
    report(
        "ablation_duplicate_matching",
        format_table(
            ["variant", "unique streams", "meetings"],
            [
                ("time+SSRC+timestamp (paper)", full.unique_stream_count(), len(full.meetings())),
                ("SSRC only", ssrc_only.unique_stream_count(), len(ssrc_only.meetings())),
            ],
        ),
    )
    assert full.unique_stream_count() == 2       # kept apart, correctly
    assert len(full.meetings()) == 2
    assert ssrc_only.unique_stream_count() == 1  # falsely merged
    assert len(ssrc_only.meetings()) == 1


def test_ablation_stun_timeout(report, benchmark):
    """Sweep the STUN timeout against a meeting whose P2P flow starts ~6 s
    after the exchange, plus a port-reuse event 200 s later."""
    result = MeetingSimulator(
        MeetingConfig(
            meeting_id="ablation-stun",
            participants=(
                ParticipantConfig(name="a", on_campus=True),
                ParticipantConfig(name="b", on_campus=False, join_time=0.5),
            ),
            duration=18.0,
            allow_p2p=True,
            p2p_switch_delay=6.0,
            seed=3,
        )
    ).run()
    parsed = [parse_frame(c.data, c.timestamp) for c in result.captures]
    truth = result.p2p_flows[0]
    # Port reuse much later by an unrelated application.
    from repro.net.packet import CapturedPacket, build_udp_frame

    reuse = parse_frame(
        build_udp_frame(truth.client_ip, truth.client_port, "93.184.0.9", 9999, b"game"),
        250.0,
    )

    def sweep():
        rows = []
        for timeout in (1.0, 30.0, 120.0, 100_000.0):
            detector = ZoomTrafficDetector(stun_timeout=timeout)
            detected = sum(
                1 for p in parsed if detector.classify(p) is ZoomClass.P2P_MEDIA
            )
            false_positive = detector.classify(reuse) is ZoomClass.P2P_MEDIA
            rows.append((timeout, detected, false_positive))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "ablation_stun_timeout",
        format_table(["timeout s", "P2P pkts detected", "port-reuse false positive"], rows),
    )
    by_timeout = {timeout: (detected, fp) for timeout, detected, fp in rows}
    assert by_timeout[1.0][0] == 0                 # too short: switch missed
    assert by_timeout[120.0][0] > 100              # paper-scale timeout: works
    assert not by_timeout[120.0][1]                # ...without the false positive
    assert by_timeout[100_000.0][1]                # unbounded: port reuse bites


def test_ablation_framerate_methods_divergence(report, benchmark):
    """Method 1 (delivered) dips under congestion while Method 2 (encoder)
    holds until the encoder adapts — their gap is the paper's network-problem
    indicator (§5.2).  Demonstrated on a queue-buildup scenario: the encoder
    keeps producing 30 fps (constant RTP increments) while delivery slows."""
    from collections import defaultdict

    from repro.core.metrics.framerate import FrameRateMethod1, FrameRateMethod2
    from repro.core.metrics.frames import CompletedFrame

    def run_scenario():
        delivered = FrameRateMethod1()
        encoder = FrameRateMethod2(90_000)
        for i in range(180):
            # Seconds 2-4 (frames 60-119): a queue adds 25 ms per frame.
            queueing = 0.025 * max(0, min(i, 119) - 59)
            completed = CompletedFrame(
                rtp_timestamp=i * 3000,
                frame_sequence=i,
                expected_packets=2,
                first_time=(i + 1) / 30.0 + queueing - 0.004,
                completed_time=(i + 1) / 30.0 + queueing,
                payload_bytes=1400,
            )
            delivered.observe(completed)
            encoder.observe(completed)
        d_by_second = defaultdict(list)
        e_by_second = defaultdict(list)
        for sample in delivered.samples:
            d_by_second[int(sample.time)].append(sample.fps)
        for sample in encoder.samples:
            e_by_second[int(sample.time)].append(sample.fps)
        return d_by_second, e_by_second

    d_by_second, e_by_second = benchmark(run_scenario)
    gaps = []
    for second in sorted(set(d_by_second) & set(e_by_second)):
        d = sum(d_by_second[second]) / len(d_by_second[second])
        e = sum(e_by_second[second]) / len(e_by_second[second])
        gaps.append((second, d, e, e - d))
    report(
        "ablation_framerate_methods",
        format_table(["second", "delivered fps (M1)", "encoder fps (M2)", "gap"], gaps),
    )
    congested = [g for s, _d, _e, g in gaps if 2 <= s <= 4]
    # Second 0 is Method 1's window warm-up; "calm" starts at second 1.
    calm = [abs(g) for s, _d, _e, g in gaps if s == 1]
    assert congested and max(congested) > 8.0    # delivery collapses, encoder holds
    assert calm and max(calm) < 3.0              # agreement when calm
