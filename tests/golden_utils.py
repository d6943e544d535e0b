"""Shared machinery for the golden end-to-end regression test.

One deterministic simulated meeting (fixed seed) is written to a pcap,
read back, and run through the full :class:`~repro.core.pipeline.ZoomAnalyzer`
exactly as ``zoom-analysis analyze`` would.  :func:`compute_golden_summary`
reduces the analysis to a stable, JSON-serialisable summary — stream
inventory, meeting grouping, encapsulation/payload-type share tables,
frame/jitter/loss statistics, and the shard-invariant telemetry counters.

The checked-in snapshot lives at ``tests/golden/meeting_small.json``.
When an *intentional* behaviour change shifts the numbers, regenerate it
with::

    PYTHONPATH=src python tests/regen_golden.py

and review the snapshot diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.config import AnalyzerConfig, ProtocolConfig, QoeConfig
from repro.core.pipeline import AnalysisResult, ZoomAnalyzer
from repro.core.session import AnalysisSession
from repro.net.packet import CapturedPacket
from repro.net.pcap import write_pcap
from repro.net.source import IterableSource, PcapFileSource
from repro.service.windows import WindowAggregator, WindowRecord
from repro.simulation import (
    CongestionEvent,
    MeetingConfig,
    ParticipantConfig,
    WebRTCCallConfig,
    impairment_suite,
    simulate_webrtc_call,
)
from repro.telemetry import shard_invariant_counters
from repro.zoom.constants import ZoomMediaType
from tests.conftest import sfu_meeting_config, simulated

GOLDEN_PATH = Path(__file__).parent / "golden" / "meeting_small.json"
IMPAIRED_GOLDEN_PATH = Path(__file__).parent / "golden" / "meeting_impaired.json"
WEBRTC_GOLDEN_PATH = Path(__file__).parent / "golden" / "webrtc_small.json"
SERVICE_WINDOWS_GOLDEN_PATH = Path(__file__).parent / "golden" / "service_windows.json"

#: Float fields are rounded before comparison so the snapshot is robust to
#: formatting, yet still catches any real drift in the estimators.
FLOAT_DIGITS = 6


def golden_config() -> MeetingConfig:
    """The fixed scenario behind the snapshot: a 3-party SFU meeting with
    one screen share and one congestion episode, fully seeded."""
    return MeetingConfig(
        meeting_id="golden-e2e",
        participants=(
            ParticipantConfig(
                name="alice",
                on_campus=True,
                congestion=(CongestionEvent(start=6.0, end=10.0, extra_loss=0.05),),
            ),
            ParticipantConfig(name="bob", on_campus=True, join_time=0.5),
            ParticipantConfig(
                name="carol",
                on_campus=False,
                join_time=1.5,
                media=(
                    ZoomMediaType.AUDIO,
                    ZoomMediaType.VIDEO,
                    ZoomMediaType.SCREEN_SHARE,
                ),
            ),
        ),
        duration=15.0,
        allow_p2p=False,
        seed=20221025,  # the paper's IMC '22 publication date
    )


def _round(value: float) -> float:
    return round(float(value), FLOAT_DIGITS)


def compute_golden_summary(tmp_dir: Path) -> dict[str, Any]:
    """Simulate, write pcap, stream back through the session; summarize.

    Exercises the production ingestion path end to end:
    ``AnalysisSession(config).run(PcapFileSource(path))``.
    """
    sim = simulated(golden_config())
    pcap_path = Path(tmp_dir) / "golden_meeting.pcap"
    write_pcap(pcap_path, sim.captures)

    session = AnalysisSession(AnalyzerConfig(telemetry=True))
    result = session.run(PcapFileSource(pcap_path))
    return summarize_result(result)


def summarize_result(result: AnalysisResult) -> dict[str, Any]:
    """Reduce an analysis result to the stable, JSON-serialisable summary.

    Shared by the golden snapshot test and the ingestion-equivalence tests:
    two runs are considered metric-identical iff their summaries compare
    equal.
    """
    streams = []
    for stream in sorted(result.media_streams(), key=lambda s: (s.first_time, s.ssrc)):
        metrics = result.metrics_for(stream.key)
        row: dict[str, Any] = {
            "ssrc": stream.ssrc,
            "media_type": stream.media_type_name,
            "is_p2p": stream.is_p2p,
            "to_server": stream.to_server,
            "packets": stream.packets,
            "bytes": stream.bytes,
            "duration": _round(stream.duration),
            "substreams": sorted(stream.substreams),
        }
        # Only non-Zoom plugins label their streams, so the pre-registry
        # snapshots (all-Zoom traces) stay byte-identical.
        if stream.protocol != "zoom":
            row["protocol"] = stream.protocol
        if metrics is not None:
            loss = metrics.loss.report(finalize=True)
            fps_samples = metrics.framerate_delivered.samples
            row.update(
                {
                    "frames_completed": metrics.assembler.completed_count,
                    "mean_fps": _round(
                        sum(s.fps for s in fps_samples) / len(fps_samples)
                    )
                    if fps_samples
                    else 0.0,
                    "jitter_ms": _round(metrics.jitter.jitter * 1000.0),
                    "received": loss.received,
                    "lost": loss.lost,
                    "duplicates": loss.duplicates,
                    "reordered": loss.reordered,
                    "loss_rate": _round(loss.loss_rate),
                }
            )
        streams.append(row)

    meetings = [
        {
            "streams": len(meeting.stream_uids),
            "participant_estimate": meeting.participant_estimate(),
            "duration": _round(meeting.duration),
        }
        for meeting in sorted(
            result.meetings, key=lambda m: -len(m.stream_uids)
        )
    ]

    encap_table = [
        [str(value), _round(pkt_share), _round(byte_share)]
        for value, pkt_share, byte_share in result.encap_share_table()
    ]
    payload_table = [
        [media_type, payload_type, _round(pkt_share), _round(byte_share)]
        for media_type, payload_type, pkt_share, byte_share in result.payload_type_table()
    ]

    return {
        "scenario": "golden-e2e seed=20221025 (3-party SFU, 15s)",
        "packets": {
            "total": result.packets_total,
            "zoom": result.packets_zoom,
            "bytes": result.bytes_total,
            "undecoded": result.undecoded_packets,
            "rtcp_sender_reports": result.rtcp_sender_reports,
            "rtcp_receiver_reports": result.rtcp_receiver_reports,
        },
        "streams": streams,
        "meetings": meetings,
        "encap_share_table": encap_table,
        "payload_type_table": payload_table,
        "telemetry": shard_invariant_counters(result.telemetry_snapshot()),
    }


def impaired_scenario():
    """The fixed impairment scenario behind the QoE snapshot: the suite's
    bandwidth cliff (seeded via the suite's master seed, so the snapshot and
    the ground-truth tests exercise the identical capture)."""
    for scenario in impairment_suite():
        if scenario.name == "bandwidth-cliff":
            return scenario
    raise LookupError("bandwidth-cliff missing from impairment_suite()")


def compute_impaired_summary(tmp_dir: Path) -> dict[str, Any]:
    """Simulate the impaired meeting and pin its full QoE alert sequence.

    Complements :func:`compute_golden_summary` (which pins the estimator
    outputs on a healthy meeting): this snapshot freezes every state-machine
    transition — times, states, reason strings — plus the ``qoe.*`` counters
    the alerting layer keys on.
    """
    scenario = impaired_scenario()
    sim = simulated(scenario.meeting)
    pcap_path = Path(tmp_dir) / "impaired_meeting.pcap"
    write_pcap(pcap_path, sim.captures)

    session = AnalysisSession(AnalyzerConfig(telemetry=True, qoe=QoeConfig()))
    result = session.run(PcapFileSource(pcap_path))
    assert session.qoe is not None

    transitions = [
        {
            "meeting": meeting_id,
            "window_index": t.window_index,
            "time": _round(t.time),
            "previous": t.previous.name,
            "state": t.state.name,
            "windows_in_previous": t.windows_in_previous,
            "observation": t.observation,
            "reason": t.reason,
            "loss_fraction": _round(t.sample.loss_fraction),
            "jitter_ms": _round(t.sample.jitter_ms),
            "fps_ratio": _round(t.sample.fps_ratio),
        }
        for meeting_id, t in session.qoe.transitions
    ]
    snapshot = result.telemetry_snapshot()
    return {
        "scenario": f"{scenario.name} via impairment_suite() — {scenario.description}",
        "intervals": [
            {
                "start": interval.start,
                "end": interval.end,
                "kind": interval.kind,
                "expected_state": interval.expected_state,
            }
            for interval in scenario.intervals
        ],
        "packets": {
            "total": result.packets_total,
            "zoom": result.packets_zoom,
        },
        "transitions": transitions,
        "qoe_counters": snapshot.counters_under("qoe."),
    }


def webrtc_call_config() -> WebRTCCallConfig:
    """The fixed 1:1 WebRTC call behind the mixed-protocol snapshot."""
    return WebRTCCallConfig()  # every default is pinned by the golden


def mixed_protocol_config(**overrides: Any) -> AnalyzerConfig:
    """Analyzer configuration for the mixed zoom+rtp trace."""
    return AnalyzerConfig(
        campus_subnets=("10.8.0.0/16",),
        protocols=ProtocolConfig(protocols=("zoom", "rtp")),
        telemetry=True,
        **overrides,
    )


def mixed_trace_captures() -> list[CapturedPacket]:
    """The golden Zoom meeting plus one concurrent WebRTC call, merged in
    timestamp order — the trace every mixed-protocol equivalence test and
    the webrtc snapshot run over."""
    zoom = simulated(golden_config()).captures
    webrtc = simulate_webrtc_call(webrtc_call_config()).captures
    return sorted([*zoom, *webrtc], key=lambda packet: packet.timestamp)


def compute_webrtc_summary(tmp_dir: Path) -> dict[str, Any]:
    """Analyze the mixed trace with both plugins enabled; summarize.

    The same end-to-end path as :func:`compute_golden_summary`, plus the
    ``protocols.*`` claim/media/conflict counters (shard-variant, so not
    part of the invariant telemetry block).
    """
    pcap_path = Path(tmp_dir) / "mixed_webrtc.pcap"
    write_pcap(pcap_path, mixed_trace_captures())

    session = AnalysisSession(mixed_protocol_config())
    result = session.run(PcapFileSource(pcap_path))
    summary = summarize_result(result)
    summary["scenario"] = (
        "mixed zoom+webrtc: golden-e2e meeting + 1:1 WebRTC call "
        "seed=20260808, protocols=zoom,rtp"
    )
    summary["protocol_counters"] = result.telemetry_snapshot().counters_under(
        "protocols."
    )
    return summary


def run_service_windows(
    captures: list[CapturedPacket],
) -> tuple[list[WindowRecord], ZoomAnalyzer]:
    """Feed ``captures`` through a :class:`WindowAggregator` over a rolling
    analyzer (5 s windows, 2 s lateness) and finish; returns the closed
    windows and the analyzer."""
    rolling = ZoomAnalyzer(
        AnalyzerConfig(rolling=True, rolling_idle_timeout=60.0, telemetry=True)
    )
    closed: list[WindowRecord] = []
    aggregator = WindowAggregator(
        rolling,
        window_seconds=5.0,
        lateness=2.0,
        on_window=(closed.append,),
        telemetry=rolling.result.telemetry,
    )
    for batch in IterableSource(captures).frame_batches():
        aggregator.ingest(batch)
    aggregator.finish()
    return closed, rolling


def summarize_service_windows(
    windows: list[WindowRecord], rolling: ZoomAnalyzer
) -> dict[str, Any]:
    """Every closed window's wire record plus the ``service.*`` counters."""
    return {
        "scenario": "fixture-sfu seed=1234 (3-party SFU, 25s), 5s windows, 2s lateness",
        "windows": [window.to_dict() for window in windows],
        "service_counters": rolling.result.telemetry_snapshot().counters_under(
            "service."
        ),
    }


def compute_service_windows_summary() -> dict[str, Any]:
    """The service-window snapshot over the shared SFU fixture trace."""
    return summarize_service_windows(
        *run_service_windows(simulated(sfu_meeting_config()).captures)
    )


def load_snapshot(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def write_snapshot(path: Path, summary: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
