"""Per-meeting report cards: the operator-facing output of the pipeline.

Combines every estimator's output into one structured report per inferred
meeting — streams, rates, frame statistics, latency, jitter, retransmissions,
stalls — and applies the paper's §6.2 "Causes of Low Performance Metrics"
reasoning: a low frame rate co-occurring with high jitter or retransmissions
is *network-caused*; a low frame rate on a quiet network is *content/user-
caused* (thumbnail mode, static screen share), and no action is needed.
This is exactly the judgement the paper argues single metrics cannot make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.tables import format_table
from repro.core.meetings import Meeting
from repro.core.pipeline import AnalysisResult
from repro.net.ip import ip_to_str
from repro.zoom.constants import ZoomMediaType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import StreamMetrics
    from repro.core.streams import MediaStream

JITTER_NETWORK_THRESHOLD = 0.020
"""Jitter above Zoom's recommended 40 ms is clearly bad; 20 ms is where the
paper starts attributing effects to the network (§6.2)."""

LOW_VIDEO_FPS = 20.0
"""Below the ~28 fps normal mode and above the ~14 fps thumbnail cluster."""


@dataclass(frozen=True, slots=True)
class StreamReport:
    """Aggregated view of one unique media stream within a meeting."""

    ssrc: int
    media_type: int
    copies: int
    packets: int
    mean_fps: float
    median_frame_bytes: float
    jitter_ms: float
    duplicates: int
    reordered: int
    lost: int
    stalls: int
    mean_rtt_ms: float

    @property
    def media_name(self) -> str:
        try:
            return ZoomMediaType(self.media_type).name
        except ValueError:
            return str(self.media_type)


@dataclass(frozen=True, slots=True)
class Diagnosis:
    """One §6.2-style judgement about a stream."""

    ssrc: int
    severity: str  # "info" | "warning"
    cause: str  # "network" | "content"
    message: str


@dataclass
class MeetingReport:
    """The report card of one inferred meeting."""

    meeting_id: int
    duration: float
    participant_estimate: int
    client_ips: tuple[str, ...]
    streams: list[StreamReport] = field(default_factory=list)
    diagnoses: list[Diagnosis] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"Meeting {self.meeting_id}: ~{self.participant_estimate} participants, "
            f"{self.duration:.1f}s, clients: {', '.join(self.client_ips) or '(none)'}"
        ]
        rows = [
            (
                f"{s.ssrc:#x}",
                s.media_name,
                s.copies,
                s.packets,
                s.mean_fps,
                s.median_frame_bytes,
                s.jitter_ms,
                s.duplicates,
                s.lost,
                s.stalls,
                s.mean_rtt_ms,
            )
            for s in self.streams
        ]
        lines.append(
            format_table(
                ["ssrc", "media", "copies", "pkts", "fps", "frame B",
                 "jitter ms", "dups", "lost", "stalls", "rtt ms"],
                rows,
            )
        )
        if self.diagnoses:
            lines.append("findings:")
            for diagnosis in self.diagnoses:
                lines.append(
                    f"  [{diagnosis.severity}] {diagnosis.ssrc:#x} "
                    f"({diagnosis.cause}): {diagnosis.message}"
                )
        else:
            lines.append("findings: none — meeting looks healthy")
        return "\n".join(lines)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def build_stream_report(
    pairs: list[tuple["MediaStream", "StreamMetrics | None"]],
    rtts_ms: list[float],
) -> StreamReport:
    """Aggregate the copies of one unique stream into a :class:`StreamReport`.

    ``pairs`` holds every (stream copy, its metrics) carrying the same uid —
    the caller decides where those come from: the live tables for the batch
    path, eviction events for the streaming path.
    """
    streams = [stream for stream, _ in pairs]
    ssrc = streams[0].ssrc
    media_type = streams[0].media_type
    fps_values: list[float] = []
    sizes: list[float] = []
    jitters: list[float] = []
    duplicates = reordered = lost = stalls = 0
    packets = 0
    for stream, metrics in pairs:
        packets += stream.packets
        if metrics is None:
            continue
        fps_values.extend(sample.fps for sample in metrics.framerate_delivered.samples)
        sizes.extend(float(size) for size in metrics.framesize.sizes())
        if metrics.jitter.samples:
            jitters.append(metrics.jitter.jitter * 1000)
        report = metrics.loss.report()
        duplicates += report.duplicates
        reordered += report.reordered
        lost += report.lost
        stalls += metrics.stall_count
    ordered_sizes = sorted(sizes)
    return StreamReport(
        ssrc=ssrc,
        media_type=media_type,
        copies=len(streams),
        packets=packets,
        mean_fps=_mean(fps_values),
        median_frame_bytes=(
            ordered_sizes[len(ordered_sizes) // 2] if ordered_sizes else math.nan
        ),
        jitter_ms=max(jitters) if jitters else math.nan,
        duplicates=duplicates,
        reordered=reordered,
        lost=lost,
        stalls=stalls,
        mean_rtt_ms=_mean(rtts_ms),
    )


def _stream_report(result: AnalysisResult, meeting: Meeting, uid: int) -> StreamReport:
    keys = [key for key in meeting.stream_keys if result.grouper.uid_of(key) == uid]
    pairs = [
        (stream, result.metrics_for(key))
        for key in keys
        if (stream := result.streams.get(key)) is not None
    ]
    ssrc = pairs[0][0].ssrc
    rtts = [sample.rtt * 1000 for sample in result.rtp_latency.samples_for(ssrc)]
    return build_stream_report(pairs, rtts)


def _diagnose(stream: StreamReport) -> list[Diagnosis]:
    """Apply the §6.2 causes-of-low-performance reasoning to one stream."""
    diagnoses: list[Diagnosis] = []
    network_suspect = (
        (stream.jitter_ms == stream.jitter_ms and stream.jitter_ms > JITTER_NETWORK_THRESHOLD * 1000)
        or stream.stalls > 0
        or stream.lost > 0
        or stream.duplicates > stream.packets * 0.01
    )
    low_fps = (
        stream.media_type == int(ZoomMediaType.VIDEO)
        and stream.mean_fps == stream.mean_fps
        and stream.mean_fps < LOW_VIDEO_FPS
    )
    if low_fps and network_suspect:
        diagnoses.append(
            Diagnosis(
                ssrc=stream.ssrc,
                severity="warning",
                cause="network",
                message=(
                    f"video at {stream.mean_fps:.1f} fps with jitter "
                    f"{stream.jitter_ms:.1f} ms, {stream.duplicates} retransmits, "
                    f"{stream.stalls} stall(s): network-driven degradation"
                ),
            )
        )
    elif low_fps:
        diagnoses.append(
            Diagnosis(
                ssrc=stream.ssrc,
                severity="info",
                cause="content",
                message=(
                    f"video at {stream.mean_fps:.1f} fps on a quiet network: "
                    "likely thumbnail mode or static content, no action needed"
                ),
            )
        )
    if stream.stalls > 0 and not low_fps:
        diagnoses.append(
            Diagnosis(
                ssrc=stream.ssrc,
                severity="warning",
                cause="network",
                message=f"{stream.stalls} predicted playback stall(s)",
            )
        )
    return diagnoses


def meeting_report(result: AnalysisResult, meeting: Meeting) -> MeetingReport:
    """Build the report card for one meeting."""
    report = MeetingReport(
        meeting_id=meeting.meeting_id,
        duration=meeting.duration,
        participant_estimate=meeting.participant_estimate(),
        client_ips=tuple(sorted(ip_to_str(ip) for ip in meeting.client_ips)),
    )
    for uid in sorted(meeting.stream_uids):
        stream = _stream_report(result, meeting, uid)
        report.streams.append(stream)
        report.diagnoses.extend(_diagnose(stream))
    report.streams.sort(key=lambda s: (s.media_type, s.ssrc))
    return report


def full_report(result: AnalysisResult) -> str:
    """Report cards for every meeting in one analysis, rendered as text."""
    sections = [
        meeting_report(result, meeting).render() for meeting in result.meetings
    ]
    if not sections:
        return "(no meetings found)"
    return ("\n" + "=" * 72 + "\n").join(sections)
