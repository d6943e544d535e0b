"""Feature-matrix export for ML-based QoE inference (§8).

The paper's discussion proposes using its fine-grained metrics "as features
in a QoE ML inference model" and notes the system "can help automatically
generate large, feature-rich data sets from real-world traffic".  This
module is that generator: one feature row per (stream, second) with every §5
metric, written as CSV or returned as dictionaries for direct consumption.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from repro.core.pipeline import AnalysisResult
from repro.net.ip import ip_to_str

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics.binning import TimeBinner
    from repro.core.pipeline import StreamMetrics
    from repro.core.streams import MediaStream

FEATURE_COLUMNS = (
    "stream_id",
    "ssrc",
    "media_type",
    "second",
    "media_kbits",
    "flow_kbits",
    "packets",
    "frames_completed",
    "delivered_fps",
    "encoder_fps",
    "mean_frame_bytes",
    "max_frame_bytes",
    "jitter_ms",
    "mean_frame_delay_ms",
    "max_frame_delay_ms",
    "rtt_ms",
    "duplicates",
    "suspected_retransmissions",
)

LatencyIndex = dict[tuple[int, int], list[float]]
"""(ssrc, second) → RTT samples in ms, shared across a stream's copies."""


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def latency_index(result: AnalysisResult) -> LatencyIndex:
    """Index Method-1 RTT samples by (ssrc, second).

    Latency samples are attributed by SSRC (they come from matching egress
    and ingress copies, so they describe the media stream rather than a
    single flow).
    """
    index: LatencyIndex = defaultdict(list)
    for sample in result.rtp_latency.samples:
        index[(sample.ssrc, int(sample.time))].append(sample.rtt * 1000)
    return index


def stream_id(stream: "MediaStream") -> str:
    """``src:port-dst:port-ssrc`` — a stream's flow key rendered as text."""
    src, src_port, dst, dst_port, _proto = stream.five_tuple
    return f"{ip_to_str(src)}:{src_port}-{ip_to_str(dst)}:{dst_port}-{stream.ssrc:#x}"


def stream_feature_rows(
    stream: "MediaStream",
    metrics: "StreamMetrics",
    stream_binner: "TimeBinner | None",
    flow_binner: "TimeBinner | None",
    rtt_index: LatencyIndex,
) -> list[dict[str, object]]:
    """The feature rows of one stream, given its metric sources."""
    per_second: dict[int, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    if stream_binner is not None:
        for when, total in stream_binner.sums(fill_gaps=False):
            per_second[int(when)]["media_bytes"].append(total)
    if flow_binner is not None:
        for when, total in flow_binner.sums(fill_gaps=False):
            per_second[int(when)]["flow_bytes"].append(total)
    for sample in metrics.framerate_delivered.samples:
        per_second[int(sample.time)]["delivered_fps"].append(sample.fps)
    for sample in metrics.framerate_encoder.samples:
        per_second[int(sample.time)]["encoder_fps"].append(sample.fps)
    for sample in metrics.framesize.samples:
        per_second[int(sample.time)]["frame_bytes"].append(float(sample.size))
    for sample in metrics.jitter.samples:
        per_second[int(sample.time)]["jitter_ms"].append(sample.jitter * 1000)
    for sample in metrics.frame_delay.samples:
        bucket = per_second[int(sample.time)]
        bucket["frame_delay_ms"].append(sample.delay * 1000)
        if sample.retransmission_suspected:
            bucket["suspected_retx"].append(1.0)
    report = metrics.loss.report()
    identity = stream_id(stream)
    rows: list[dict[str, object]] = []
    for second in sorted(per_second):
        bucket = per_second[second]
        frame_bytes = bucket.get("frame_bytes", [])
        rtts = rtt_index.get((stream.ssrc, second), [])
        rows.append(
            {
                "stream_id": identity,
                "ssrc": stream.ssrc,
                "media_type": stream.media_type,
                "second": second,
                "media_kbits": 8.0 * sum(bucket.get("media_bytes", [])) / 1000,
                "flow_kbits": 8.0 * sum(bucket.get("flow_bytes", [])) / 1000,
                "packets": len(bucket.get("jitter_ms", []))
                + len(bucket.get("media_bytes", [])),
                "frames_completed": len(frame_bytes),
                "delivered_fps": _mean(bucket.get("delivered_fps", [])),
                "encoder_fps": _mean(bucket.get("encoder_fps", [])),
                "mean_frame_bytes": _mean(frame_bytes),
                "max_frame_bytes": max(frame_bytes) if frame_bytes else math.nan,
                "jitter_ms": _mean(bucket.get("jitter_ms", [])),
                "mean_frame_delay_ms": _mean(bucket.get("frame_delay_ms", [])),
                "max_frame_delay_ms": max(bucket.get("frame_delay_ms", []), default=math.nan),
                "rtt_ms": _mean(rtts),
                "duplicates": report.duplicates,
                "suspected_retransmissions": int(sum(bucket.get("suspected_retx", []))),
            }
        )
    return rows


def feature_rows(result: AnalysisResult) -> list[dict[str, object]]:
    """Build the per-(stream, second) feature matrix from one analysis."""
    rtt_index = latency_index(result)
    rows: list[dict[str, object]] = []
    for stream in result.media_streams():
        metrics = result.metrics_for(stream.key)
        if metrics is None:
            continue
        rows.extend(
            stream_feature_rows(
                stream,
                metrics,
                result.bitrate.stream_bins.get((stream.five_tuple, stream.ssrc)),
                result.bitrate.flow_bins.get(stream.five_tuple),
                rtt_index,
            )
        )
    rows.sort(key=lambda row: (row["stream_id"], row["second"]))
    return rows


def write_feature_csv(result: AnalysisResult, destination: str | Path | TextIO) -> int:
    """Write the feature matrix as CSV; returns the number of rows.

    NaNs are written as empty cells, which pandas and friends read back as
    missing values.
    """
    rows = feature_rows(result)
    if hasattr(destination, "write"):
        handle: TextIO = destination  # type: ignore[assignment]
        owns = False
    else:
        handle = open(destination, "w", newline="")
        owns = True
    try:
        writer = csv.DictWriter(handle, fieldnames=FEATURE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    key: ("" if isinstance(value, float) and math.isnan(value) else value)
                    for key, value in row.items()
                }
            )
    finally:
        if owns:
            handle.close()
    return len(rows)


def feature_csv_string(result: AnalysisResult) -> str:
    """The feature matrix as a CSV string (for quick inspection/tests)."""
    buffer = io.StringIO()
    write_feature_csv(result, buffer)
    return buffer.getvalue()
