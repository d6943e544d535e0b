"""Prometheus text-exposition rendering (no client library required).

The exposition format (version 0.0.4, what every Prometheus server scrapes)
is plain text — ``# TYPE`` lines followed by ``name{labels} value`` samples
— so rendering it from a telemetry snapshot plus the latest closed window
needs nothing beyond string formatting.  Keeping the renderer free of I/O
also makes it directly unit-testable; the HTTP plumbing lives in
:mod:`repro.service.exporters`.

Naming follows the Prometheus conventions: every metric is prefixed
``repro_``, dotted telemetry counters become underscored ``_total``
counters (``capture.frames`` → ``repro_capture_frames_total``), and
point-in-time values (live streams, open windows, last-window rates) are
gauges.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from repro.service.windows import WindowRecord, media_name
from repro.telemetry.registry import TelemetrySnapshot

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(dotted: str, *, suffix: str = "") -> str:
    """``capture.frames`` → ``repro_capture_frames<suffix>``."""
    return "repro_" + _NAME_SANITIZE.sub("_", dotted) + suffix


def _sample(name: str, value: float, labels: Mapping[str, str] | None = None) -> str:
    if labels:
        rendered = ",".join(f'{key}="{val}"' for key, val in sorted(labels.items()))
        name = f"{name}{{{rendered}}}"
    if isinstance(value, float):
        if math.isnan(value):
            value_text = "NaN"
        elif value == int(value) and abs(value) < 1e15:
            value_text = str(int(value))
        else:
            value_text = repr(value)
    else:
        value_text = str(value)
    return f"{name} {value_text}"


def render_metrics(
    snapshot: TelemetrySnapshot,
    *,
    last_window: WindowRecord | None = None,
    gauges: Mapping[str, float] | None = None,
) -> str:
    """The full ``/metrics`` page body.

    Args:
        snapshot: Telemetry registry snapshot; every counter is exported.
        last_window: Most recently closed window; exported as per-media
            ``repro_window_*`` gauges labelled ``{media="audio"|...}``.
        gauges: Extra point-in-time values by dotted name (open windows,
            live streams, …).
    """
    lines: list[str] = []
    for dotted in sorted(snapshot.counters):
        name = metric_name(dotted, suffix="_total")
        lines.append(f"# TYPE {name} counter")
        lines.append(_sample(name, snapshot.counters[dotted]))
    for dotted in sorted(gauges or {}):
        name = metric_name(dotted)
        lines.append(f"# TYPE {name} gauge")
        lines.append(_sample(name, (gauges or {})[dotted]))
    if last_window is not None:
        lines.extend(_window_lines(last_window))
    return "\n".join(lines) + "\n"


def _window_lines(window: WindowRecord) -> list[str]:
    lines = [
        "# TYPE repro_window_start_seconds gauge",
        _sample("repro_window_start_seconds", window.start),
        "# TYPE repro_window_packets gauge",
        _sample("repro_window_packets", window.packets_total),
        "# TYPE repro_window_zoom_packets gauge",
        _sample("repro_window_zoom_packets", window.zoom_packets),
        "# TYPE repro_window_meetings_active gauge",
        _sample("repro_window_meetings_active", window.meetings_active),
    ]
    per_media = [
        ("repro_window_media_bitrate_bps", lambda s: s.bitrate_bps(window.width)),
        ("repro_window_media_packets", lambda s: float(s.packets)),
        ("repro_window_media_streams", lambda s: float(len(s.stream_keys))),
        ("repro_window_media_fps", lambda s: s.mean_fps),
        ("repro_window_media_jitter_ms", lambda s: s.mean_jitter_ms),
        ("repro_window_media_lost", lambda s: float(s.lost)),
    ]
    for name, getter in per_media:
        lines.append(f"# TYPE {name} gauge")
        for media_type in sorted(window.media):
            stats = window.media[media_type]
            value = getter(stats)
            if isinstance(value, float) and math.isnan(value):
                continue  # absent beats NaN for a dashboard query
            lines.append(
                _sample(name, value, {"media": media_name(media_type)})
            )
    return lines
