"""Exact frame-size measurement (§5.2).

Knowing which packets belong to a frame, how many are expected, and where
the RTP payload starts lets the analyzer compute frame sizes in bytes
exactly — something flow-level bit rates cannot do.  Together with frame
rate this gives a far better picture-quality proxy than throughput.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

from repro.core.metrics.frames import CompletedFrame


@dataclass(frozen=True, slots=True)
class FrameSizeSample:
    """One frame-size observation (completion time, bytes)."""

    time: float
    size: int
    is_probable_keyframe: bool


class FrameSizeCollector:
    """Collects frame sizes and summary statistics for one stream.

    Keyframes are flagged heuristically: a frame more than ``keyframe_factor``
    times the running median is probably intra-coded (the paper's §6.2
    discussion of screen-share "initial frames / changing slides").
    """

    def __init__(self, keyframe_factor: float = 2.5) -> None:
        self.keyframe_factor = keyframe_factor
        self.samples: list[FrameSizeSample] = []
        # The trailing 256 frame sizes twice: in arrival order (what leaves
        # the window next) and sorted (where the median is a read).
        self._running: deque[int] = deque()
        self._ordered: list[int] = []

    def observe(self, frame: CompletedFrame) -> FrameSizeSample:
        """Fold in one completed frame."""
        median = self._median()
        is_key = median is not None and frame.payload_bytes > self.keyframe_factor * median
        sample = FrameSizeSample(
            time=frame.completed_time,
            size=frame.payload_bytes,
            is_probable_keyframe=bool(is_key),
        )
        self.samples.append(sample)
        self._running.append(frame.payload_bytes)
        insort(self._ordered, frame.payload_bytes)
        if len(self._running) > 256:
            del self._ordered[bisect_left(self._ordered, self._running.popleft())]
        return sample

    def _median(self) -> float | None:
        ordered = self._ordered
        if len(ordered) < 8:
            return None
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return float(ordered[middle])
        return (ordered[middle - 1] + ordered[middle]) / 2.0

    def sizes(self) -> list[int]:
        return [sample.size for sample in self.samples]

    def summary(self) -> dict[str, float]:
        """Mean / median / p90 / max frame size, NaN when empty."""
        sizes = sorted(self.sizes())
        if not sizes:
            nan = math.nan
            return {"mean": nan, "median": nan, "p90": nan, "max": nan, "count": 0}
        return {
            "mean": sum(sizes) / len(sizes),
            "median": float(sizes[len(sizes) // 2]),
            "p90": float(sizes[min(len(sizes) - 1, int(0.9 * len(sizes)))]),
            "max": float(sizes[-1]),
            "count": float(len(sizes)),
        }
