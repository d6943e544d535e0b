"""Frame-rate estimation, both methods of §5.2.

**Method 1 — delivered rate.**  Keep the frames *completely delivered*
within the trailing one second in a circular buffer; the buffer occupancy is
the current frame rate.  This measures what actually crossed the network.

**Method 2 — encoder rate.**  The RTP timestamp increment between
consecutive frames, divided into the stream's sampling rate (90 kHz for
Zoom video), is the rate the *encoder* is currently producing.  Under
congestion the two diverge until the encoder adapts, which the paper uses as
a network-problem indicator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.metrics.frames import CompletedFrame
from repro.zoom.constants import VIDEO_SAMPLING_RATE

RTP_TIMESTAMP_MODULUS = 1 << 32


@dataclass(frozen=True, slots=True)
class FrameRateSample:
    """One frame-rate observation.

    Attributes:
        time: When the observation was made (completion of a frame).
        fps: The estimated frame rate.
    """

    time: float
    fps: float


class FrameRateMethod1:
    """Delivered frame rate via a one-second circular buffer of completions.

    Feed every :class:`CompletedFrame`; read the current rate at any time
    with :meth:`rate_at`, or collect the per-completion sample series.
    """

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._completions: deque[float] = deque()
        self.samples: list[FrameRateSample] = []
        #: Running ``sum(sample.fps)`` in sample order, so the mean over a
        #: stream's lifetime is a read, not a pass over ``samples``.
        self.fps_total = 0.0

    def observe(self, frame: CompletedFrame) -> FrameRateSample:
        """Fold in one completed frame; returns the updated rate sample."""
        now = frame.completed_time
        self._completions.append(now)
        self._expire(now)
        sample = FrameRateSample(time=now, fps=len(self._completions) / self.window)
        self.samples.append(sample)
        self.fps_total += sample.fps
        return sample

    @property
    def mean_fps(self) -> float:
        """Mean of every sample so far (NaN before the first frame)."""
        return self.fps_total / len(self.samples) if self.samples else float("nan")

    def rate_at(self, now: float) -> float:
        """The delivered frame rate at an arbitrary instant."""
        self._expire(now)
        return len(self._completions) / self.window

    def _expire(self, now: float) -> None:
        while self._completions and self._completions[0] < now - self.window:
            self._completions.popleft()


class FrameRateMethod2:
    """Encoder frame rate from RTP-timestamp increments.

    ``fps = sampling_rate / ΔRTP`` between consecutive frames; the
    packetization time is its reciprocal (§5.2).  Frames must be fed in
    media order (frame completion order is fine for Zoom streams because
    retransmission preserves frame ordering at completion granularity).
    """

    def __init__(self, sampling_rate: int = VIDEO_SAMPLING_RATE) -> None:
        if sampling_rate <= 0:
            raise ValueError("sampling rate must be positive")
        self.sampling_rate = sampling_rate
        self._last_timestamp: int | None = None
        self.samples: list[FrameRateSample] = []

    def observe(self, frame: CompletedFrame) -> FrameRateSample | None:
        """Fold in one frame; returns an encoder-rate sample from the second
        frame onward."""
        timestamp = frame.rtp_timestamp
        if self._last_timestamp is None:
            self._last_timestamp = timestamp
            return None
        increment = (timestamp - self._last_timestamp) % RTP_TIMESTAMP_MODULUS
        self._last_timestamp = timestamp
        if increment == 0 or increment >= RTP_TIMESTAMP_MODULUS // 2:
            # Duplicate or out-of-order frame timestamp; not a rate sample.
            return None
        sample = FrameRateSample(
            time=frame.completed_time, fps=self.sampling_rate / increment
        )
        self.samples.append(sample)
        return sample

    def packetization_time(self) -> float | None:
        """The most recent packetization interval in seconds (1/fps)."""
        if not self.samples:
            return None
        return 1.0 / self.samples[-1].fps


def infer_sampling_rate(
    rtp_increments: list[int],
    frame_intervals: list[float],
    candidates: tuple[int, ...] = (8_000, 16_000, 48_000, 90_000),
) -> int | None:
    """The parameter sweep the paper used to find Zoom's 90 kHz video clock.

    Given matched lists of RTP-timestamp increments and wall-clock frame
    intervals, pick the candidate rate whose implied intervals best match
    the observed ones (§5.2, Method 2).
    """
    if len(rtp_increments) != len(frame_intervals) or not rtp_increments:
        return None
    best_rate: int | None = None
    best_error = float("inf")
    for rate in candidates:
        error = 0.0
        for increment, interval in zip(rtp_increments, frame_intervals):
            if interval <= 0:
                continue
            error += abs(increment / rate - interval)
        if error < best_error:
            best_error = error
            best_rate = rate
    return best_rate
