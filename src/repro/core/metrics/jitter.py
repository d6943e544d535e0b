"""Frame-level jitter per the RTP RFC's estimator (§5.4, Figure 12).

Naive packet interarrival variance is useless on RTP conferencing traffic:
packets of a frame arrive back-to-back in bursts, and Zoom's packetization
interval itself varies.  The paper therefore computes jitter at *frame*
granularity with RFC 3550 §6.4.1's transit-difference estimator:

    D(i-1, i) = (R_i − R_{i-1}) − (S_i − S_{i-1})
    J_i       = J_{i-1} + (|D(i-1, i)| − J_{i-1}) / 16

where R is the arrival of a frame's first packet (wall clock) and S is the
frame's RTP timestamp.  ``S`` is converted to seconds via the sampling rate,
correcting for Zoom's variable packetization intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.streams import RTPPacketRecord
from repro.zoom.constants import VIDEO_SAMPLING_RATE, RTPPayloadType

RTP_TIMESTAMP_MODULUS = 1 << 32


@dataclass(frozen=True, slots=True)
class JitterSample:
    """One jitter observation.

    Attributes:
        time: Arrival of the frame that produced the observation.
        jitter: Smoothed RFC 3550 jitter, in seconds of wall-clock time.
        transit_difference: The raw |D| for this frame pair, in seconds.
    """

    time: float
    jitter: float
    transit_difference: float


class FrameJitterEstimator:
    """RFC 3550 jitter at frame granularity for one stream.

    Feed *every* packet of the stream; the estimator keys on the first
    packet of each new RTP timestamp on the main substream (FEC packets and
    retransmitted duplicates are ignored).  Jitter can be read in wall-clock
    seconds (default) or RTP units via ``jitter_rtp_units``.
    """

    def __init__(
        self,
        sampling_rate: int = VIDEO_SAMPLING_RATE,
        *,
        fec_payload_type: int = int(RTPPayloadType.FEC),
    ) -> None:
        if sampling_rate <= 0:
            raise ValueError("sampling rate must be positive")
        self.sampling_rate = sampling_rate
        self._fec_payload_type = fec_payload_type
        self._last_arrival: float | None = None
        self._last_timestamp: int | None = None
        self._jitter = 0.0
        self.samples: list[JitterSample] = []

    @property
    def jitter(self) -> float:
        """Current smoothed jitter in seconds."""
        return self._jitter

    @property
    def jitter_rtp_units(self) -> float:
        """Current smoothed jitter in RTP timestamp units (RFC 3550 form)."""
        return self._jitter * self.sampling_rate

    def observe(self, record: RTPPacketRecord) -> JitterSample | None:
        """Fold in one packet; returns a sample when a new frame arrived."""
        if record.payload_type == self._fec_payload_type:
            return None
        timestamp = record.rtp_timestamp
        if timestamp == self._last_timestamp:
            # Later packet of the current frame.  Anything older — a
            # retransmit or a late first packet — fails the increment check.
            return None
        if self._last_arrival is None or self._last_timestamp is None:
            self._last_arrival = record.timestamp
            self._last_timestamp = timestamp
            return None
        increment = (timestamp - self._last_timestamp) % RTP_TIMESTAMP_MODULUS
        if increment >= RTP_TIMESTAMP_MODULUS // 2:
            # Out-of-order frame (e.g. late retransmit of an old frame's
            # first packet): not a valid consecutive-frame pair.
            return None
        media_gap = increment / self.sampling_rate
        arrival_gap = record.timestamp - self._last_arrival
        difference = abs(arrival_gap - media_gap)
        self._jitter += (difference - self._jitter) / 16.0
        self._last_arrival = record.timestamp
        self._last_timestamp = timestamp
        sample = JitterSample(
            time=record.timestamp, jitter=self._jitter, transit_difference=difference
        )
        self.samples.append(sample)
        return sample


class NaiveInterarrivalJitter:
    """The *wrong* estimator the paper warns against (§5.4): raw packet
    interarrival deviation without frame grouping or packetization-time
    correction.  Kept for the ablation benchmark that shows why it fails on
    bursty RTP traffic.
    """

    def __init__(self) -> None:
        self._last_arrival: float | None = None
        self._last_gap: float | None = None
        self._jitter = 0.0
        self.samples: list[JitterSample] = []

    @property
    def jitter(self) -> float:
        return self._jitter

    def observe(self, record: RTPPacketRecord) -> JitterSample | None:
        if self._last_arrival is None:
            self._last_arrival = record.timestamp
            return None
        gap = record.timestamp - self._last_arrival
        self._last_arrival = record.timestamp
        if self._last_gap is None:
            self._last_gap = gap
            return None
        difference = abs(gap - self._last_gap)
        self._last_gap = gap
        self._jitter += (difference - self._jitter) / 16.0
        sample = JitterSample(
            time=record.timestamp, jitter=self._jitter, transit_difference=difference
        )
        self.samples.append(sample)
        return sample
