"""RTCP-based wall-clock mapping and inter-stream synchronization.

Zoom's RTCP sender reports exist to "periodically synchronize wall-clock
time with RTP timestamps by carrying an NTP timestamp ... so that different
streams from the same source (e.g., audio and video) are synchronized"
(§4.2.3).  This module does from the monitor what the receiver does
internally: fit the RTP→NTP mapping per stream from the observed sender
reports, then measure how far apart two streams of one participant are in
media time — an audio/video lip-sync skew estimator, one of the deeper
analyses the paper leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtp.rtcp import RTCPSenderReport

RTP_TIMESTAMP_MODULUS = 1 << 32


@dataclass(frozen=True, slots=True)
class ClockMapping:
    """A fitted linear mapping from RTP timestamp to wall-clock seconds.

    Attributes:
        ssrc: Stream the mapping belongs to.
        rate: Estimated RTP ticks per second (the stream's sampling rate).
        reference_rtp / reference_wall: One anchor point of the line.
        reports: Number of sender reports the fit used.
    """

    ssrc: int
    rate: float
    reference_rtp: int
    reference_wall: float
    reports: int

    def wall_time_of(self, rtp_timestamp: int) -> float:
        """Map an RTP timestamp to sender wall-clock seconds (Unix)."""
        delta = (rtp_timestamp - self.reference_rtp) % RTP_TIMESTAMP_MODULUS
        if delta >= RTP_TIMESTAMP_MODULUS // 2:
            delta -= RTP_TIMESTAMP_MODULUS
        return self.reference_wall + delta / self.rate


@dataclass
class SenderReportCollector:
    """Accumulates RTCP sender reports and fits per-stream clock mappings.

    The demux stage's RTCP accounting
    (:func:`repro.protocols.base.observe_rtcp`) feeds it every
    :class:`RTCPSenderReport` the analyzer decodes; call
    :meth:`mapping` to get a stream's fitted :class:`ClockMapping`, or
    :meth:`skew` to compare two streams of the same sender.
    """

    _observations: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    max_reports_per_stream: int = 512

    def observe(self, report: RTCPSenderReport) -> None:
        """Record one sender report's (RTP timestamp, NTP wall time) pair."""
        entries = self._observations.setdefault(report.ssrc, [])
        entries.append((report.rtp_timestamp, report.ntp_unix_time))
        if len(entries) > self.max_reports_per_stream:
            del entries[0]

    def ssrcs(self) -> list[int]:
        return sorted(self._observations)

    def report_count(self, ssrc: int) -> int:
        return len(self._observations.get(ssrc, ()))

    def mapping(self, ssrc: int) -> ClockMapping | None:
        """Fit the RTP→wall mapping for one stream.

        Needs at least two reports.  The rate is the least-squares slope of
        RTP ticks over NTP seconds (unwrapped); with Zoom's once-per-second
        SR cadence a minute of trace gives a very stable estimate.
        """
        entries = self._observations.get(ssrc)
        if not entries or len(entries) < 2:
            return None
        # Unwrap RTP timestamps relative to the first report.
        base_rtp, base_wall = entries[0]
        xs: list[float] = []  # wall seconds since first report
        ys: list[float] = []  # unwrapped RTP ticks since first report
        unwrapped = 0
        previous = base_rtp
        for rtp, wall in entries:
            step = (rtp - previous) % RTP_TIMESTAMP_MODULUS
            if step >= RTP_TIMESTAMP_MODULUS // 2:
                step -= RTP_TIMESTAMP_MODULUS
            unwrapped += step
            previous = rtp
            xs.append(wall - base_wall)
            ys.append(float(unwrapped))
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        var_x = sum((x - mean_x) ** 2 for x in xs)
        if var_x <= 0:
            return None
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
        if slope <= 0:
            return None
        return ClockMapping(
            ssrc=ssrc,
            rate=slope,
            reference_rtp=base_rtp,
            reference_wall=base_wall,
            reports=n,
        )

    def nominal_rate(self, ssrc: int, candidates=(8_000, 16_000, 48_000, 90_000)) -> int | None:
        """Snap the fitted rate to the nearest standard RTP clock."""
        mapping = self.mapping(ssrc)
        if mapping is None:
            return None
        return min(candidates, key=lambda rate: abs(rate - mapping.rate))

    def skew(
        self, ssrc_a: int, rtp_a: int, ssrc_b: int, rtp_b: int
    ) -> float | None:
        """Media-time skew between two streams of one sender.

        Given simultaneous RTP timestamps ``rtp_a``/``rtp_b`` observed on
        streams A and B (e.g. the audio and video of one participant at the
        same capture instant), returns ``wall_A − wall_B`` in seconds: how
        much earlier stream A's current media was sampled.  Values near zero
        mean the streams are in sync (lip sync holds).
        """
        mapping_a = self.mapping(ssrc_a)
        mapping_b = self.mapping(ssrc_b)
        if mapping_a is None or mapping_b is None:
            return None
        return mapping_a.wall_time_of(rtp_a) - mapping_b.wall_time_of(rtp_b)

    def merge_from(self, other: "SenderReportCollector") -> None:
        """Fold another collector's observations into this one, keeping each
        stream's reports in wall-clock order (sharded-result merge)."""
        for ssrc, entries in other._observations.items():
            mine = self._observations.setdefault(ssrc, [])
            mine.extend(entries)
            mine.sort(key=lambda entry: entry[1])
            if len(mine) > self.max_reports_per_stream:
                del mine[: len(mine) - self.max_reports_per_stream]
