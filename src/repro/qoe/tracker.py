"""Scores meeting QoE windows and drives the per-meeting state machines.

:class:`MeetingQoeTracker` joins the analyzer's ``record_hooks`` and
``eviction_hooks``, folds every decoded media packet into tumbling
capture-time windows, and at each window close feeds one
:class:`~repro.qoe.machine.QoeSample` per meeting to that meeting's
:class:`~repro.qoe.machine.QoeStateMachine`.  Transitions come back out as
``qoe.*`` telemetry counters and on :attr:`transitions` for tests and
report layers.

Signal definitions (all monitor-visible, §5 of the paper):

* **Loss** — window-local *gap events*: per substream (payload type), a
  newer sequence number that skips ``d`` values records ``d`` losses, and a
  later backward-sequence arrival counts as a recovery but never decrements.
  Zoom's retransmit repair keeps cumulative ``lost`` counters near zero even
  under heavy path loss (the gap is filled within ~100-300 ms), so the
  cumulative counter is blind exactly when users hurt; gap events are the
  recovery-visible signal.  Gaps wider than :data:`GAP_CAP` are treated as
  sender discontinuities, not loss.
* **Jitter** — the RFC 3550 interarrival estimator per substream, using the
  media clock for the stream's media type; a window reports the peak
  estimate any of its packets reached.
* **Frame rate** — distinct Zoom frame-sequence values per window for video
  streams, as a ratio over a per-stream EWMA baseline.  The baseline learns
  only while the meeting's machine is GOOD and only from windows delivering
  at least ``fps_min_baseline`` fps, so degraded windows, join/leave partial
  windows, and inherently slow screen-share streams never contaminate it.

Windowing is the same watermark clock the service layer uses
(:class:`~repro.core.windows.TumblingWindows`): windows close once the
maximum capture timestamp passes ``window end + lateness``, strictly in
index order, and packets whose window is already behind the watermark are
counted (``qoe.late_packets``) and dropped.  Because every path — one pass,
rolling eviction, the live service — feeds the same ``feed_batch`` and so
hands the tracker the identical record stream, all of them produce the
identical transition sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import QoeConfig
from repro.core.streams import RTPPacketRecord, StreamKey
from repro.core.windows import TumblingWindows
from repro.qoe.machine import QoeSample, QoeState, QoeStateMachine, QoeTransition
from repro.zoom.constants import (
    AUDIO_SAMPLING_RATE,
    VIDEO_SAMPLING_RATE,
    ZoomMediaType,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import ZoomAnalyzer
    from repro.core.rolling import FinalizedStream
    from repro.telemetry.registry import Telemetry

#: Sequence gaps wider than this are discontinuities, not countable loss.
GAP_CAP = 64

#: Counters the tracker records; the service exporter pre-seeds these.
QOE_COUNTER_SEEDS = (
    "qoe.windows",
    "qoe.transitions",
    "qoe.alerts",
    "qoe.late_packets",
    "qoe.transitions_to.good",
    "qoe.transitions_to.degraded",
    "qoe.transitions_to.impaired",
    "qoe.transitions_to.critical",
)


class _SubStreamSeqState:
    """Per-(stream, payload type) sequence and jitter tracking."""

    __slots__ = ("highest", "jitter", "_last_transit")

    def __init__(self) -> None:
        self.highest: int | None = None
        self.jitter = 0.0
        self._last_transit: float | None = None

    def observe_jitter(self, record: RTPPacketRecord, clock_rate: int) -> float:
        """Fold one packet into the RFC 3550 estimator; returns the estimate."""
        transit = record.timestamp - record.rtp_timestamp / clock_rate
        if self._last_transit is not None:
            d = abs(transit - self._last_transit)
            self.jitter += (d - self.jitter) / 16.0
        self._last_transit = transit
        return self.jitter


class _WindowAcc:
    """One stream's accumulator for one scoring window."""

    __slots__ = ("media_type", "packets", "gap_lost", "recovered", "sub_jitter", "frames")

    def __init__(self, media_type: int) -> None:
        self.media_type = media_type
        self.packets = 0
        self.gap_lost = 0
        self.recovered = 0
        # payload type -> [in-order packet count, peak jitter estimate (ms)]
        self.sub_jitter: dict[int, list[float]] = {}
        self.frames: set[int] = set()

    @property
    def loss_fraction(self) -> float:
        seen = self.gap_lost + self.packets
        return self.gap_lost / seen if seen else 0.0

    def jitter_peak(self, min_packets: int) -> float:
        """Worst substream jitter peak, over substreams dense enough to
        trust (sparse ones hold transient spikes for many windows)."""
        peak = float("nan")
        for count, value in self.sub_jitter.values():
            if count >= min_packets and not (value <= peak):  # NaN-aware max
                peak = value
        return peak


class MeetingQoeTracker:
    """Per-meeting QoE scoring over the analyzer's decoded records.

    Args:
        analyzer: The :class:`~repro.core.pipeline.ZoomAnalyzer` (one-pass
            or rolling mode); the tracker appends itself to its record and
            eviction hooks.
        config: The :class:`~repro.core.config.QoeConfig`; defaults apply.
        telemetry: Registry for ``qoe.*`` counters; defaults to the
            analyzer result's registry.
    """

    def __init__(
        self,
        analyzer: "ZoomAnalyzer",
        config: QoeConfig | None = None,
        *,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.config = config if config is not None else QoeConfig()
        self._result = analyzer.result
        self._telemetry = telemetry if telemetry is not None else self._result.telemetry
        self.machines: dict[int, QoeStateMachine] = {}
        self.transitions: list[tuple[int, QoeTransition]] = []
        # One window = every stream's accumulator for that scoring interval.
        self._windows: TumblingWindows[dict[StreamKey, _WindowAcc]] = TumblingWindows(
            self.config.window_seconds,
            self.config.lateness,
            self._new_window,
            self._close_window,
        )
        # stream key -> payload type -> sequence/jitter state
        self._seq: dict[StreamKey, dict[int, _SubStreamSeqState]] = {}
        self._fps_baseline: dict[StreamKey, float] = {}
        analyzer.record_hooks.append(self._ingest)
        analyzer.eviction_hooks.append(self._on_evicted)

    def _on_evicted(self, summary: "FinalizedStream") -> None:
        """Drop the evicted stream's persistent tracking state.

        Pending window accumulators keep the packets the stream already
        contributed — those windows still score — but sequence/jitter/fps
        state dies with the stream, so an SSRC reuse starts clean.
        """
        self._seq.pop(summary.key, None)
        self._fps_baseline.pop(summary.key, None)

    # -------------------------------------------------------------- ingestion

    def _ingest(
        self, record: RTPPacketRecord, key: StreamKey, opened: bool, meeting_formed: bool
    ) -> None:
        accs = self._windows.slot(record.timestamp)
        if accs is None:
            self._telemetry.count("qoe.late_packets")
            return
        acc = accs.get(key)
        if acc is None:
            acc = accs[key] = _WindowAcc(record.media_type)
        acc.packets += 1

        subs = self._seq.get(key)
        if subs is None:
            subs = self._seq[key] = {}
        sub = subs.get(record.payload_type)
        if sub is None:
            sub = subs[record.payload_type] = _SubStreamSeqState()
        in_order = True
        if sub.highest is None:
            sub.highest = record.sequence
        else:
            delta = (record.sequence - sub.highest) & 0xFFFF
            if 0 < delta < 0x8000:
                gap = delta - 1
                if 0 < gap <= GAP_CAP:
                    acc.gap_lost += gap
                sub.highest = record.sequence
            else:
                # Retransmit or duplicate filling an earlier gap: a recovery.
                acc.recovered += 1
                in_order = False
        if in_order:
            # Retransmits arrive ~100-300 ms after their slot, measuring the
            # repair loop rather than path delay variation — feeding them to
            # the estimator would make any loss episode read as jitter too.
            clock = (
                AUDIO_SAMPLING_RATE
                if record.media_type == ZoomMediaType.AUDIO
                else VIDEO_SAMPLING_RATE
            )
            jitter_ms = sub.observe_jitter(record, clock) * 1000.0
            entry = acc.sub_jitter.get(record.payload_type)
            if entry is None:
                acc.sub_jitter[record.payload_type] = [1, jitter_ms]
            else:
                entry[0] += 1
                if jitter_ms > entry[1]:
                    entry[1] = jitter_ms

        if record.media_type != ZoomMediaType.AUDIO and record.packets_in_frame > 0:
            acc.frames.add(record.frame_sequence)

        self._windows.advance(record.timestamp)

    # -------------------------------------------------------------- windowing

    def flush(self, final: bool = False) -> None:
        """Close ready windows; with ``final=True`` close everything pending.

        The service runner calls ``flush(final=True)`` at shutdown so the
        tail windows of a capture are scored even though no later packet
        will ever advance the watermark.
        """
        self._windows.flush(final=final)

    def _new_window(self, index: int) -> dict[StreamKey, _WindowAcc]:
        return {}

    def _close_window(
        self, index: int, accs: dict[StreamKey, _WindowAcc], forced: bool
    ) -> None:
        cfg = self.config
        grouper = self._result.grouper
        by_meeting: dict[int, list[tuple[StreamKey, _WindowAcc]]] = {}
        for key, acc in accs.items():
            meeting = grouper.meeting_of(key)
            if meeting is None:
                continue
            by_meeting.setdefault(meeting.meeting_id, []).append((key, acc))

        for meeting_id, entries in sorted(by_meeting.items()):
            packets = sum(acc.packets for _, acc in entries)
            if packets < cfg.min_meeting_packets:
                continue
            qualifying = [
                (key, acc)
                for key, acc in entries
                if acc.packets >= cfg.min_stream_packets
            ]
            loss = float("nan")
            jitter = float("nan")
            fps_ratio = float("nan")
            fps_windows: list[tuple[StreamKey, float]] = []
            for key, acc in qualifying:
                if not (acc.loss_fraction <= loss):  # NaN-aware max
                    loss = acc.loss_fraction
                peak = acc.jitter_peak(cfg.min_substream_packets)
                if not (peak <= jitter):
                    jitter = peak
            # fps uses every video stream with frames, not just qualifying
            # ones: a rate-adapted stream can drop to one packet per frame
            # and fall under the packet floor, and excluding it would blind
            # the machine to exactly the collapse it should flag.  Having
            # whole frames in the window is qualification enough for fps.
            for key, acc in entries:
                if acc.media_type == ZoomMediaType.VIDEO and acc.frames:
                    fps = len(acc.frames) / cfg.window_seconds
                    fps_windows.append((key, fps))
                    baseline = self._fps_baseline.get(key)
                    if baseline is not None and baseline > 0:
                        ratio = fps / baseline
                        if not (ratio >= fps_ratio):  # NaN-aware min
                            fps_ratio = ratio
            sample = QoeSample(
                window_index=index,
                window_end=(index + 1) * cfg.window_seconds,
                packets=packets,
                loss_fraction=loss,
                jitter_ms=jitter,
                fps_ratio=fps_ratio,
            )
            machine = self.machines.get(meeting_id)
            if machine is None:
                machine = self.machines[meeting_id] = QoeStateMachine(cfg)
            transition = machine.observe(sample)
            self._telemetry.count("qoe.windows")
            if transition is not None:
                self._record_transition(meeting_id, transition)
            if machine.state is QoeState.GOOD:
                self._learn_baselines(fps_windows)

    def _learn_baselines(self, fps_windows: list[tuple[StreamKey, float]]) -> None:
        cfg = self.config
        for key, fps in fps_windows:
            if fps < cfg.fps_min_baseline:
                continue
            baseline = self._fps_baseline.get(key)
            if baseline is None:
                self._fps_baseline[key] = fps
            else:
                alpha = cfg.fps_baseline_alpha
                self._fps_baseline[key] = (1.0 - alpha) * baseline + alpha * fps

    # ------------------------------------------------------------ transitions

    def _record_transition(self, meeting_id: int, transition: QoeTransition) -> None:
        self.transitions.append((meeting_id, transition))
        tel = self._telemetry
        tel.count("qoe.transitions")
        tel.count(f"qoe.transitions_to.{transition.state.name.lower()}")
        if transition.state >= QoeState.IMPAIRED:
            tel.count("qoe.alerts")

    # --------------------------------------------------------------- queries

    def fleet_summary(self) -> dict[str, int]:
        """Meeting count per QoE state name, for health output.

        Only meetings the grouper still resolves to themselves count —
        machines orphaned by a meeting merge are skipped.
        """
        active = {m.meeting_id for m in self._result.grouper.meetings()}
        counts: dict[str, int] = {}
        for meeting_id, machine in self.machines.items():
            if meeting_id not in active:
                continue
            counts[machine.state.name] = counts.get(machine.state.name, 0) + 1
        return counts

    def worst_state(self) -> QoeState:
        """The most severe state any active meeting is currently in."""
        active = {m.meeting_id for m in self._result.grouper.meetings()}
        worst = QoeState.GOOD
        for meeting_id, machine in self.machines.items():
            if meeting_id in active and machine.state > worst:
                worst = machine.state
        return worst
