"""Loss, retransmission, and reordering inference from RTP sequences (§5.5).

UDP has no acknowledgments, but Zoom's RTP sequence numbers let the analyzer
reason about delivery per substream.  Zoom retransmits lost packets (same
sequence number, up to twice, ~100 ms timeout), so at the monitor:

* a **duplicate** sequence number is a retransmission that crossed the
  vantage point twice (loss happened downstream of the monitor);
* a **gap** that is later filled is either reordering or a retransmission
  of a packet lost *upstream* of the monitor — the two are fundamentally
  indistinguishable from sequence numbers alone, which the paper calls out
  as a hard limitation;
* a gap that is **never filled** is a genuine loss that exhausted
  retransmissions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.streams import RTPPacketRecord

SEQUENCE_MODULUS = 1 << 16


@dataclass
class SequenceStats:
    """Counters produced by :class:`SequenceTracker` for one substream."""

    received: int = 0
    duplicates: int = 0
    late_fills: int = 0
    unfilled_gaps: int = 0
    highest_advanced: int = 0


class SequenceTracker:
    """Per-substream sequence-number bookkeeping with a bounded window.

    Feed packets of **one** (stream, payload type); sequence spaces are not
    comparable across substreams (§5.4).  The tracker maintains the set of
    outstanding (expected but unseen) sequence numbers up to ``window``
    behind the highest seen; gaps that fall off the window are counted as
    unfilled (lost).
    """

    def __init__(self, window: int = 512) -> None:
        if window <= 0 or window >= SEQUENCE_MODULUS // 2:
            raise ValueError("window must be in (0, 32768)")
        self.window = window
        self.stats = SequenceStats()
        self._highest: int | None = None
        self._seen_recent: set[int] = set()
        self._missing: dict[int, float] = {}

    def observe(self, record: RTPPacketRecord) -> str:
        """Fold in one packet; returns its classification:
        ``"in_order" | "duplicate" | "late_fill" | "future_gap"``."""
        seq = record.sequence % SEQUENCE_MODULUS
        self.stats.received += 1
        if self._highest is None:
            self._highest = seq
            self._seen_recent.add(seq)
            return "in_order"
        delta = (seq - self._highest) % SEQUENCE_MODULUS
        if delta == 0 or (delta >= SEQUENCE_MODULUS - self.window):
            # At or behind the highest sequence seen.
            if seq in self._seen_recent:
                self.stats.duplicates += 1
                return "duplicate"
            if seq in self._missing:
                del self._missing[seq]
                self.stats.late_fills += 1
                self._seen_recent.add(seq)
                self._trim()
                return "late_fill"
            # Behind the window: treat as duplicate-ish ancient packet.
            self.stats.duplicates += 1
            return "duplicate"
        if delta > self.window:
            # Wild jump forward — restart tracking from here rather than
            # declaring thousands of losses (stream gap, e.g. mode switch).
            self._flush_missing()
            self._highest = seq
            self._seen_recent = {seq}
            self._missing.clear()
            self.stats.highest_advanced += 1
            return "in_order"
        # Normal forward movement; intermediate sequences become missing.
        for offset in range(1, delta):
            missing_seq = (self._highest + offset) % SEQUENCE_MODULUS
            self._missing[missing_seq] = record.timestamp
        self._highest = seq
        self._seen_recent.add(seq)
        self.stats.highest_advanced += 1
        self._trim()
        return "in_order" if delta == 1 else "future_gap"

    def finalize(self) -> SequenceStats:
        """Close the stream: any still-missing sequences count as lost."""
        self._flush_missing()
        return self.stats

    def _flush_missing(self) -> None:
        self.stats.unfilled_gaps += len(self._missing)
        self._missing.clear()

    def _trim(self) -> None:
        if self._highest is None:
            return
        # Expire missing entries older than the window.
        expired = [
            seq
            for seq in self._missing
            if (self._highest - seq) % SEQUENCE_MODULUS > self.window
        ]
        for seq in expired:
            del self._missing[seq]
            self.stats.unfilled_gaps += 1
        if len(self._seen_recent) > 4 * self.window:
            self._seen_recent = {
                seq
                for seq in self._seen_recent
                if (self._highest - seq) % SEQUENCE_MODULUS <= 2 * self.window
            }


@dataclass
class StreamLossReport:
    """Aggregated loss/retransmission view over a whole stream."""

    per_substream: dict[int, SequenceStats] = field(default_factory=dict)

    @property
    def received(self) -> int:
        return sum(stats.received for stats in self.per_substream.values())

    @property
    def duplicates(self) -> int:
        return sum(stats.duplicates for stats in self.per_substream.values())

    @property
    def lost(self) -> int:
        return sum(stats.unfilled_gaps for stats in self.per_substream.values())

    @property
    def reordered(self) -> int:
        return sum(stats.late_fills for stats in self.per_substream.values())

    @property
    def loss_rate(self) -> float:
        total = self.received + self.lost
        return self.lost / total if total else 0.0


class StreamLossTracker:
    """Holds one :class:`SequenceTracker` per substream of a stream."""

    def __init__(self, window: int = 512) -> None:
        self.window = window
        self._trackers: dict[int, SequenceTracker] = {}

    def observe(self, record: RTPPacketRecord) -> str:
        tracker = self._trackers.get(record.payload_type)
        if tracker is None:
            tracker = self._trackers[record.payload_type] = SequenceTracker(self.window)
        return tracker.observe(record)

    def report(self, *, finalize: bool = False) -> StreamLossReport:
        report = StreamLossReport()
        for payload_type, tracker in self._trackers.items():
            stats = tracker.finalize() if finalize else tracker.stats
            report.per_substream[payload_type] = stats
        return report
