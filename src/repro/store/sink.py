""":class:`StoreSink` — the live service's bridge into the metrics store.

Registers on the monitoring daemon's two finalization streams: closed
:class:`~repro.service.windows.WindowRecord`s from the window aggregator
and :class:`~repro.core.rolling.FinalizedStream` summaries from the rolling
analyzer's eviction path.  Meeting summaries only stabilize at campaign end,
so the supervisor calls :meth:`write_meetings` during its final drain.

The sink also drives background maintenance on the store's cadence
(:meth:`~repro.store.store.MetricsStore.maintain_if_due` after each window)
so a long-lived daemon compacts and enforces retention without a separate
thread — maintenance work happens in the service loop between windows,
where the store is already being written from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.store.records import meeting_record, stream_record, window_record
from repro.store.store import MetricsStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.meetings import Meeting
    from repro.core.rolling import FinalizedStream
    from repro.service.windows import WindowRecord


class StoreSink:
    """Write service output into ``store`` as it finalizes.

    Args:
        store: An open :class:`MetricsStore`; the sink never closes it —
            lifecycle belongs to the supervisor that opened it.
    """

    def __init__(self, store: MetricsStore) -> None:
        self.store = store
        self.windows_stored = 0
        self.streams_stored = 0
        self.meetings_stored = 0

    def write_window(self, window: "WindowRecord") -> None:
        """Window-close callback for the aggregator."""
        self.store.append(window_record(window))
        self.windows_stored += 1
        self.store.maintain_if_due()

    def write_stream(self, summary: "FinalizedStream") -> None:
        """``eviction_hooks`` entry for the rolling analyzer."""
        self.store.append(stream_record(summary))
        self.streams_stored += 1

    def write_meetings(self, meetings: Iterable["Meeting"]) -> None:
        """Persist meeting summaries (the supervisor's shutdown path)."""
        for meeting in meetings:
            self.store.append(meeting_record(meeting))
            self.meetings_stored += 1
