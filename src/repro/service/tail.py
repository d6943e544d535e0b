"""Tailing ingestion: follow a capture directory a monitor is still writing.

A production capture daemon rotates files (``zoom-00.pcap`` …, or
``tcpdump -C``'s ``trace.pcap``, ``trace.pcap1`` …) and appends to the
newest one continuously.  :class:`CaptureDirectoryTailer` is the one
capture-directory reader, :class:`~repro.net.source.CaptureDirectorySource`,
built tolerant: each :meth:`poll` re-lists the directory and delivers
exactly the frames that appeared since the last poll, file by file in
capture order (first record timestamp, then name), resuming every file at
its saved position.  A half-written record, or a file whose first record
is not written yet, waits for the next poll; a file replaced under its
name is read from the start (``ingest.tail.replaced``).  The poll is lazy
and bounded; sleep intervals and restarts belong to the loop in
:mod:`repro.service.runner`.
"""

from __future__ import annotations

from pathlib import Path

from repro.net.batch import DEFAULT_FRAMES_PER_BATCH
from repro.net.source import CaptureDirectorySource
from repro.telemetry.registry import Telemetry


class CaptureDirectoryTailer(CaptureDirectorySource):
    """Incrementally read a growing, rotating capture directory.

    Args:
        directory: The directory the capture daemon writes into.
        pattern: Glob selecting capture files inside it.
        telemetry: Optional registry for ``ingest.*`` and the readers'
            ``capture.*`` counters.
        batch_size: Frames per yielded batch (the source-layer default).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        pattern: str = "*.pcap*",
        telemetry: Telemetry | None = None,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
    ) -> None:
        super().__init__(
            directory,
            pattern=pattern,
            telemetry=telemetry,
            tolerant=True,
            batch_size=batch_size,
        )
