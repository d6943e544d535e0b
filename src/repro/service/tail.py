"""Tailing ingestion: follow a capture directory a monitor is still writing.

A production capture daemon rotates files (``zoom-00.pcap``, ``zoom-01.pcap``,
…) and appends to the newest one continuously.  The batch
:class:`~repro.net.source.CaptureDirectorySource` reads a *finished* set of
files once; :class:`CaptureDirectoryTailer` instead polls the directory
repeatedly and delivers exactly the packets that appeared since the last
poll:

* newly discovered files are read from the start;
* files seen before are re-opened with the :class:`~repro.net.source.
  CaptureResume` token saved at the previous poll, so reading continues at
  the first unread record — no packet is ever delivered twice, however many
  times the file is rediscovered;
* the in-progress tail of the newest file is read in ``tolerant`` mode: a
  half-written record stops the pass cleanly *without* advancing the resume
  offset, so the next poll retries it once the writer has finished it;
* a file that *shrank* (or changed format) under a reused name is treated as
  replaced and read from the start again (``ingest.tail.replaced``).

The tailer is deliberately synchronous — :meth:`poll` does one bounded pass
and returns.  Scheduling (sleep intervals, threads, backpressure) belongs to
the supervisor in :mod:`repro.service.runner`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.net.batch import DEFAULT_FRAMES_PER_BATCH, FrameBatch
from repro.net.source import CaptureResume, open_capture_source
from repro.telemetry.registry import Telemetry


class CaptureDirectoryTailer:
    """Incrementally read a growing, rotating capture directory.

    Args:
        directory: The directory the capture daemon writes into.
        pattern: Glob selecting capture files inside it.
        telemetry: Optional registry; the tailer records ``ingest.tail.*``
            counters and the underlying readers record ``capture.*``.
        batch_size: Frames per yielded batch (the source-layer default).

    Attributes:
        packets_emitted / bytes_emitted: Running totals across all polls.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        pattern: str = "*.pcap*",
        telemetry: Telemetry | None = None,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
    ) -> None:
        self._directory = Path(directory)
        self._pattern = pattern
        self._telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self._batch_size = batch_size
        self._positions: dict[Path, CaptureResume] = {}
        self.packets_emitted = 0
        self.bytes_emitted = 0
        self.polls = 0

    def poll(self) -> Iterator[FrameBatch]:
        """One pass over the directory; yields batches of *new* frames.

        Batches are raw :class:`~repro.net.batch.FrameBatch` buffers, which
        the service runner hands whole to the analyzer.  Files are visited
        in name order — rotation schemes number their files monotonically,
        and per-file resume makes the order a presentation detail rather
        than a correctness one.
        """
        tel = self._telemetry
        self.polls += 1
        tel.count("ingest.tail.polls")
        for path in sorted(self._directory.glob(self._pattern)):
            if not path.is_file():
                continue
            yield from self._drain_file(path)

    def resume_positions(self) -> dict[Path, CaptureResume]:
        """Snapshot of per-file read positions (for inspection/tests)."""
        return dict(self._positions)

    # ------------------------------------------------------------- internals

    def _drain_file(self, path: Path) -> Iterator[FrameBatch]:
        tel = self._telemetry
        token = self._positions.get(path)
        if token is not None:
            try:
                size = path.stat().st_size
            except OSError:
                return  # raced with deletion; rediscovered next poll if back
            if size < token.offset:
                # Shrunk under a reused name: the writer replaced the file.
                tel.count("ingest.tail.replaced")
                token = None
            elif size == token.offset:
                return  # nothing new since last poll
        try:
            source = open_capture_source(
                path,
                telemetry=tel,
                tolerant=True,  # the newest file routinely ends mid-record
                batch_size=self._batch_size,
                resume=token,
            )
        except ValueError:
            if token is None:
                # Header not fully written yet (or not a capture at all):
                # leave it for a later poll instead of failing the pass.
                tel.count("ingest.tail.not_ready")
                return
            # Resume rejected — format changed under the name: start over.
            tel.count("ingest.tail.replaced")
            self._positions.pop(path, None)
            yield from self._drain_file(path)
            return
        except OSError:
            tel.count("ingest.tail.not_ready")
            return
        if token is None:
            tel.count("ingest.tail.files")
        else:
            tel.count("ingest.tail.resumed")
        try:
            # Batch boundaries are record boundaries, which is what the
            # resume contract below relies on.
            for batch in source.frame_batches():
                self.packets_emitted += len(batch)
                self.bytes_emitted += batch.total_caplen
                tel.count("ingest.tail.packets", len(batch))
                # Position saved before the hand-off: when a batch yields,
                # the reader sits exactly at its end, so even a consumer
                # that abandons the generator mid-poll resumes at the first
                # packet it never received — nothing skipped, nothing twice.
                self._positions[path] = source.resume_state()
                yield batch
            self._positions[path] = source.resume_state()
        finally:
            source.close()
