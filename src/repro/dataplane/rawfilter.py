"""Batch compaction: a :class:`FrameBatch` cut down to its prefilter survivors.

The userspace capture decision is made in one place —
:func:`~repro.net.batch.decode_columns` then
:meth:`~repro.net.batch.BatchPrefilter.apply`.  :class:`RawFrameFilter`
runs that decision over a whole batch and hands back a survivor batch
**sharing the original buffer** (subset offset/caplen/timestamp columns,
no byte copying), so a consumer that wants the surviving frames rather
than their indexes — :class:`~repro.dataplane.live.LiveInterfaceSource`
on each received chunk — does not build a second buffer.  It holds no
rule state of its own: STUN sniffing and endpoint fold-ins
(``prefilter.sync_stun`` / ``note_endpoint``) all land on the wrapped
prefilter.
"""

from __future__ import annotations

from array import array

from repro.net.batch import BatchPrefilter, FrameBatch, PrefilterVerdict, decode_columns

__all__ = ["RawFrameFilter"]


class RawFrameFilter:
    """Compacts batches to the survivors of one :class:`BatchPrefilter`."""

    __slots__ = ("prefilter",)

    def __init__(self, prefilter: BatchPrefilter) -> None:
        self.prefilter = prefilter

    def filter_batch(self, batch: FrameBatch) -> tuple[FrameBatch, PrefilterVerdict]:
        """Compact ``batch`` to its survivors, sharing the original buffer.

        Hint frames (sharder replicas carried for STUN learning) always
        survive — they must reach ``hint_stun`` downstream.  A batch that
        lost nothing is returned as is.
        """
        verdict = self.prefilter.apply(batch, decode_columns(batch))
        if not verdict.dropped:
            return batch, verdict
        kept = verdict.survivors
        if verdict.hint_indexes:
            kept = sorted(kept + verdict.hint_indexes)
        offsets = batch.offsets
        caplens = array("I", [batch.caplens[i] for i in kept])
        timestamps = batch.timestamps
        hints = batch.hints
        survivors = FrameBatch(
            buffer=batch.buffer,
            offsets=array("Q", [offsets[i] for i in kept]),
            caplens=caplens,
            timestamps=array("d", [timestamps[i] for i in kept]),
            total_caplen=sum(caplens),
            hints=array("b", [hints[i] for i in kept]) if verdict.hint_indexes else None,
        )
        return survivors, verdict
