"""Decode stage: input totals for survivors and, in bulk, for dropped frames."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.stages.base import PacketContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisResult
    from repro.net.batch import PrefilterVerdict


class DecodeStage:
    """Slice a raw batch's header columns and count every input packet.

    Per-packet contexts arrive already parsed (the materialized survivors
    of a batch); they are counted here, and prefilter-dropped frames are
    counted in bulk, so ``packets_total`` and ``bytes_total`` cover every
    frame of the batch.  A survivor always has an Ethernet header — the
    prefilter drops, and :meth:`account_dropped` counts, every frame
    without one — so no survivor is a parse failure.
    """

    name = "decode"

    def __init__(self, result: "AnalysisResult") -> None:
        self._result = result
        self._telemetry = result.telemetry

    def process(self, ctx: PacketContext) -> bool:
        result = self._result
        result.packets_total += 1
        result.bytes_total += len(ctx.parsed.raw)
        return True

    def account_dropped(self, verdict: "PrefilterVerdict") -> None:
        """Bulk accounting for prefilter-dropped frames.

        Surviving frames are materialized and run through :meth:`process`
        individually, so only the dropped ones need their ``packets_total``
        / ``bytes_total`` / parse-failure contributions added here — with
        exactly the values :meth:`process` would have recorded.  (Every
        frame the columnar decoder marks Ethernet-less is dropped by the
        prefilter, so the parse-failure count needs no survivor half.)
        """
        self._result.packets_total += verdict.dropped
        self._result.bytes_total += verdict.dropped_bytes
        if verdict.parse_failures:
            tel = self._telemetry
            if tel.enabled:
                tel.count("decode.parse_failures", verdict.parse_failures)
