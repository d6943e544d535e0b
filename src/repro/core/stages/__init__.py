"""The staged analyzer pipeline (the paper's Figure 6, one stage per box).

:class:`~repro.core.pipeline.ZoomAnalyzer` composes these stages in order:

1. :class:`DecodeStage` — input totals (survivors arrive materialized);
2. :class:`ClassifyStage` — §4.1 Zoom detection, TLS-RTT and STUN side exits;
3. :class:`ZoomDemuxStage` — §4.2 proprietary decode, Table-2/3 counters,
   RTCP routing, direction resolution → :class:`RTPPacketRecord`;
4. :class:`AssembleStage` — stream table + §4.3 meeting grouping, then the
   analyzer's record hooks;
5. :class:`MetricsStage` — §5 per-stream estimators and latency matching.

Each stage implements the tiny :class:`Stage` protocol over a shared
:class:`PacketContext`; the analyzer's survivor loop binds the five
``process`` methods once per batch and tallies per-packet telemetry from
the context (:meth:`~repro.core.pipeline.ZoomAnalyzer._run`).
"""

from repro.core.stages.assemble import AssembleStage
from repro.core.stages.base import PacketContext, Stage
from repro.core.stages.classify import ClassifyStage
from repro.core.stages.decode import DecodeStage
from repro.core.stages.demux import ZoomDemuxStage
from repro.core.stages.metrics import MetricsStage

__all__ = [
    "AssembleStage",
    "ClassifyStage",
    "DecodeStage",
    "MetricsStage",
    "PacketContext",
    "Stage",
    "ZoomDemuxStage",
]
