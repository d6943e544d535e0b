"""The paper's contribution: passive analysis of Zoom traffic.

Pipeline stages (Figure 6), each a :class:`repro.core.stages.Stage`:

1. :mod:`repro.core.detector` — find Zoom traffic, including P2P flows, via
   the published server subnets and STUN-exchange tracking (§4.1).
2. :mod:`repro.core.entropy` / :mod:`repro.core.offset_finder` — the
   entropy-based header-analysis methodology that discovered the format
   (§4.2); kept executable so the analysis can be repeated if Zoom changes
   its protocol.
3. :mod:`repro.zoom` parsing + :mod:`repro.core.streams` — decode packets and
   assemble them into RTP streams keyed by 5-tuple and SSRC.
4. :mod:`repro.core.meetings` — group streams into meetings (§4.3).
5. :mod:`repro.core.metrics` — per-stream performance estimation (§5).
6. :mod:`repro.core.pipeline` — the end-to-end analyzer, composed from
   :mod:`repro.core.stages`; the layers above it append to its
   ``record_hooks`` and ``eviction_hooks``.

Scaling: :mod:`repro.core.rolling` (the analyzer's idle-eviction policy for
bounded-memory continuous operation, ``AnalyzerConfig(rolling=True)``) and
:mod:`repro.core.sharded` (flow-affine parallel analysis).
Options flow through one frozen :class:`~repro.core.config.AnalyzerConfig`,
and :class:`~repro.core.session.AnalysisSession` is the one-call front door:
``AnalysisSession(config).run(source)`` over any
:class:`~repro.net.source.PacketSource`.
"""

from repro.core.config import (
    AnalyzerConfig,
    FleetConfig,
    FleetNodeConfig,
    ProtocolConfig,
    ServiceConfig,
    StoreConfig,
)
from repro.core.detector import StunTracker, ZoomClass, ZoomSubnetMatcher, ZoomTrafficDetector
from repro.core.pipeline import AnalysisResult, ZoomAnalyzer
from repro.core.rolling import FinalizedStream
from repro.core.session import AnalysisSession
from repro.core.sharded import ShardedAnalyzer
from repro.core.streams import MediaStream, RTPPacketRecord, StreamTable

__all__ = [
    "AnalysisResult",
    "AnalysisSession",
    "AnalyzerConfig",
    "FleetConfig",
    "FleetNodeConfig",
    "FinalizedStream",
    "MediaStream",
    "ProtocolConfig",
    "RTPPacketRecord",
    "ServiceConfig",
    "ShardedAnalyzer",
    "StoreConfig",
    "StreamTable",
    "StunTracker",
    "ZoomAnalyzer",
    "ZoomClass",
    "ZoomSubnetMatcher",
    "ZoomTrafficDetector",
]
