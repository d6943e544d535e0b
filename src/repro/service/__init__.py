"""The live monitoring daemon: tail → rolling analyzer → windows → export.

Every driver in :mod:`repro.core` is batch-shaped — hand it a finished
capture, get one :class:`~repro.core.pipeline.AnalysisResult`.  This package
is the long-running counterpart the paper's deployment section (§6.2) calls
for: it follows a capture directory a monitor daemon is still writing
(:mod:`repro.service.tail`), feeds a bounded-memory rolling-mode
:class:`~repro.core.pipeline.ZoomAnalyzer`, folds its decoded records
into tumbling per-media/per-meeting windows (:mod:`repro.service.windows`),
and exports them as Prometheus metrics, health probes, and a JSONL window
log (:mod:`repro.service.exporters`).  :mod:`repro.service.runner` is the
supervisor tying the threads together; the ``analyze-live`` CLI subcommand
is its entry point.
"""

from repro.service.runner import ServiceReport, ZoomMonitorService
from repro.service.tail import CaptureDirectoryTailer
from repro.service.windows import MediaWindowStats, WindowAggregator, WindowRecord

__all__ = [
    "CaptureDirectoryTailer",
    "MediaWindowStats",
    "ServiceReport",
    "WindowAggregator",
    "WindowRecord",
    "ZoomMonitorService",
]
