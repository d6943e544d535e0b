"""What the live-monitoring layer costs on top of the rolling analyzer.

The monitoring daemon adds three things to the rolling analyzer's packet
path: the per-frame volume accounting of ``WindowAggregator.ingest``,
the event-bus fan-in of stream/meeting events into open windows, and the
exporters at window close (JSONL append plus a Prometheus render, standing
in for a scrape).  This benchmark replays the §5 validation meeting through
(a) the bare rolling analyzer and (b) the full aggregator + exporter stack,
and reports the throughput delta.  The analysis output is asserted
identical first — the overhead is only worth reporting if the windows
reproduce the bare run's totals.
"""

import time

from repro.analysis.tables import format_table
from repro.core import AnalyzerConfig, ZoomAnalyzer
from repro.net.source import IterableSource
from repro.service.exporters import JsonlWindowLog
from repro.service.prometheus import render_metrics
from repro.service.windows import WindowAggregator

WINDOW_SECONDS = 5.0
REPEATS = 3


def _config() -> AnalyzerConfig:
    return AnalyzerConfig(rolling=True, rolling_idle_timeout=60.0, telemetry=True)


def _run_bare(captures):
    rolling = ZoomAnalyzer(_config())
    start = time.perf_counter()
    rolling.analyze(captures)
    rolling.eviction.sweep(float("inf"))
    return time.perf_counter() - start, rolling


def _run_monitored(captures, tmp_path):
    rolling = ZoomAnalyzer(_config())
    telemetry = rolling.result.telemetry
    windows = []
    log = JsonlWindowLog(tmp_path / "windows.jsonl", telemetry=telemetry)

    def export(window):
        windows.append(window)
        log.write(window)
        # A dashboard scrape renders the page roughly once per window.
        render_metrics(telemetry.snapshot(), last_window=window)

    aggregator = WindowAggregator(
        rolling,
        window_seconds=WINDOW_SECONDS,
        lateness=2.0,
        on_window=(export,),
        telemetry=telemetry,
    )
    start = time.perf_counter()
    for batch in IterableSource(captures).frame_batches():
        aggregator.ingest(batch)
    rolling.eviction.sweep(float("inf"))
    aggregator.flush(final=True)
    elapsed = time.perf_counter() - start
    log.close()
    return elapsed, rolling, windows


def test_service_overhead(validation, tmp_path, report):
    result, _analysis = validation
    captures = list(result.captures)

    bare_best = monitored_best = float("inf")
    for _ in range(REPEATS):
        bare_time, bare_rolling = _run_bare(captures)
        monitored_time, monitored_rolling, windows = _run_monitored(
            captures, tmp_path
        )
        bare_best = min(bare_best, bare_time)
        monitored_best = min(monitored_best, monitored_time)

    # Equivalence first: monitoring must not change what is measured.
    monitored, bare = monitored_rolling.eviction, bare_rolling.eviction
    assert monitored.streams_evicted == bare.streams_evicted
    assert sum(w.packets_total for w in windows) == len(captures)
    finalized_packets = sum(s.packets for s in monitored.finalized)
    assert finalized_packets == sum(s.packets for s in bare.finalized)

    bare_pps = len(captures) / bare_best
    monitored_pps = len(captures) / monitored_best
    overhead = (bare_best / monitored_best - 1.0) * -100.0
    rows = [
        ("rolling only", f"{bare_pps:,.0f}", f"{bare_best * 1e3:.1f}"),
        ("rolling + windows + exporters", f"{monitored_pps:,.0f}",
         f"{monitored_best * 1e3:.1f}"),
    ]
    table = format_table(
        ("configuration", "packets/s", "wall ms"), rows
    )
    lines = [
        f"validation meeting: {len(captures)} packets, "
        f"{len(windows)} windows of {WINDOW_SECONDS:.0f}s "
        f"(best of {REPEATS} runs)",
        table,
        f"monitoring overhead: {overhead:.1f}% throughput "
        f"({monitored_pps / bare_pps:.2f}x of bare)",
    ]
    report("service_overhead", "\n".join(lines))

    # Guardrail, deliberately loose for CI noise: the monitoring layer must
    # not halve analyzer throughput.
    assert monitored_pps > bare_pps * 0.5
