"""Every metric the harness emits: name, unit, direction, bound.

This table is the source ``BENCHMARK.json`` was written from;
``test_harness.py`` holds the two together.  End-to-end metrics are what an
operator sees and carry a regression bound; per-layer metrics explain them
and carry none.  A per-layer metric reads 0 on a workload that does not
execute its layer (``service.*`` offline, ``net.*`` on ``store_rw``).
"""

from __future__ import annotations

from profiling import LAYERS, STAGES

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("ingest_per_s", "1/s", "higher", 0.15),
    ("pyops_per_item", "count", "lower", 0.03),
    ("query_p50_ms", "ms", "lower", 0.15),
    ("query_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

_SPANS = (
    ("net.read.fps", "1/s", "higher"),
    ("net.read.mib_per_s", "MiB/s", "higher"),
    ("net.decode_columns.fps", "1/s", "higher"),
    ("net.prefilter.fps", "1/s", "higher"),
    ("net.prefilter.pass_ratio", "ratio", "lower"),
    ("net.materialize.us_per_pkt", "us/pkt", "lower"),
    ("dataplane.rawfilter.fps", "1/s", "higher"),
    ("dataplane.rawfilter.pass_ratio", "ratio", "lower"),
    ("dataplane.cbpf.interp_fps", "1/s", "higher"),
    ("dataplane.cbpf.program_insns", "count", "lower"),
    ("dataplane.live.sim_fps", "1/s", "higher"),
    ("dataplane.live.kernel_drops", "count", "lower"),
    ("core.analyze.media_pps", "1/s", "higher"),
    ("core.analyze.batch_p50_ms", "ms", "lower"),
    ("core.analyze.batch_p90_ms", "ms", "lower"),
    ("core.sharded.pps_2proc", "1/s", "higher"),
    ("core.sharded.speedup", "ratio", "higher"),
    ("telemetry.overhead", "ratio", "lower"),
    ("service.tail.read_fps", "1/s", "higher"),
    ("store.bytes_per_record", "B/rec", "lower"),
    ("store.open_ms", "ms", "lower"),
    ("store.compact_s", "s", "lower"),
    ("store.append.rps", "1/s", "higher"),
    ("store.query.narrow_p50_ms", "ms", "lower"),
    ("store.query.meeting_p50_ms", "ms", "lower"),
    ("store.query.reagg_p50_ms", "ms", "lower"),
    ("store.query.skip_ratio", "ratio", "higher"),
    ("store.query.examined_ratio", "ratio", "higher"),
    ("fleet.query.p50_ms", "ms", "lower"),
    ("fleet.query.overhead", "ratio", "lower"),
)

# per-layer name -> telemetry counter (or high-water gauge) it reads
COUNTERS = {
    "service.queue.dropped_pkts": "service.dropped",
    "service.windows.emitted": "service.windows",
    "service.windows.late_events": "service.late_events",
    "service.windows.forced": "service.windows_forced",
    "service.ingest.restarts": "service.ingest_restarts",
    "core.rolling.evicted": "pipeline.evicted.idle",
    "core.streams.peak_live": "rolling.live_streams_peak",
    "core.meetings.formed": "assemble.meetings_formed",
    "qoe.windows_scored": "qoe.windows",
    "qoe.transitions": "qoe.transitions",
    "store.append.records": "store.appended",
    "store.seals": "store.segments_sealed",
}


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    table: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        table.append((f"{layer}.self_share", "ratio", "lower"))
        table.append((f"{layer}.calls_per_pkt", "1/pkt", "lower"))
    for stage in STAGES:
        table.append((f"core.stages.{stage}.cum_us_per_pkt", "us/pkt", "lower"))
    for stage in STAGES:
        table.append((f"core.stages.{stage}.stop_ratio", "ratio", "lower"))
    table.append(("core.stages.completed_ratio", "ratio", "higher"))
    table.extend(_SPANS)
    table.extend((name, "count", "lower") for name in COUNTERS)
    table.append(("trace.overhead", "ratio", "lower"))
    return table


UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *per_layer())}
BETTER = {name: better for name, _unit, better, *_ in (*END_TO_END, *per_layer())}
BOUNDS = {name: bound for name, _unit, _better, bound in END_TO_END}


def benchmark_json(command: list[str], run_seconds: int, workloads: list[dict]) -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": command,
        "paths": ["benchmarks/harness"],
        "run_seconds": run_seconds,
        "workloads": workloads,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }
