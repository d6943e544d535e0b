"""The four workloads: fixture, timed ingest, and the correctness gate.

Every workload is the same chain — an input file on disk, through the
system's public entry points, into a closed :class:`MetricsStore` — and
differs in which layers do the work (see README.md for the rationale):

* ``border98`` / ``meeting_media``: ``AnalysisSession.run(path)`` then
  ``backfill_result(store, result)``;
* ``campus_live``: ``ZoomMonitorService(dir, config).run(stop_after_polls=1)``
  with store write-through, QoE on, Zoom + generic RTP plugins;
* ``store_rw``: ``backfill_jsonl`` of a window log plus meeting records.

All of them are closed-loop replay with one client and no pacing: the next
rep starts when the previous one has closed its store.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import AnalysisSession, AnalyzerConfig, ServiceConfig, StoreConfig
from repro.core.config import ProtocolConfig
from repro.service.runner import ZoomMonitorService
from repro.store import MetricsStore, StoreQuery, backfill_jsonl, backfill_result
from repro.store.backfill import iter_jsonl_windows
from repro.telemetry import Telemetry

import traces
from common import ALL_KINDS, PACKET_WORKLOADS, PINS_JSON, load_json

#: Small seal thresholds so ``store_rw`` leaves many sealed segments behind
#: and the footer index has something to skip (benchmarks/test_store_query.py's
#: configuration).
STORE_RW_CONFIG = StoreConfig(partition_seconds=1000.0, seal_records=128, gzip_level=6)

@dataclass
class Fixture:
    """What set-up hands to the reps: verified inputs and a scratch root."""

    workload: str
    truth: dict
    work: Path
    prefix: bool = False
    meetings: list[dict] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return self.truth["prefix_items" if self.prefix else "items"]

    def input(self, name: str) -> Path:
        return Path(self.truth["dir"]) / name


@dataclass
class Outcome:
    """What one ingest rep produced, for the gate and the layer counters."""

    seconds: float
    store_dir: Path
    accounted: int
    dropped: int = 0
    zoom: int = 0
    streams: int | None = None
    ssrcs: set[int] | None = None
    meetings: int = 0
    stored: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    maxima: dict[str, float] = field(default_factory=dict)


def analyzer_config(workload: str) -> AnalyzerConfig:
    """The analyzer options a workload's end-to-end path runs with; the
    direct spans reuse it so they measure the same plugin set."""
    if workload == "campus_live":
        return AnalyzerConfig(
            rolling=True,
            telemetry=True,
            protocols=ProtocolConfig(protocols=("zoom", "rtp")),
        )
    return AnalyzerConfig()


def setup(workload: str, seed: int, scale: float, work: Path, *, prefix: bool = False) -> Fixture:
    """The warm set-up path: verify the cached inputs, build the fixture."""
    truth = traces.load(workload, seed, scale)
    work.mkdir(parents=True, exist_ok=True)
    fixture = Fixture(workload=workload, truth=truth, work=work, prefix=prefix)
    if workload == "store_rw":
        fixture.meetings = list(iter_jsonl_windows(fixture.input("meetings.jsonl")))
        if prefix:
            fixture.truth = dict(truth, prefix_items=truth["prefix_items"] + len(fixture.meetings))
    return fixture


def fresh_dir(fixture: Fixture, name: str) -> Path:
    path = fixture.work / name
    shutil.rmtree(path, ignore_errors=True)
    return path


def ingest(fixture: Fixture, store_dir: Path) -> Outcome:
    """One rep: input on disk -> store closed, timed around the public calls."""
    return _INGEST[fixture.workload](fixture, store_dir)


def _ingest_offline(fixture: Fixture, store_dir: Path) -> Outcome:
    path = fixture.input("prefix.pcap" if fixture.prefix else "input.pcap")
    config = analyzer_config(fixture.workload)
    start = time.perf_counter()
    result = AnalysisSession(config).run(path)
    store = MetricsStore(store_dir, StoreConfig(), telemetry=result.telemetry)
    report = backfill_result(store, result)
    store.close()
    seconds = time.perf_counter() - start
    snapshot = result.telemetry_snapshot()
    streams = result.media_streams()
    return Outcome(
        seconds=seconds,
        store_dir=store_dir,
        accounted=result.packets_total,
        zoom=result.packets_zoom,
        streams=len(streams),
        ssrcs={stream.ssrc for stream in streams},
        meetings=len(result.meetings),
        stored=report.streams + report.meetings,
        counters=snapshot.counters,
        maxima=snapshot.maxima,
    )


def _ingest_live(fixture: Fixture, store_dir: Path) -> Outcome:
    pattern = ("prefix" if fixture.prefix else "input") + "-*.pcap"
    config = ServiceConfig(
        analyzer=analyzer_config("campus_live"),
        tail_pattern=pattern,
        poll_interval=0.05,
        store_dir=str(store_dir),
    )
    start = time.perf_counter()
    service = ZoomMonitorService(Path(fixture.truth["dir"]), config)
    report = service.run(stop_after_polls=1)
    seconds = time.perf_counter() - start
    snapshot = service.telemetry.snapshot()
    return Outcome(
        seconds=seconds,
        store_dir=store_dir,
        accounted=report.packets_processed + report.packets_dropped + report.kernel_drops,
        dropped=report.packets_dropped + report.kernel_drops,
        zoom=service.rolling.result.packets_zoom,
        meetings=report.meetings_formed,
        stored=snapshot.counter("store.appended"),
        counters=snapshot.counters,
        maxima=snapshot.maxima,
    )


def _ingest_store(fixture: Fixture, store_dir: Path) -> Outcome:
    path = fixture.input("prefix.jsonl" if fixture.prefix else "windows.jsonl")
    telemetry = Telemetry()
    start = time.perf_counter()
    store = MetricsStore(store_dir, STORE_RW_CONFIG, telemetry=telemetry)
    report = backfill_jsonl(store, [path])
    for record in fixture.meetings:
        store.append(record)
    store.close()
    seconds = time.perf_counter() - start
    snapshot = telemetry.snapshot()
    return Outcome(
        seconds=seconds,
        store_dir=store_dir,
        accounted=report.windows + len(fixture.meetings),
        dropped=report.skipped_lines,
        meetings=len(fixture.meetings),
        stored=snapshot.counter("store.appended"),
        counters=snapshot.counters,
        maxima=snapshot.maxima,
    )


_INGEST = {
    "border98": _ingest_offline,
    "meeting_media": _ingest_offline,
    "campus_live": _ingest_live,
    "store_rw": _ingest_store,
}


# --------------------------------------------------------- correctness gate


@dataclass
class Gate:
    """Operations attempted and failed, with one line per failed check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, what: str, got: int, want: int, *, operations: int = 1) -> None:
        self.attempted += operations
        if got != want:
            self.failed += max(abs(got - want), 1)
            self.problems.append(f"{what}: got {got}, expected {want}")

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def check_counts(fixture: Fixture, outcome: Outcome, gate: Gate) -> None:
    """Every rep, from what the run itself reported (no disk access): frames
    offered == frames accounted with nothing dropped, and Zoom frames,
    streams and meetings against the generator — exactly offline, on
    ``campus_live`` within the grouping tolerance recorded in pins.json."""
    truth = fixture.truth
    gate.expect("frames accounted", outcome.accounted, fixture.offered,
                operations=fixture.offered)
    gate.expect("frames dropped", outcome.dropped, 0)
    if fixture.prefix or fixture.workload == "store_rw":
        return  # ground truth describes the whole packet input
    gate.expect("zoom frames", outcome.zoom, truth["zoom_frames"])
    if fixture.workload == "campus_live":
        slack = int(_campus_tolerance()["meetings_share"] * truth["meetings"])
        excess = max(abs(outcome.meetings - truth["meetings"]) - slack, 0)
        gate.expect("meetings beyond tolerance", excess, 0)
        return
    gate.expect("media streams", outcome.streams, truth["streams"])
    gate.expect("stream ssrcs", len(outcome.ssrcs ^ set(truth["ssrcs"])), 0)
    gate.expect("meetings", outcome.meetings, truth["meetings"])


def check_store(fixture: Fixture, outcome: Outcome, gate: Gate) -> None:
    """Once per run: reopen the store the last rep closed and read it back —
    every appended record is there, the stored windows' ``packets_total``
    sums to the frames offered, the streams carry the generator's SSRCs."""
    truth = fixture.truth
    store = MetricsStore(outcome.store_dir)
    gate.expect("records stored", store.record_count(), outcome.stored,
                operations=max(outcome.stored, 1))
    if fixture.prefix or fixture.workload in ("border98", "meeting_media"):
        return  # offline stores hold what check_counts already compared
    records = store.query(StoreQuery(kinds=ALL_KINDS)).records
    stored_packets = sum(r["packets_total"] for r in records if r["kind"] == "window")
    if fixture.workload == "store_rw":
        gate.expect("window records",
                    sum(1 for r in records if r["kind"] == "window"), truth["windows"])
        gate.expect("stored packets_total", stored_packets, truth["packets_total"])
        return
    gate.expect("stored window packets_total", stored_packets, fixture.offered)
    seen = {r["ssrc"] for r in records if r["kind"] == "stream"}
    missing = len(set(truth["ssrcs"]) - seen)
    allowed = int(_campus_tolerance()["ssrc_missing_share"] * len(truth["ssrcs"]))
    gate.expect("stream ssrcs missing beyond tolerance", max(missing - allowed, 0), 0)


def _campus_tolerance() -> dict:
    return load_json(PINS_JSON)["campus_tolerance"]


def zoom_share(fixture: Fixture) -> float:
    """Share of input frames that are Zoom (or WebRTC) media — printed beside
    the frame rate so frames/s and media packets/s sit side by side."""
    if fixture.workload not in PACKET_WORKLOADS:
        return 0.0
    return fixture.truth["zoom_frames"] / fixture.truth["items"]
