"""Direct spans: timing single layers through their public functions.

The layer profile says where a whole run's time went; these spans time one
layer at a time on in-memory batches of the workload's own input, so a
change to, say, the columnar decoder shows as ``net.decode_columns.fps``
without the rest of the pipeline around it.  Fast paths run over the whole
input; the per-packet-expensive ones (materialisation, the pure-Python cBPF
interpreter, the analyzer itself) over the workload's fixed prefix.

Each span reports its best of :data:`REPS` passes.  ``dataplane.cbpf.*``,
``dataplane.live.*`` and ``core.sharded.*`` are informational: no
end-to-end run executes them, so they move no end-to-end metric.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from repro.core import FleetConfig, FleetNodeConfig, ShardedAnalyzer, ZoomAnalyzer
from repro.dataplane import (
    CaptureRules,
    DataplaneFilter,
    LiveInterfaceSource,
    RawFrameFilter,
    SimulatedPacketSocket,
    compile_cbpf,
    run_cbpf,
)
from repro.fleet import federated_query
from repro.net.batch import BatchPrefilter, decode_columns
from repro.net.pcap import PcapReader
from repro.service.tail import CaptureDirectoryTailer
from repro.store import MetricsStore, StoreQuery

import queries
from common import ALL_KINDS, percentile
from workloads import Fixture, analyzer_config, fresh_dir

REPS = 3
_ANALYZE_BATCH_FRAMES = 512
_MATERIALIZE_CAP = 5000
_FLEET_NODES = 3


def _best(function, reps: int = REPS) -> tuple[float, object]:
    best, value = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        value = function()
        best = min(best, time.perf_counter() - start)
    return best, value


def _input_files(fixture: Fixture, stem: str) -> list[Path]:
    directory = Path(fixture.truth["dir"])
    if fixture.workload == "campus_live":
        return sorted(directory.glob(f"{stem}-*.pcap"))
    return [directory / f"{stem}.pcap"]


def _read_batches(paths: list[Path], max_frames: int | None = None) -> list:
    batches = []
    for path in paths:
        with PcapReader(path) as reader:
            if max_frames is None:
                batches.extend(reader.read_batches())
            else:
                batches.extend(reader.read_batches(max_frames))
    return batches


def packet_spans(fixture: Fixture) -> dict[str, float]:
    """``net.*``, ``dataplane.*``, ``core.analyze.*``, ``core.sharded.*`` and
    ``telemetry.overhead`` on this workload's capture."""
    config = analyzer_config(fixture.workload)
    full = _input_files(fixture, "input")
    prefix = _input_files(fixture, "prefix")
    metrics = _whole_input_spans(config, full)
    metrics.update(_prefix_spans(config, prefix))
    metrics.update(_sharded_spans(config, full))
    if fixture.workload == "campus_live":
        def tail() -> int:
            tailer = CaptureDirectoryTailer(Path(fixture.truth["dir"]), pattern="input-*.pcap")
            return sum(len(batch) for batch in tailer.poll())

        seconds, frames = _best(tail)
        metrics["service.tail.read_fps"] = frames / seconds
    return metrics


def _whole_input_spans(config, paths: list[Path]) -> dict[str, float]:
    """Read, columnar decode, and both prefilter tiers: the per-frame-cheap
    paths, over every frame of the input."""
    plugins = ZoomAnalyzer(config).plugins
    metrics: dict[str, float] = {}

    def read_all() -> tuple[int, int]:
        frames = size = 0
        for path in paths:
            with PcapReader(path) as reader:
                for batch in reader.read_batches():
                    frames += len(batch)
                    size += batch.total_caplen
        return frames, size

    seconds, (frames, size) = _best(read_all)
    metrics["net.read.fps"] = frames / seconds
    metrics["net.read.mib_per_s"] = size / seconds / (1 << 20)

    batches = _read_batches(paths)
    seconds, columns = _best(lambda: [decode_columns(batch) for batch in batches])
    metrics["net.decode_columns.fps"] = frames / seconds

    def prefilter_pass() -> int:
        prefilter = BatchPrefilter.from_plugins(plugins)
        return sum(
            prefilter.apply(batch, cols).passed for batch, cols in zip(batches, columns)
        )

    seconds, passed = _best(prefilter_pass)
    metrics["net.prefilter.fps"] = frames / seconds
    metrics["net.prefilter.pass_ratio"] = passed / frames

    def raw_pass() -> int:
        raw = RawFrameFilter(BatchPrefilter.from_plugins(plugins))
        return sum(raw.filter_batch(batch)[1].passed for batch in batches)

    seconds, passed = _best(raw_pass)
    metrics["dataplane.rawfilter.fps"] = frames / seconds
    metrics["dataplane.rawfilter.pass_ratio"] = passed / frames
    return metrics


def _prefix_spans(config, paths: list[Path]) -> dict[str, float]:
    """Materialisation, the cBPF interpreter, the simulated live socket and
    the analyzer itself: per-packet-expensive, so over the prefix only."""
    plugins = ZoomAnalyzer(config).plugins
    metrics: dict[str, float] = {}
    batches = _read_batches(paths, _ANALYZE_BATCH_FRAMES)
    frames = sum(len(batch) for batch in batches)
    prefilter = BatchPrefilter.from_plugins(plugins)
    survivors = [
        (batch, index)
        for batch in batches
        for index in prefilter.apply(batch, decode_columns(batch)).survivors
    ][:_MATERIALIZE_CAP]
    seconds, _ = _best(lambda: [batch.materialize(index) for batch, index in survivors])
    metrics["net.materialize.us_per_pkt"] = 1e6 * seconds / max(len(survivors), 1)

    program = compile_cbpf(CaptureRules.from_prefilter(prefilter))
    metrics["dataplane.cbpf.program_insns"] = len(program)

    def interpret() -> int:
        return sum(
            1 for batch in batches for frame, _ in batch.iter_frames() if run_cbpf(program, frame)
        )

    seconds, _ = _best(interpret, reps=1)
    metrics["dataplane.cbpf.interp_fps"] = frames / seconds

    def live_replay() -> int:
        drops = 0
        for path in paths:
            source = LiveInterfaceSource(
                SimulatedPacketSocket.replay(path),
                dataplane=DataplaneFilter.from_plugins(ZoomAnalyzer(config).plugins),
            )
            for _batch in source.frame_batches():
                pass
            drops += source.kernel_drops
            source.close()
        return drops

    seconds, drops = _best(live_replay, reps=1)
    metrics["dataplane.live.sim_fps"] = frames / seconds
    metrics["dataplane.live.kernel_drops"] = drops

    def analyze(telemetry: bool) -> tuple[list[float], int]:
        analyzer = ZoomAnalyzer(config.replace(telemetry=telemetry))
        times = []
        for batch in batches:
            start = time.perf_counter()
            analyzer.feed_batch(batch)
            times.append(time.perf_counter() - start)
        return times, analyzer.result.packets_zoom

    with_seconds, (batch_times, media) = _best(lambda: analyze(True))
    without_seconds, _ = _best(lambda: analyze(False))
    metrics["core.analyze.media_pps"] = media / with_seconds
    metrics["core.analyze.batch_p50_ms"] = 1000 * percentile(batch_times, 0.5)
    metrics["core.analyze.batch_p90_ms"] = 1000 * percentile(batch_times, 0.9)
    metrics["telemetry.overhead"] = with_seconds / without_seconds
    return metrics


def _sharded_spans(config, paths: list[Path]) -> dict[str, float]:
    """The process backend on both cores against one pass, whole input."""
    offline = config.replace(rolling=False)

    def single() -> int:
        analyzer = ZoomAnalyzer(offline)
        for path in paths:
            analyzer.run(path)
        return analyzer.result.packets_total

    def sharded() -> int:
        driver = ShardedAnalyzer(offline.replace(shards=2, shard_backend="process"))
        return sum(driver.run(path).packets_total for path in paths)

    single_seconds, frames = _best(single, reps=1)
    sharded_seconds, _ = _best(sharded, reps=1)
    return {
        "core.sharded.pps_2proc": frames / sharded_seconds,
        "core.sharded.speedup": single_seconds / sharded_seconds,
    }


def store_spans(fixture: Fixture, store_dir: Path) -> dict[str, float]:
    """``store.*`` and ``fleet.query.*`` on the store a plain rep wrote."""
    metrics: dict[str, float] = {}
    seconds, store = _best(lambda: MetricsStore(store_dir), reps=5)
    metrics["store.open_ms"] = 1000 * seconds
    metrics["store.bytes_per_record"] = store.total_bytes() / max(store.record_count(), 1)

    mix = queries.build_mix(store)
    rounds = queries.run_rounds(store, mix, budget=0.0)
    latencies, plan = rounds["latencies"], rounds["plan"]
    for shape in ("narrow", "meeting", "reagg"):
        metrics[f"store.query.{shape}_p50_ms"] = queries.shape_p50_ms(mix, latencies, shape)
    segments = plan["skipped"] + plan["scanned"]
    metrics["store.query.skip_ratio"] = plan["skipped"] / segments if segments else 0.0
    metrics["store.query.examined_ratio"] = (
        plan["returned"] / plan["examined"] if plan["examined"] else 0.0
    )

    # The same records through append ... close, without the input parsing.
    records = store.query(StoreQuery(kinds=ALL_KINDS)).records
    config = store.config

    def reappend() -> None:
        target = MetricsStore(fresh_dir(fixture, "reappend"), config)
        for record in records:
            target.append(record)
        target.close()

    seconds, _ = _best(reappend)
    metrics["store.append.rps"] = len(records) / seconds

    compacting = fresh_dir(fixture, "compacting")
    shutil.copytree(store_dir, compacting)
    seconds, _ = _best(MetricsStore(compacting, config).compact, reps=1)
    metrics["store.compact_s"] = seconds

    # Three store-dir nodes holding a partition of the same records.
    nodes, stores = [], {}
    writers = [
        MetricsStore(fresh_dir(fixture, f"node{index}"), config) for index in range(_FLEET_NODES)
    ]
    for index, record in enumerate(records):
        writers[index % _FLEET_NODES].append(record)
    for index, writer in enumerate(writers):
        writer.close()
        name = f"n{index}"
        nodes.append(FleetNodeConfig(name=name, store_dir=str(writer.directory)))
        stores[name] = MetricsStore(writer.directory)
    fleet = FleetConfig(nodes=tuple(nodes))
    sample = [query for _shape, query in mix[:30]]

    def timed(run) -> list[float]:
        times = []
        for query in sample:
            start = time.perf_counter()
            run(query)
            times.append(time.perf_counter() - start)
        return times

    single = timed(store.query)
    federated = timed(lambda query: federated_query(fleet, query, local_stores=stores))
    metrics["fleet.query.p50_ms"] = 1000 * percentile(federated, 0.5)
    metrics["fleet.query.overhead"] = sum(federated) / sum(single)
    return metrics
