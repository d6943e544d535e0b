"""Child-process entry point: one phase of one workload, result as JSON.

``run.py`` never imports :mod:`repro`; it starts this script once per phase
so that every measurement begins in a fresh interpreter (a clean
``ru_maxrss``, no state left by an earlier phase) and so that set-up —
imports, cached-trace verification, fixture build — is paid here, where it
is timed from the first line of this file.

Phases: ``materialise`` (build missing inputs), ``setup`` (set-up only),
``measure`` (untraced ingest reps + query rounds), ``pyops`` (opcode-traced
prefix), ``profile`` (layer profile of one rep), ``spans`` (direct spans).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import INGEST_SHARE, SRC_DIR, dump_json, summary  # noqa: E402

if str(SRC_DIR) not in sys.path and (SRC_DIR / "repro").is_dir():
    sys.path.insert(0, str(SRC_DIR))


def _setup(args, *, prefix: bool = False):
    """Imports + cached-trace load + sha-256 verify + fixture build; returns
    the fixture and the seconds since this process started."""
    import workloads

    fixture = workloads.setup(
        args.workload, args.seed, args.scale, Path(args.work), prefix=prefix
    )
    return fixture, time.perf_counter() - _STARTED


def phase_materialise(args) -> dict:
    import traces

    started = time.perf_counter()
    truth = traces.materialise(args.workload, args.seed, args.scale)
    return {"materialise_s": time.perf_counter() - started, "items": truth["items"]}


def phase_setup(args) -> dict:
    _fixture, setup_s = _setup(args)
    return {"setup_s": setup_s}


def phase_measure(args) -> dict:
    fixture, setup_s = _setup(args)
    import queries
    import workloads
    from repro.store import MetricsStore

    gate = workloads.Gate()
    started = time.perf_counter()
    ingest_deadline = started + args.seconds * INGEST_SHARE[args.workload]
    reps: list[float] = []
    outcome = None
    # The first rep warms caches and lazy imports; at least one more is timed.
    while len(reps) < 2 or time.perf_counter() < ingest_deadline:
        outcome = workloads.ingest(fixture, workloads.fresh_dir(fixture, "store"))
        reps.append(outcome.seconds)
        workloads.check_counts(fixture, outcome, gate)
    workloads.check_store(fixture, outcome, gate)
    timed = reps[1:]
    store = MetricsStore(outcome.store_dir)
    mix = queries.build_mix(store)
    rounds = queries.run_rounds(
        store, mix, budget=args.seconds * (1.0 - INGEST_SHARE[args.workload])
    )
    compared, mismatched = queries.index_mismatches(store, mix)
    gate.attempted += len(mix) * rounds["rounds"] + compared
    if mismatched:
        gate.failed += mismatched
        gate.problems.append(f"{mismatched} of {compared} indexed answers differ from a full scan")
    latencies = rounds["latencies"]
    return {
        "setup_s": setup_s,
        "items": fixture.offered,
        "zoom_share": workloads.zoom_share(fixture),
        "rep_seconds": timed,
        "ingest_per_s": fixture.offered / min(timed),
        "ingest_per_s_reps": summary([fixture.offered / s for s in timed]),
        "query_p50_ms": queries.latency_ms(latencies, 0.50),
        "query_p95_ms": queries.latency_ms(latencies, 0.95),
        "query_samples": len(latencies),
        "query_rounds": rounds["rounds"],
        "store_records": store.record_count(),
        **gate.result(),
    }


def phase_pyops(args) -> dict:
    fixture, setup_s = _setup(args, prefix=True)
    import workloads
    from profiling import OpcodeCounter

    gate = workloads.Gate()
    # Untraced first: imports done lazily on the first pass would otherwise
    # be counted, and differ between a cold and a warm bytecode cache.
    workloads.ingest(fixture, workloads.fresh_dir(fixture, "store"))
    with OpcodeCounter() as counter:
        outcome = workloads.ingest(fixture, workloads.fresh_dir(fixture, "store"))
    workloads.check_counts(fixture, outcome, gate)
    workloads.check_store(fixture, outcome, gate)
    return {
        "setup_s": setup_s,
        "opcodes": counter.count,
        "items": fixture.offered,
        "pyops_per_item": counter.count / fixture.offered,
        "traced_s": outcome.seconds,
        **gate.result(),
    }


def phase_profile(args) -> dict:
    fixture, setup_s = _setup(args)
    import queries
    import workloads
    from metrics import COUNTERS
    from profiling import LAYERS, STAGES, LayerProfile
    from repro.core import ZoomAnalyzer
    from repro.store import MetricsStore

    gate = workloads.Gate()
    plain = min(
        workloads.ingest(fixture, workloads.fresh_dir(fixture, "store")).seconds
        for _ in range(2)
    )
    profile = LayerProfile()
    restore = _mark_requests(profile, args.workload, ZoomAnalyzer, MetricsStore)
    profile.start()
    try:
        outcome = workloads.ingest(fixture, workloads.fresh_dir(fixture, "store"))
        if args.workload == "store_rw":
            store = MetricsStore(outcome.store_dir)
            for _shape, query in queries.build_mix(store, size=60):
                store.query(query)
    finally:
        profile.stop()
        restore()
    workloads.check_counts(fixture, outcome, gate)
    workloads.check_store(fixture, outcome, gate)
    totals = profile.totals()
    items = fixture.offered
    busy = sum(layer["self_s"] for layer in totals["layers"].values()) or 1.0
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_share"] = totals["layers"][layer]["self_s"] / busy
        values[f"{layer}.calls_per_pkt"] = totals["layers"][layer]["calls"] / items
    for stage in STAGES:
        values[f"core.stages.{stage}.cum_us_per_pkt"] = (
            1e6 * totals["stage_cum_s"].get(stage, 0.0) / items
        )
        values[f"core.stages.{stage}.stop_ratio"] = (
            outcome.counters.get(f"pipeline.stop.{stage}", 0) / items
        )
    values["core.stages.completed_ratio"] = outcome.counters.get("pipeline.completed", 0) / items
    for name, counter in COUNTERS.items():
        values[name] = outcome.counters.get(counter, outcome.maxima.get(counter, 0))
    values["trace.overhead"] = outcome.seconds / plain
    requests = profile.request_records()
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            for request in requests:
                handle.write(json.dumps(request, sort_keys=True) + "\n")
    return {
        "setup_s": setup_s,
        "values": values,
        "requests": len(requests),
        "plain_s": plain,
        "profiled_s": outcome.seconds,
        **gate.result(),
    }


def _mark_requests(profile, workload: str, analyzer_class, store_class):
    """Wrap the public per-request entry points so the profile closes one
    request record after each: a ``FrameBatch`` on the packet workloads, an
    append burst or a query on ``store_rw``.  Returns the undo function."""
    burst = 256
    feed_batch, append, query = (
        analyzer_class.feed_batch, store_class.append, store_class.query,
    )

    def traced_feed_batch(self, batch):
        feed_batch(self, batch)
        profile.mark_request("batch")

    appended = [0]

    def traced_append(self, record):
        append(self, record)
        appended[0] += 1
        if appended[0] % burst == 0:
            profile.mark_request("append_burst")

    def traced_query(self, store_query):
        result = query(self, store_query)
        profile.mark_request("query")
        return result

    analyzer_class.feed_batch = traced_feed_batch
    if workload == "store_rw":
        store_class.append = traced_append
        store_class.query = traced_query

    def restore() -> None:
        analyzer_class.feed_batch = feed_batch
        store_class.append = append
        store_class.query = query

    return restore


def phase_spans(args) -> dict:
    fixture, setup_s = _setup(args)
    import spans
    import workloads
    from common import PACKET_WORKLOADS

    outcome = workloads.ingest(fixture, workloads.fresh_dir(fixture, "store"))
    values = spans.store_spans(fixture, outcome.store_dir)
    if args.workload in PACKET_WORKLOADS:
        values.update(spans.packet_spans(fixture))
    return {"setup_s": setup_s, "values": values, "attempted": 1, "failed": 0, "problems": []}


PHASES = {
    "materialise": phase_materialise,
    "setup": phase_setup,
    "measure": phase_measure,
    "pyops": phase_pyops,
    "profile": phase_profile,
    "spans": phase_spans,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", required=True, help="scratch directory for this phase")
    parser.add_argument("--out", required=True, help="where to write the phase's JSON result")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = PHASES[args.phase](args)
    dump_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
