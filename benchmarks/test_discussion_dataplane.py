"""§8 — accuracy of switch-feasible approximate metrics vs exact ones.

The paper predicts that data-plane implementations of its metrics are
possible but that "the space constraints of high-speed programmable switches
may require approximate data structures limiting overall accuracy".  This
benchmark quantifies that trade-off on the validation call: integer/shift
jitter and register-window frame rate vs the exact estimators, across
register-array sizes (collision pressure).
"""

from collections import defaultdict

from repro.analysis.tables import format_table
from repro.capture.register_metrics import DataplaneMetrics, stream_key_bytes
from repro.core import AnalyzerConfig, ZoomAnalyzer


def test_dataplane_accuracy(campus, report, benchmark):
    trace, _model, _analysis = campus
    retained = ZoomAnalyzer(AnalyzerConfig(keep_records=True)).analyze(trace.result.captures)
    streams = [
        s for s in retained.media_streams() if s.media_type == 16 and s.packets > 100
    ]

    def run_variants():
        rows = []
        for buckets in (16, 256, 16384):
            metrics = DataplaneMetrics(buckets=buckets)
            for stream in streams:
                for record in stream.records:
                    metrics.observe(record)
            jitter_error = []
            fps_error = []
            for stream in streams:
                exact = retained.metrics_for(stream.key)
                key = stream_key_bytes(stream.records[-1])
                jitter_error.append(
                    abs(metrics.jitter.jitter_seconds(key) - exact.jitter.jitter) * 1000
                )
                tail_fps = [
                    s.fps
                    for s in exact.framerate_delivered.samples
                    if s.time > stream.last_time - 2
                ]
                if tail_fps:
                    fps_error.append(
                        abs(metrics.framerate.rate(key) - sum(tail_fps) / len(tail_fps))
                    )
            sram = metrics.resource_estimate()["sram_percent"]
            rows.append(
                (
                    buckets,
                    sum(jitter_error) / len(jitter_error),
                    sum(fps_error) / len(fps_error) if fps_error else float("nan"),
                    sram,
                )
            )
        return rows

    rows = benchmark.pedantic(run_variants, rounds=1, iterations=1)
    report(
        "discussion_dataplane_accuracy",
        format_table(
            ["register buckets", "mean |jitter err| ms", "mean |fps err|", "SRAM %"],
            rows,
        )
        + "\n(large arrays: sub-ms jitter and ~1 fps agreement; tiny arrays"
        "\n show the collision-induced accuracy loss the paper anticipates)",
    )
    by_buckets = {buckets: (jerr, ferr, sram) for buckets, jerr, ferr, sram in rows}
    # With ample registers the approximation is excellent...
    assert by_buckets[16384][0] < 1.0
    assert by_buckets[16384][1] < 4.0
    # ...and still cheap in SRAM.
    assert by_buckets[16384][2] < 15.0
    # Collision pressure (141 streams in 16 slots) degrades accuracy.
    assert by_buckets[16][0] > 2.0 * max(by_buckets[16384][0], 0.01)


def test_dataplane_throughput(validation, benchmark):
    """Per-packet cost of the three estimators (the switch does this at
    line rate; the model's Python throughput bounds simulation scale)."""
    result, _analysis = validation
    retained = ZoomAnalyzer(AnalyzerConfig(keep_records=True)).analyze(result.captures)
    records = []
    for stream in retained.media_streams():
        records.extend(stream.records)
    records.sort(key=lambda r: r.timestamp)
    per_second = defaultdict(int)
    for record in records:
        per_second[int(record.timestamp)] += 1

    def process_all():
        metrics = DataplaneMetrics(buckets=8192)
        for record in records:
            metrics.observe(record)
        return metrics.jitter.updates

    updates = benchmark(process_all)
    assert updates > 1000
