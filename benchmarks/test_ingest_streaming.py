"""Streaming vs eager capture ingest: peak memory and wall time.

The pre-PacketSource analyzers materialized every capture as a
``list[CapturedPacket]`` before the first packet was analyzed.  This
experiment pins down what the streaming readers buy: the same campus-scale
pcap is analyzed (a) the old way — every frame read into a list, then
``analyze`` — and (b) through ``AnalysisSession`` over a
:class:`~repro.net.source.PcapFileSource`, which never holds more than one
batch.  Peak allocation is measured with :mod:`tracemalloc`; the analysis
results are asserted identical before any number is reported.
"""

import time
import tracemalloc

from repro.analysis.tables import format_table
from repro.core import AnalysisSession, AnalyzerConfig, ZoomAnalyzer
from repro.net.pcap import PcapReader, write_pcap
from repro.net.source import PcapFileSource


def _measure(fn):
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def test_ingest_streaming_vs_eager(campus, tmp_path, report):
    trace, _model, _analysis = campus
    pcap_path = tmp_path / "campus.pcap"
    packet_count = write_pcap(pcap_path, trace.result.captures)
    file_bytes = pcap_path.stat().st_size

    def eager():
        packets = list(PcapReader(pcap_path))
        return ZoomAnalyzer().analyze(packets)

    def streaming_batch():
        # Raw FrameBatch buffers off the file: columnar decode, lazy
        # survivors, one read chunk in memory at a time.
        session = AnalysisSession(AnalyzerConfig())
        return session.run(PcapFileSource(pcap_path))

    eager_result, eager_time, eager_peak = _measure(eager)
    batch_result, batch_time, batch_peak = _measure(streaming_batch)

    # Same capture, same pipeline — the ingest paths must agree before
    # their costs are worth comparing.
    assert batch_result.packets_total == eager_result.packets_total
    assert batch_result.packets_zoom == eager_result.packets_zoom
    assert len(batch_result.streams) == len(eager_result.streams)
    assert batch_result.encap_share_table() == eager_result.encap_share_table()

    # The point of the streaming reader: peak allocation should not grow
    # with the capture (eager holds every frame at once) — it buffers one
    # read chunk plus its columns, never the whole capture.
    assert batch_peak < eager_peak

    mib = 1024 * 1024
    report(
        "ingest_streaming",
        format_table(
            ["ingest path", "wall s", "peak MiB", "packets/s"],
            [
                (
                    "eager (list of frames + analyze)",
                    f"{eager_time:.2f}",
                    f"{eager_peak / mib:.1f}",
                    int(packet_count / eager_time),
                ),
                (
                    "streaming (raw FrameBatch buffers)",
                    f"{batch_time:.2f}",
                    f"{batch_peak / mib:.1f}",
                    int(packet_count / batch_time),
                ),
            ],
        )
        + f"\n\ncapture: {packet_count} packets, {file_bytes / mib:.1f} MiB on disk"
        + f"\npeak-memory ratio (eager/streaming): "
        f"{eager_peak / batch_peak:.1f}x"
        + "\nnote: the campus trace is nearly all Zoom, so the batch "
        "prefilter passes ~everything; it pays off on border-style mixes "
        "— see the border98 workload of benchmarks/harness",
    )
