"""Ingestion-path equivalence: every way into the analyzer, same analysis.

One invariant: an in-memory or simulated input is analysed exactly as a
capture file holding the same frames — same batches, same prefilter, same
counters.  Equality is judged on the summary reduction the golden snapshot
uses (:func:`golden_utils.summarize_result`: stream inventory, meeting
grouping, share tables, jitter/loss estimators) **and** on the run's full
counter dict, ``capture.*`` / ``prefilter.*`` / ``pipeline.batch.*``
included.
"""

import pytest

from tests.conftest import assert_matches_oracle, feed_batches, scalar_oracle, simulated
from tests.golden_utils import golden_config, summarize_result
from repro.core import AnalysisSession, AnalyzerConfig, ZoomAnalyzer
from repro.net.packet import CapturedPacket
from repro.net.pcap import PcapReader, write_pcap
from repro.net.source import IterableSource, PcapFileSource, SimulationSource
from repro.simulation import (
    CampusTraceConfig,
    MeetingConfig,
    MeetingSimulator,
    ParticipantConfig,
    generate_campus_trace,
    quantize_timestamp,
)


@pytest.fixture(scope="module")
def scenario():
    return MeetingConfig(
        meeting_id="equivalence",
        participants=(
            ParticipantConfig(name="alice", on_campus=True),
            ParticipantConfig(name="bob", join_time=0.7),
        ),
        duration=8.0,
        allow_p2p=False,
        seed=4242,
    )


@pytest.fixture(scope="module")
def sim_result(scenario):
    return MeetingSimulator(scenario).run()


@pytest.fixture(scope="module")
def pcap_path(tmp_path_factory, sim_result):
    path = tmp_path_factory.mktemp("equiv") / "meeting.pcap"
    write_pcap(path, sim_result.captures)
    return path


def _summary(source):
    session = AnalysisSession(AnalyzerConfig(telemetry=True))
    return summarize_result(session.run(source))


def _in_memory_is_analysed_exactly_as_a_file(captures, tmp_path, monkeypatch):
    """Plain list ≡ ``SimulationSource`` ≡ pcap of the same frames; returns
    the (shared) counter dict."""
    # A pcap batch aliases its read chunk, so it also ends where a 1 MiB
    # chunk ends; one chunk for the whole file keeps batch *counts* equal too.
    monkeypatch.setattr("repro.net.pcap._BATCH_CHUNK_BYTES", 1 << 26)
    path = tmp_path / "same-frames.pcap"
    write_pcap(path, captures)
    # A plain list carries its timestamps verbatim, so quantize them first:
    # the pcap writer's nanosecond rounding is not what is being compared.
    quantized = [CapturedPacket(quantize_timestamp(c.timestamp), c.data) for c in captures]
    config = AnalyzerConfig(telemetry=True, batch_size=512)
    runs = []
    for source in (quantized, SimulationSource(captures, batch_size=512), path):
        result = AnalysisSession(config).run(source)
        runs.append((summarize_result(result), result.telemetry_snapshot().counters))
    assert runs[0] == runs[1] == runs[2]
    counters = runs[0][1]
    assert counters["capture.frames"] == len(captures)
    assert counters["pipeline.batch.batches"] == -(-len(captures) // 512)
    assert counters["prefilter.passed"] + counters["prefilter.dropped"] == len(captures)
    return counters


class TestIngestionEquivalence:
    def test_simulation_source_matches_pcap_roundtrip(self, scenario, pcap_path):
        """Direct simulation ingest == write-pcap-then-stream-back."""
        assert _summary(SimulationSource(scenario)) == _summary(
            PcapFileSource(pcap_path)
        )

    def test_golden_scenario_sim_vs_roundtrip(self, tmp_path, monkeypatch):
        """The strongest meeting fixture we have (congestion, screen share,
        off-campus participant); every frame is Zoom's."""
        captures = simulated(golden_config()).captures
        counters = _in_memory_is_analysed_exactly_as_a_file(captures, tmp_path, monkeypatch)
        assert counters["prefilter.dropped"] == 0

    def test_in_memory_captures_match_pcap_roundtrip(self, tmp_path, monkeypatch):
        """A campus slice: SFU and P2P meetings inside ~40% background."""
        config = CampusTraceConfig(
            hours=1, meetings_per_hour_peak=2.0, meeting_duration=(6.0, 10.0),
            background_pps=2.0, seed=5,
        )
        captures = generate_campus_trace(config).all_packets()
        counters = _in_memory_is_analysed_exactly_as_a_file(captures, tmp_path, monkeypatch)
        assert counters["prefilter.dropped"] > 0

    def test_path_string_matches_explicit_source(self, pcap_path):
        assert _summary(str(pcap_path)) == _summary(PcapFileSource(pcap_path))

    def test_session_matches_legacy_analyze(self, pcap_path):
        """The file source's batches through ``feed_batch`` count what the
        per-packet decision tree counts over the same frames, one by one."""
        analyzer = ZoomAnalyzer(AnalyzerConfig(telemetry=True))
        with PcapFileSource(pcap_path, batch_size=300) as source:
            survivors = feed_batches(analyzer, source.frame_batches())
        oracle = scalar_oracle(analyzer.config, list(PcapReader(pcap_path)))
        assert_matches_oracle(analyzer, oracle, survivors)

    def test_unquantized_iterable_differs_only_in_timestamps(self, sim_result):
        """Sanity check on the quantization argument: raw simulator
        timestamps pass through IterableSource unrounded."""
        raw = list(IterableSource(sim_result.captures))
        quantized = list(SimulationSource(sim_result.captures))
        assert len(raw) == len(quantized)
        assert all(
            abs(r.timestamp - q.timestamp) < 1e-8
            for r, q in zip(raw, quantized)
        )
