"""Ingestion-path equivalence: every way into the analyzer, same metrics.

The refactor's core promise: analyzing a simulated meeting *directly*
(:class:`SimulationSource`, no pcap round trip) is byte-for-byte
metric-equivalent to writing the pcap and streaming it back, which in turn
matches handing the analyzer an in-memory packet list.  Equality is judged
on the same summary reduction the golden snapshot uses
(:func:`golden_utils.summarize_result`), so stream inventory, meeting
grouping, share tables, jitter/loss estimators, and shard-invariant
telemetry counters must all agree exactly.
"""

import pytest

from tests.conftest import feed_prepared
from tests.golden_utils import golden_config, summarize_result
from repro.core import AnalysisSession, AnalyzerConfig, ZoomAnalyzer
from repro.net.pcap import PcapReader, write_pcap
from repro.net.source import IterableSource, PcapFileSource, SimulationSource
from repro.simulation import MeetingConfig, MeetingSimulator, ParticipantConfig


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


class TestIngestionEquivalence:
    def test_simulation_source_matches_pcap_roundtrip(self, scenario, pcap_path):
        """Direct simulation ingest == write-pcap-then-stream-back."""
        assert _summary(SimulationSource(scenario)) == _summary(
            PcapFileSource(pcap_path)
        )

    def test_in_memory_captures_match_pcap_roundtrip(self, sim_result, pcap_path):
        assert _summary(SimulationSource(sim_result.captures)) == _summary(
            PcapFileSource(pcap_path)
        )

    def test_path_string_matches_explicit_source(self, pcap_path):
        assert _summary(str(pcap_path)) == _summary(PcapFileSource(pcap_path))

    def test_session_matches_legacy_analyze(self, pcap_path):
        """The front door over the file's raw batches reproduces the
        prefilter-free reference — the same frames read one by one and fed
        as a prepared batch — telemetry counters included."""
        from repro.telemetry import Telemetry

        telemetry = Telemetry(enabled=True)
        packets = list(PcapReader(pcap_path, telemetry=telemetry))
        reference = ZoomAnalyzer(AnalyzerConfig(telemetry=telemetry))
        reference_summary = summarize_result(feed_prepared(reference, packets))
        assert _summary(PcapFileSource(pcap_path)) == reference_summary

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

    def test_golden_scenario_sim_vs_roundtrip(self, tmp_path):
        """The golden meeting itself, both ways — the strongest fixture we
        have (congestion, screen share, off-campus participant)."""
        config = golden_config()
        captures = MeetingSimulator(config).run().captures
        path = tmp_path / "golden.pcap"
        write_pcap(path, captures)
        assert _summary(SimulationSource(config)) == _summary(PcapFileSource(path))
