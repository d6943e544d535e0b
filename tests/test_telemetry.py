"""Unit tests for the telemetry subsystem: registry, report, anomalies,
and the tolerant capture readers that record into it."""

from __future__ import annotations

import io
import logging
import struct

import pytest

from repro.net.packet import CapturedPacket
from repro.net.pcap import PcapReader, PcapWriter
from repro.net.pcapng import PcapngReader, PcapngWriter
from repro.telemetry import (
    Anomaly,
    Telemetry,
    coerce_telemetry,
    detect_anomalies,
    log_anomalies,
    packets_entering,
    render_stats,
    shard_invariant_counters,
    stage_flow_rows,
)
from repro.telemetry.anomalies import LOGGER_NAME
from repro.telemetry.registry import Histogram


class TestRegistry:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("a.b")
        tel.count("a.b", 4)
        tel.count("a.c", 2)
        assert tel.counter("a.b") == 5
        assert tel.counter("a.c") == 2
        assert tel.counter("missing") == 0

    def test_disabled_registry_records_nothing(self):
        tel = Telemetry(enabled=False)
        tel.count("a")
        tel.add_time("t", 1.0)
        tel.record_max("m", 9.0)
        tel.observe("h", 3.0)
        snapshot = tel.snapshot()
        assert snapshot.counters == {}
        assert snapshot.timer_seconds == {}
        assert snapshot.maxima == {}
        assert snapshot.histograms == {}

    def test_timer_mean_is_per_sample(self):
        tel = Telemetry()
        tel.add_time("stage.time.decode", 0.004, samples=2)
        snapshot = tel.snapshot()
        assert snapshot.timer_mean_us("stage.time.decode") == pytest.approx(2000.0)
        assert snapshot.timer_mean_us("never.recorded") == 0.0

    def test_record_max_is_high_water(self):
        tel = Telemetry()
        tel.record_max("g", 5.0)
        tel.record_max("g", 3.0)
        tel.record_max("g", 7.0)
        assert tel.snapshot().maxima["g"] == 7.0

    def test_merge_sums_counters_and_maxes_gauges(self):
        a = Telemetry()
        a.count("x", 3)
        a.add_time("t", 0.5, samples=5)
        a.record_max("g", 2.0)
        a.observe("h", 10)
        b = Telemetry()
        b.count("x", 4)
        b.count("y", 1)
        b.add_time("t", 0.25, samples=5)
        b.record_max("g", 9.0)
        b.observe("h", 2)
        merged = Telemetry.merged([a, b])
        snapshot = merged.snapshot()
        assert snapshot.counters == {"x": 7, "y": 1}
        assert snapshot.timer_seconds["t"] == pytest.approx(0.75)
        assert snapshot.timer_samples["t"] == 10
        assert snapshot.maxima["g"] == 9.0
        assert snapshot.histograms["h"]["count"] == 2

    def test_merge_from_disabled_inputs_stays_disabled(self):
        merged = Telemetry.merged([Telemetry(enabled=False)])
        assert merged.enabled is False
        merged2 = Telemetry.merged([Telemetry(enabled=False), Telemetry(enabled=True)])
        assert merged2.enabled is True

    def test_coerce(self):
        registry = Telemetry(enabled=False)
        assert coerce_telemetry(registry) is registry
        assert coerce_telemetry(True).enabled is True
        assert coerce_telemetry(None).enabled is True
        assert coerce_telemetry(False).enabled is False

    def test_snapshot_is_a_copy(self):
        tel = Telemetry()
        tel.count("a")
        snapshot = tel.snapshot()
        tel.count("a")
        assert snapshot.counter("a") == 1
        assert tel.counter("a") == 2

    def test_counters_under_strips_prefix(self):
        tel = Telemetry()
        tel.count("classify.class.media_udp", 7)
        tel.count("classify.class.other", 1)
        tel.count("capture.frames", 9)
        under = tel.snapshot().counters_under("classify.class.")
        assert under == {"media_udp": 7, "other": 1}

    def test_to_dict_round_trips_through_json(self):
        import json

        tel = Telemetry()
        tel.count("a", 2)
        tel.add_time("t", 0.125)
        tel.record_max("m", 4.0)
        tel.observe("h", 3)
        parsed = json.loads(json.dumps(tel.snapshot().to_dict()))
        assert parsed["counters"] == {"a": 2}
        assert parsed["timers"]["t"] == {"seconds": 0.125, "samples": 1}
        assert parsed["maxima"] == {"m": 4.0}
        assert parsed["histograms"]["h"]["count"] == 1

    def test_shard_invariant_filter(self):
        tel = Telemetry()
        tel.count("capture.frames", 10)
        tel.count("assemble.meetings_formed", 2)
        tel.count("assemble.stream_opened", 5)
        tel.count("sharded.shard_packets.0", 6)
        tel.count("rolling.sweeps", 3)
        invariant = shard_invariant_counters(tel.snapshot())
        assert invariant == {"capture.frames": 10, "assemble.stream_opened": 5}


class TestHistogram:
    def test_power_of_two_buckets(self):
        hist = Histogram()
        for value in (0, 0.5, 1, 2, 3, 4, 1000):
            hist.observe(value)
        # 0 and 0.5 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 -> 10
        assert hist.buckets == {0: 2, 1: 1, 2: 2, 3: 1, 10: 1}
        assert hist.count == 7
        assert hist.max == 1000
        assert hist.mean == pytest.approx(1010.5 / 7)

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(1)
        b.observe(1)
        b.observe(64)
        a.merge_from(b)
        assert a.count == 3
        assert a.max == 64
        assert a.buckets[1] == 2

    def test_empty_mean(self):
        assert Histogram().mean == 0.0


class TestReport:
    def _pipeline_snapshot(self) -> Telemetry:
        tel = Telemetry()
        tel.count("capture.frames", 100)
        tel.count("capture.bytes", 64000)
        tel.count("pipeline.stop.decode", 5)
        tel.count("pipeline.stop.classify", 20)
        tel.count("pipeline.stop.zoom-demux", 10)
        tel.count("pipeline.completed", 65)
        tel.add_time("stage.time.decode", 0.001, samples=10)
        tel.count("classify.class.media_udp", 75)
        tel.count("classify.bytes.media_udp", 48000)
        tel.count("demux.undecoded", 10)
        tel.count("assemble.stream_opened", 4)
        tel.count("assemble.meetings_formed", 1)
        return tel

    def test_packets_entering_reconstructs_total(self):
        snapshot = self._pipeline_snapshot().snapshot()
        assert packets_entering(snapshot) == 100

    def test_stage_flow_rows_derive_in_out(self):
        rows = stage_flow_rows(self._pipeline_snapshot().snapshot())
        by_stage = {row[0]: row for row in rows}
        assert by_stage["decode"][1:4] == (100, 5, 95)
        assert by_stage["classify"][1:4] == (95, 20, 75)
        assert by_stage["zoom-demux"][1:4] == (75, 10, 65)
        assert by_stage["metrics"][3] == 65  # everything left completes
        assert by_stage["decode"][4] == pytest.approx(100.0)  # 1ms / 10 samples

    def test_render_stats_sections(self):
        text = render_stats(self._pipeline_snapshot().snapshot())
        assert "capture input:" in text
        assert "pipeline flow (100 packets):" in text
        assert "classification outcomes:" in text
        assert "drops and side channels:" in text
        assert "stream lifecycle:" in text
        # No sharded/rolling counters recorded -> those sections are absent.
        assert "shard balance" not in text
        assert "rolling eviction" not in text

    def test_render_stats_empty_snapshot(self):
        text = render_stats(Telemetry().snapshot())
        assert "no data recorded" in text


class TestAnomalies:
    def test_clean_snapshot_has_no_findings(self):
        tel = Telemetry()
        tel.count("demux.media_class_packets", 1000)
        tel.count("demux.undecoded", 100)  # 10%: the paper's healthy share
        assert detect_anomalies(tel.snapshot()) == []

    def test_undecoded_fraction_threshold(self):
        tel = Telemetry()
        tel.count("demux.media_class_packets", 100)
        tel.count("demux.undecoded", 30)
        findings = detect_anomalies(tel.snapshot())
        assert [a.name for a in findings] == ["undecoded-media"]
        assert detect_anomalies(tel.snapshot(), undecoded_fraction=0.5) == []

    def test_capture_problems_flagged(self):
        tel = Telemetry()
        tel.count("capture.truncated")
        tel.count("decode.parse_failures", 3)
        names = {a.name for a in detect_anomalies(tel.snapshot())}
        assert names == {"truncated-capture", "frame-parse-failures"}

    def test_shard_imbalance(self):
        tel = Telemetry()
        tel.count("sharded.shard_packets.0", 9000)
        tel.count("sharded.shard_packets.1", 100)
        tel.count("sharded.shard_packets.2", 100)
        tel.count("sharded.shard_packets.3", 100)
        findings = detect_anomalies(tel.snapshot())
        assert [a.name for a in findings] == ["shard-imbalance"]
        assert detect_anomalies(tel.snapshot(), shard_imbalance_share=0.99) == []
        balanced = Telemetry()
        for shard in range(4):
            balanced.count(f"sharded.shard_packets.{shard}", 1000)
        assert detect_anomalies(balanced.snapshot()) == []

    def test_receiver_reports_flagged(self):
        tel = Telemetry()
        tel.count("demux.rtcp_receiver_reports", 2)
        findings = detect_anomalies(tel.snapshot())
        assert [a.name for a in findings] == ["rtcp-receiver-reports"]
        assert isinstance(findings[0], Anomaly)

    def test_service_ingest_restarts_flagged(self):
        tel = Telemetry()
        tel.count("service.ingest_restarts", 3)
        findings = detect_anomalies(tel.snapshot())
        assert [a.name for a in findings] == ["service-ingest-restarts"]
        assert findings[0].value == 3

    def test_log_anomalies_warns_with_counter_context(self, caplog):
        tel = Telemetry()
        tel.count("capture.truncated", 2)
        with caplog.at_level(logging.WARNING, logger=LOGGER_NAME):
            findings = log_anomalies(tel.snapshot())
        assert len(findings) == 1
        assert len(caplog.records) == 1
        record = caplog.records[0]
        assert "truncated-capture" in record.getMessage()
        assert record.telemetry_counter == "capture.truncated"

    def test_log_anomalies_silent_when_clean(self, caplog):
        with caplog.at_level(logging.WARNING, logger=LOGGER_NAME):
            assert log_anomalies(Telemetry().snapshot()) == []
        assert caplog.records == []


def _frames(count: int) -> list[CapturedPacket]:
    return [CapturedPacket(float(i), bytes(60)) for i in range(count)]


class TestCaptureReaderTelemetry:
    def test_pcap_reader_counts_frames_and_bytes(self, tmp_path):
        path = tmp_path / "t.pcap"
        with PcapWriter(path) as writer:
            writer.write_all(_frames(5))
        tel = Telemetry()
        packets = list(PcapReader(path, telemetry=tel))
        assert len(packets) == 5
        assert tel.counter("capture.frames") == 5
        assert tel.counter("capture.bytes") == 300

    def test_pcap_truncated_tail_tolerant(self, tmp_path):
        path = tmp_path / "t.pcap"
        with PcapWriter(path) as writer:
            writer.write_all(_frames(3))
        data = path.read_bytes()[:-10]  # cut into the last record's payload
        tel = Telemetry()
        reader = PcapReader(io.BytesIO(data), telemetry=tel, tolerant=True)
        packets = list(reader)
        assert len(packets) == 2
        assert tel.counter("capture.truncated") == 1
        assert tel.counter("capture.frames") == 2

    def test_pcap_truncated_tail_strict_raises(self, tmp_path):
        path = tmp_path / "t.pcap"
        with PcapWriter(path) as writer:
            writer.write_all(_frames(3))
        data = path.read_bytes()[:-10]
        with pytest.raises(ValueError):
            list(PcapReader(io.BytesIO(data)))

    def test_pcapng_reader_counts_and_skips_unknown_blocks(self, tmp_path):
        path = tmp_path / "t.pcapng"
        with PcapngWriter(path) as writer:
            writer.write_all(_frames(4))
        # Append an unknown block type; spec says skip by length.
        unknown = struct.pack("<II", 0x0BAD0000, 16) + b"\x00" * 4 + struct.pack("<I", 16)
        data = path.read_bytes() + unknown
        tel = Telemetry()
        packets = list(PcapngReader(io.BytesIO(data), telemetry=tel))
        assert len(packets) == 4
        assert tel.counter("capture.frames") == 4
        assert tel.counter("capture.unknown_blocks") == 1

    def test_pcapng_truncated_tail_tolerant(self, tmp_path):
        path = tmp_path / "t.pcapng"
        with PcapngWriter(path) as writer:
            writer.write_all(_frames(3))
        data = path.read_bytes()[:-8]
        tel = Telemetry()
        packets = list(PcapngReader(io.BytesIO(data), telemetry=tel, tolerant=True))
        assert len(packets) == 2
        assert tel.counter("capture.truncated") == 1

    def test_pcapng_truncated_tail_strict_raises(self, tmp_path):
        path = tmp_path / "t.pcapng"
        with PcapngWriter(path) as writer:
            writer.write_all(_frames(3))
        data = path.read_bytes()[:-8]
        with pytest.raises(ValueError):
            list(PcapngReader(io.BytesIO(data)))
