"""Tests for the P4 capture model, registers, anonymizer, and resources (§6.1)."""

import pytest

from repro.capture.anonymize import Anonymizer
from repro.capture.p4_model import P4CaptureModel
from repro.capture.registers import HashRegisterArray, endpoint_key
from repro.capture.resources import (
    TOFINO_BUDGET,
    component_usage,
    fits_budget,
    resource_usage_table,
    total_usage,
)
from repro.net.packet import CapturedPacket, build_tcp_frame, build_udp_frame, parse_frame
from repro.rtp.stun import StunMessage

ZOOM = "170.114.10.5"
ZC = "170.114.200.9"
CAMPUS = "10.8.1.20"
EXTERNAL = "93.184.216.34"
PEER = "198.18.2.30"


class TestRegisters:
    def test_insert_and_lookup(self):
        registers = HashRegisterArray(1024, timeout=10.0)
        registers.insert(endpoint_key(CAMPUS, 52001), now=1.0)
        assert registers.contains(endpoint_key(CAMPUS, 52001), now=5.0)
        assert not registers.contains(endpoint_key(CAMPUS, 52002), now=5.0)

    def test_timeout(self):
        registers = HashRegisterArray(1024, timeout=10.0)
        registers.insert(endpoint_key(CAMPUS, 52001), now=1.0)
        assert not registers.contains(endpoint_key(CAMPUS, 52001), now=20.0)

    def test_zero_timeout_disables_expiry(self):
        registers = HashRegisterArray(1024, timeout=0.0)
        registers.insert(endpoint_key(CAMPUS, 52001), now=1.0)
        assert registers.contains(endpoint_key(CAMPUS, 52001), now=1e9)

    def test_collision_overwrites(self):
        """Data-plane register semantics: no chaining, last writer wins."""
        registers = HashRegisterArray(1, timeout=0.0)
        registers.insert(endpoint_key(CAMPUS, 1), now=1.0)
        registers.insert(endpoint_key(CAMPUS, 2), now=2.0)
        assert registers.overwrites == 1
        assert not registers.contains(endpoint_key(CAMPUS, 1), now=3.0)
        assert registers.contains(endpoint_key(CAMPUS, 2), now=3.0)

    def test_fingerprint_guards_index_collisions(self):
        registers = HashRegisterArray(1, timeout=0.0)
        registers.insert(endpoint_key(CAMPUS, 1), now=1.0)
        # Different key hashing to the same (only) slot: fingerprint differs.
        assert not registers.contains(endpoint_key("9.9.9.9", 9), now=2.0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            HashRegisterArray(0)

    def test_occupancy(self):
        registers = HashRegisterArray(4096)
        for port in range(10):
            registers.insert(endpoint_key(CAMPUS, port), now=1.0)
        assert registers.occupancy <= 10


class TestP4Pipeline:
    def _stun(self, t=0.0, port=52001):
        payload = StunMessage.binding_request(b"x" * 12).serialize()
        return CapturedPacket(t, build_udp_frame(CAMPUS, port, ZC, 3478, payload))

    def test_server_traffic_passes(self):
        model = P4CaptureModel()
        packet = CapturedPacket(1.0, build_udp_frame(CAMPUS, 50000, ZOOM, 8801, b"x" * 40))
        assert model.process_one(packet) is not None
        assert model.counters.zoom_ip_matched == 1

    def test_tcp_control_passes(self):
        model = P4CaptureModel()
        packet = CapturedPacket(1.0, build_tcp_frame(CAMPUS, 40000, ZOOM, 443, seq=1))
        assert model.process_one(packet) is not None

    def test_background_dropped(self):
        model = P4CaptureModel()
        packet = CapturedPacket(1.0, build_udp_frame(CAMPUS, 1234, EXTERNAL, 443, b"web"))
        assert model.process_one(packet) is None
        assert model.counters.dropped == 1

    def test_non_campus_traffic_dropped(self):
        model = P4CaptureModel()
        packet = CapturedPacket(1.0, build_udp_frame(EXTERNAL, 1, "8.8.8.8", 53, b"q"))
        assert model.process_one(packet) is None
        assert model.counters.no_campus_endpoint == 1

    def test_p2p_flow_after_stun(self):
        """Figure 13's stateful path: STUN learn, then P2P match both ways."""
        model = P4CaptureModel()
        assert model.process_one(self._stun(t=0.0)) is not None
        assert model.counters.stun_learned == 1
        outbound = CapturedPacket(1.0, build_udp_frame(CAMPUS, 52001, PEER, 5333, b"m" * 60))
        inbound = CapturedPacket(1.1, build_udp_frame(PEER, 5333, CAMPUS, 52001, b"m" * 60))
        assert model.process_one(outbound) is not None
        assert model.process_one(inbound) is not None
        assert model.counters.p2p_matched == 2

    def test_p2p_without_stun_dropped(self):
        model = P4CaptureModel()
        packet = CapturedPacket(1.0, build_udp_frame(CAMPUS, 52001, PEER, 5333, b"m"))
        assert model.process_one(packet) is None

    def test_p2p_register_timeout(self):
        model = P4CaptureModel(stun_timeout=5.0)
        model.process_one(self._stun(t=0.0))
        late = CapturedPacket(100.0, build_udp_frame(CAMPUS, 52001, PEER, 5333, b"m"))
        assert model.process_one(late) is None

    def test_rate_series(self):
        model = P4CaptureModel(rate_bin_width=1.0)
        model.process_one(CapturedPacket(0.5, build_udp_frame(CAMPUS, 1, EXTERNAL, 80, b"x")))
        model.process_one(CapturedPacket(0.6, build_udp_frame(CAMPUS, 5, ZOOM, 8801, b"x")))
        all_series, zoom_series = model.rate_series()
        assert all_series[0][1] == 2.0
        assert zoom_series[0][1] == 1.0

    def test_filters_simulated_meeting_exactly(self, sfu_meeting_result):
        model = P4CaptureModel()
        passed = list(model.process(sfu_meeting_result.captures))
        assert len(passed) == len(sfu_meeting_result.captures)

    def test_anonymizer_applied_on_egress(self):
        model = P4CaptureModel(anonymizer=Anonymizer(key=b"k"))
        packet = CapturedPacket(1.0, build_udp_frame(CAMPUS, 50000, ZOOM, 8801, b"x" * 40))
        out = model.process_one(packet)
        parsed = parse_frame(out.data)
        assert parsed.src_ip != CAMPUS
        assert parsed.src_ip.startswith("10.")


class TestAnonymizer:
    def test_deterministic_mapping(self):
        anonymizer = Anonymizer(key=b"secret")
        assert anonymizer.anonymize_ip(CAMPUS) == anonymizer.anonymize_ip(CAMPUS)

    def test_key_changes_mapping(self):
        a = Anonymizer(key=b"one").anonymize_ip(CAMPUS)
        b = Anonymizer(key=b"two").anonymize_ip(CAMPUS)
        assert a != b

    def test_class_preserved(self):
        anonymizer = Anonymizer(key=b"k")
        assert anonymizer.anonymize_ip("10.8.1.2").startswith("10.")
        assert anonymizer.anonymize_ip("170.114.9.9").startswith("170.")
        assert anonymizer.anonymize_ip(EXTERNAL).startswith("240.")

    def test_packet_rewrite_consistency(self):
        """Flows survive anonymization: same real pair -> same pseudo pair."""
        anonymizer = Anonymizer(key=b"k")
        first = anonymizer.anonymize_packet(
            CapturedPacket(1.0, build_udp_frame(CAMPUS, 1, ZOOM, 8801, b"a" * 20))
        )
        second = anonymizer.anonymize_packet(
            CapturedPacket(2.0, build_udp_frame(CAMPUS, 2, ZOOM, 8801, b"b" * 20))
        )
        p1, p2 = parse_frame(first.data), parse_frame(second.data)
        assert p1.src_ip == p2.src_ip
        assert p1.dst_ip == p2.dst_ip

    def test_payload_preserved_by_default(self):
        anonymizer = Anonymizer(key=b"k")
        out = anonymizer.anonymize_packet(
            CapturedPacket(1.0, build_udp_frame(CAMPUS, 1, ZOOM, 8801, b"zoompayload"))
        )
        assert parse_frame(out.data).payload == b"zoompayload"

    def test_strip_payload(self):
        anonymizer = Anonymizer(key=b"k", strip_payload=True)
        out = anonymizer.anonymize_packet(
            CapturedPacket(1.0, build_udp_frame(CAMPUS, 1, ZOOM, 8801, b"secret-media"))
        )
        parsed = parse_frame(out.data)
        assert parsed.ipv4 is not None
        assert b"secret-media" not in out.data

    def test_macs_anonymized(self):
        anonymizer = Anonymizer(key=b"k")
        out = anonymizer.anonymize_packet(
            CapturedPacket(1.0, build_udp_frame(CAMPUS, 1, ZOOM, 8801, b"x"))
        )
        assert out.data[0] == 0x02  # locally administered pseudo MAC
        assert out.data[0:6] != b"\x02\x00\x00\x00\x00\x02"

    def test_non_ipv4_passes_through(self):
        anonymizer = Anonymizer(key=b"k")
        packet = CapturedPacket(1.0, b"\x02" * 14 + b"junk")
        assert anonymizer.anonymize_packet(packet).data[14:] == b"junk"

    def test_analysis_works_on_anonymized_trace(self, sfu_meeting_result):
        """The full §6 flow: filter + anonymize in the 'switch', then run
        the analyzer over the anonymized capture with the pseudo prefixes."""
        from repro.core import AnalyzerConfig, ZoomAnalyzer

        model = P4CaptureModel(anonymizer=Anonymizer(key=b"k"))
        anonymized = list(model.process(sfu_meeting_result.captures))
        result = ZoomAnalyzer(
            AnalyzerConfig(zoom_subnets=("170.0.0.0/8",))
        ).analyze(anonymized)
        assert result.packets_zoom == result.packets_total
        truth = {t.ssrc for t in sfu_meeting_result.stream_truths}
        assert result.grouper.unique_stream_count() == len(truth)
        assert len(result.meetings) == 1


class TestResources:
    def test_table5_reproduced(self):
        """Per-component usage matches Table 5 within tolerance."""
        paper = {
            "Zoom IP Match": dict(stages=2, tcam=0.7, sram=0.1, instructions=1.3, hash_units=0.0),
            "P2P Detection": dict(stages=7, tcam=1.0, sram=10.9, instructions=3.4, hash_units=16.7),
            "Anonymization": dict(stages=11, tcam=1.4, sram=1.1, instructions=5.2, hash_units=8.3),
        }
        for component in resource_usage_table():
            expected = paper[component.name]
            got = component.percentages()
            assert got["stages"] == expected["stages"], component.name
            for resource in ("tcam", "sram", "instructions", "hash_units"):
                assert got[resource] == pytest.approx(expected[resource], abs=1.5), (
                    component.name,
                    resource,
                )

    def test_program_fits_budget(self):
        assert fits_budget()

    def test_lightweight_claim(self):
        """The paper's conclusion: <15% of most resource types."""
        usage = total_usage()
        percentages = {
            "tcam": 100.0 * usage.tcam_blocks / TOFINO_BUDGET["tcam_blocks"],
            "sram": 100.0 * usage.sram_blocks / TOFINO_BUDGET["sram_blocks"],
            "instructions": 100.0 * usage.instruction_slots / TOFINO_BUDGET["instruction_slots"],
        }
        assert all(value < 15.0 for value in percentages.values())

    def test_component_usage_custom_tables(self):
        from repro.capture.resources import TableSpec

        usage = component_usage(
            "custom", (TableSpec("t", "exact", key_bits=32, entries=1024),)
        )
        assert usage.sram_blocks > 0
        assert usage.hash_units >= 1

    def test_unknown_match_kind_rejected(self):
        from repro.capture.resources import TableSpec, cost

        with pytest.raises(ValueError):
            cost(TableSpec("bad", "lpm", key_bits=32, entries=1))
