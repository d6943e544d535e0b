"""Flow-sharded parallel analysis: partitioning and merge equivalence."""

from __future__ import annotations

import pytest

from repro.core import AnalyzerConfig, ShardedAnalyzer, ZoomAnalyzer
from repro.net.packet import build_tcp_frame, build_udp_frame, parse_frame
from repro.net.source import IterableSource
from tests.conftest import partition_homes


def flow_shard_info(frame: bytes, shards: int = 251) -> tuple[int, bool] | None:
    """``(home shard, replicated as a STUN hint)`` of one frame through
    ``partition_frames``; ``None`` when it is counted unhashable."""
    homes, stats = partition_homes([frame], shards)
    if stats.unhashable_frames:
        return None
    return homes[0], stats.hints_replicated == shards - 1


class TestFlowShardInfo:
    def test_bidirectional_hash_matches(self):
        forward = build_udp_frame("10.0.0.1", 5000, "170.114.1.2", 8801, bytes(32))
        reverse = build_udp_frame("170.114.1.2", 8801, "10.0.0.1", 5000, bytes(32))
        info_f = flow_shard_info(forward)
        info_r = flow_shard_info(reverse)
        assert info_f is not None and info_r is not None
        assert info_f[0] == info_r[0]

    def test_different_flows_hash_differently(self):
        a = flow_shard_info(build_udp_frame("10.0.0.1", 5000, "170.114.1.2", 8801, bytes(32)))
        b = flow_shard_info(build_udp_frame("10.0.0.2", 6000, "170.114.1.2", 8801, bytes(32)))
        assert a[0] != b[0]

    def test_tcp_flows_are_hashable(self):
        info = flow_shard_info(build_tcp_frame("10.0.0.1", 443, "1.2.3.4", 555, seq=1))
        assert info is not None and info[1] is False

    def test_non_ip_frame_is_unhashable(self):
        arp = b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + b"\x00" * 28
        assert flow_shard_info(arp) is None

    def test_truncated_frame_is_unhashable(self):
        assert flow_shard_info(b"\x00" * 20) is None

    def test_stun_detection(self):
        stun_payload = b"\x00\x01\x00\x00" + b"\x21\x12\xa4\x42" + b"\x00" * 12
        frame = build_udp_frame("10.0.0.1", 5000, "1.2.3.4", 3478, stun_payload)
        info = flow_shard_info(frame)
        assert info is not None and info[1] is True

    def test_non_stun_udp_on_other_ports(self):
        frame = build_udp_frame("10.0.0.1", 5000, "1.2.3.4", 8801, bytes(32))
        info = flow_shard_info(frame)
        assert info is not None and info[1] is False


class TestPartition:
    def test_flow_affinity_and_order(self, sfu_meeting_result):
        driver = ShardedAnalyzer(AnalyzerConfig(shards=4))
        work = driver.partition_frames(
            IterableSource(sfu_meeting_result.captures).frame_batches()
        )
        assert len(work) == 4
        seen_flows: dict[frozenset, int] = {}
        home_total = 0
        for index, batches in enumerate(work):
            times = [ts for batch in batches for ts in batch.timestamps]
            assert times == sorted(times)
            for batch in batches:
                for position in range(len(batch)):
                    if batch.hints is not None and batch.hints[position]:
                        continue
                    home_total += 1
                    flow = parse_frame(batch.frame(position)).five_tuple
                    if flow is None:
                        continue
                    key = frozenset((flow[:2], flow[2:4]))
                    assert seen_flows.setdefault(key, index) == index
        assert home_total == len(sfu_meeting_result.captures)
        assert sum(driver.partition_stats.shard_packets) == home_total

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ShardedAnalyzer(AnalyzerConfig(shards=0))
        with pytest.raises(ValueError):
            ShardedAnalyzer(AnalyzerConfig(shard_backend="gpu"))


def _assert_equivalent(single, sharded):
    assert len(sharded.streams) == len(single.streams)
    assert len(sharded.grouper.meetings()) == len(single.grouper.meetings())
    assert sharded.packets_total == single.packets_total
    assert sharded.packets_zoom == single.packets_zoom
    assert sharded.bytes_total == single.bytes_total
    assert sharded.stun_packets == single.stun_packets
    assert dict(sharded.encap_packets) == dict(single.encap_packets)
    assert dict(sharded.encap_bytes) == dict(single.encap_bytes)
    assert sharded.encap_share_table() == single.encap_share_table()
    assert sharded.payload_type_table() == single.payload_type_table()
    single_per_stream = {s.key: (s.packets, s.bytes) for s in single.streams}
    sharded_per_stream = {s.key: (s.packets, s.bytes) for s in sharded.streams}
    assert sharded_per_stream == single_per_stream


class TestEquivalence:
    def test_sfu_meeting_four_shards(self, sfu_meeting_result, analyzed_sfu):
        sharded = ShardedAnalyzer(AnalyzerConfig(shards=4, shard_backend="serial")).analyze(
            sfu_meeting_result.captures
        )
        _assert_equivalent(analyzed_sfu, sharded)

    def test_p2p_meeting_four_shards(self, p2p_meeting_result, analyzed_p2p):
        # P2P media runs on a different 5-tuple than the STUN exchange that
        # announces it — only STUN replication keeps detection sharding-safe
        sharded = ShardedAnalyzer(AnalyzerConfig(shards=4, shard_backend="serial")).analyze(
            p2p_meeting_result.captures
        )
        _assert_equivalent(analyzed_p2p, sharded)
        assert sum(1 for s in sharded.streams if s.is_p2p) == sum(
            1 for s in analyzed_p2p.streams if s.is_p2p
        )

    def test_single_shard_matches(self, sfu_meeting_result, analyzed_sfu):
        sharded = ShardedAnalyzer(AnalyzerConfig(shards=1)).analyze(
            sfu_meeting_result.captures
        )
        _assert_equivalent(analyzed_sfu, sharded)

    def test_thread_backend(self, sfu_meeting_result, analyzed_sfu):
        sharded = ShardedAnalyzer(
            AnalyzerConfig(shards=3, shard_backend="thread")
        ).analyze(sfu_meeting_result.captures)
        _assert_equivalent(analyzed_sfu, sharded)

    @pytest.mark.slow
    def test_process_backend(self, sfu_meeting_result, analyzed_sfu):
        # Spawning workers and pickling packets across process boundaries
        # dominates the runtime here, hence the slow marker.
        sharded = ShardedAnalyzer(
            AnalyzerConfig(shards=2, shard_backend="process")
        ).analyze(sfu_meeting_result.captures)
        _assert_equivalent(analyzed_sfu, sharded)

    @pytest.mark.slow
    def test_process_backend_telemetry_merges(self, sfu_meeting_result):
        from repro.telemetry import shard_invariant_counters

        captures = sfu_meeting_result.captures
        single = ZoomAnalyzer().analyze(captures)
        sharded = ShardedAnalyzer(
            AnalyzerConfig(shards=2, shard_backend="process")
        ).analyze(captures)
        assert shard_invariant_counters(
            sharded.telemetry_snapshot()
        ) == shard_invariant_counters(single.telemetry_snapshot())

    def test_merged_result_supports_reporting(self, sfu_meeting_result):
        from repro.analysis.export import feature_rows
        from repro.analysis.reportgen import full_report

        sharded = ShardedAnalyzer(
            AnalyzerConfig(shards=4, shard_backend="serial")
        ).analyze(sfu_meeting_result.captures)
        assert "Meeting" in full_report(sharded)
        assert feature_rows(sharded)

    def test_options_forwarded_to_shards(self, sfu_meeting_result):
        sharded = ShardedAnalyzer(
            AnalyzerConfig(
                shards=2,
                shard_backend="serial",
                campus_subnets=("10.8.0.0/16",),
                keep_records=True,
            )
        ).analyze(sfu_meeting_result.captures)
        assert sharded.streams.keep_records is True
        assert all(s.records for s in sharded.streams)


class TestMergeErrors:
    def test_adopt_rejects_duplicate_keys(self, sfu_meeting_result):
        from repro.core.pipeline import AnalysisResult

        result = ZoomAnalyzer().analyze(sfu_meeting_result.captures)
        with pytest.raises(ValueError):
            AnalysisResult.merge_all([result, result])
