"""Telemetry totals from sharded and rolling runs must match a single pass.

``analyze --stats`` on a sharded run has to report the same packet-path
accounting as the same capture analyzed in one pass — otherwise the health
report depends on a deployment knob.  Driver-local counters are exempt by
design and carry the ``sharded.`` / ``rolling.`` prefixes (plus
``assemble.meetings_formed``, which counts per-shard grouping work that is
redone at merge); :func:`repro.telemetry.shard_invariant_counters` encodes
exactly that contract.
"""

from __future__ import annotations

import pytest

from repro.core import AnalyzerConfig, ShardedAnalyzer, ZoomAnalyzer
from repro.telemetry import shard_invariant_counters


def _single_pass_counters(captures) -> dict[str, int]:
    result = ZoomAnalyzer().analyze(captures)
    return shard_invariant_counters(result.telemetry_snapshot())


class TestShardedTelemetryEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_backend_matches_single_pass(self, sfu_meeting_result, shards):
        captures = sfu_meeting_result.captures
        sharded = ShardedAnalyzer(
            AnalyzerConfig(shards=shards, shard_backend="serial")
        ).analyze(captures)
        assert (
            shard_invariant_counters(sharded.telemetry_snapshot())
            == _single_pass_counters(captures)
        )

    def test_thread_backend_matches_single_pass(self, sfu_meeting_result):
        captures = sfu_meeting_result.captures
        sharded = ShardedAnalyzer(
            AnalyzerConfig(shards=3, shard_backend="thread")
        ).analyze(captures)
        assert (
            shard_invariant_counters(sharded.telemetry_snapshot())
            == _single_pass_counters(captures)
        )

    def test_p2p_meeting_matches_single_pass(self, p2p_meeting_result):
        """STUN hints are replicated to every shard; only the home shard may
        count them, or sharded totals would inflate with the shard count."""
        captures = p2p_meeting_result.captures
        sharded = ShardedAnalyzer(
            AnalyzerConfig(shards=4, shard_backend="serial")
        ).analyze(captures)
        assert (
            shard_invariant_counters(sharded.telemetry_snapshot())
            == _single_pass_counters(captures)
        )

    def test_shard_local_counters_cover_every_packet(self, sfu_meeting_result):
        captures = sfu_meeting_result.captures
        sharded = ShardedAnalyzer(
            AnalyzerConfig(shards=4, shard_backend="serial")
        ).analyze(captures)
        snapshot = sharded.telemetry_snapshot()
        per_shard = snapshot.counters_under("sharded.shard_packets.")
        assert len(per_shard) == 4
        assert sum(per_shard.values()) == len(captures)

    def test_disabled_telemetry_stays_empty(self, sfu_meeting_result):
        sharded = ShardedAnalyzer(
            AnalyzerConfig(shards=2, shard_backend="serial", telemetry=False)
        )
        result = sharded.analyze(sfu_meeting_result.captures)
        assert result.telemetry_snapshot().counters == {}


class TestRollingTelemetryEquivalence:
    def test_eviction_disabled_matches_single_pass_exactly(self, sfu_meeting_result):
        """With eviction effectively off, rolling mode is the same pipeline
        — every counter except the policy's ``rolling.*`` bookkeeping must
        be identical, including ``assemble.meetings_formed``."""
        captures = sfu_meeting_result.captures
        rolling = ZoomAnalyzer(
            AnalyzerConfig(
                rolling=True, rolling_idle_timeout=1e9, rolling_sweep_interval=1.0
            )
        )
        rolling.analyze(captures)
        single = ZoomAnalyzer().analyze(captures).telemetry_snapshot()
        rolling_counters = {
            name: value
            for name, value in rolling.result.telemetry_snapshot().counters.items()
            if not name.startswith("rolling.")
        }
        assert rolling_counters == dict(single.counters)

    def test_eviction_preserves_per_packet_counters(self, sfu_meeting_result):
        """Eviction changes stream lifetimes, never what each packet did:
        per-packet flow and classification counters stay equal, while
        ``assemble.stream_opened`` may only grow (evicted streams that
        resume are opened again)."""
        captures = sfu_meeting_result.captures
        rolling = ZoomAnalyzer(
            AnalyzerConfig(
                rolling=True, rolling_idle_timeout=3.0, rolling_sweep_interval=0.5
            )
        )
        rolling.analyze(captures)
        # Flush everything still live so every stream goes through eviction.
        rolling.eviction.sweep(captures[-1].timestamp + 10.0)
        assert rolling.eviction.streams_evicted > 0, "scenario must actually evict"
        single = ZoomAnalyzer().analyze(captures).telemetry_snapshot()
        snapshot = rolling.result.telemetry_snapshot()

        per_packet_prefixes = ("capture.", "decode.", "classify.", "demux.", "pipeline.stop.")
        for name, value in single.counters.items():
            if name.startswith(per_packet_prefixes) or name == "pipeline.completed":
                assert snapshot.counter(name) == value, name
        assert snapshot.counter("assemble.stream_opened") >= single.counter(
            "assemble.stream_opened"
        )
        evicted = snapshot.counters_under("pipeline.evicted.")
        assert sum(evicted.values()) == rolling.eviction.streams_evicted
