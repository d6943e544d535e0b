"""Ingestion-path equivalence on the mixed zoom+rtp protocol trace.

The registry refactor must hold the same invariants the Zoom-only pipeline
already proves for itself: raw batches (whose prefilter now compiles the
**union** of the enabled plugins' match-action rules) and the flow-sharded
driver must produce metric-identical results to the prefilter-free
prepared batch of the same frames, on a trace where both plugins claim
traffic concurrently.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import ZoomAnalyzer
from repro.core.sharded import ShardedAnalyzer
from repro.net.batch import FrameBatchBuilder
from repro.telemetry import shard_invariant_counters

from tests.conftest import feed_prepared
from tests.golden_utils import (
    mixed_protocol_config,
    mixed_trace_captures,
    summarize_result,
)

BATCH_FRAMES = 256


@pytest.fixture(scope="module")
def mixed_captures():
    return mixed_trace_captures()


@pytest.fixture(scope="module")
def scalar_result(mixed_captures):
    return feed_prepared(ZoomAnalyzer(mixed_protocol_config()), mixed_captures)


def _batches(captures):
    builder = FrameBatchBuilder()
    for packet in captures:
        builder.append(packet.data, packet.timestamp)
        if len(builder) >= BATCH_FRAMES:
            yield builder.build()
            builder = FrameBatchBuilder()
    if len(builder):
        yield builder.build()


class TestMixedBatchEquivalence:
    def test_batch_path_metric_identical(self, mixed_captures, scalar_result):
        batched = ZoomAnalyzer(mixed_protocol_config())
        for batch in _batches(mixed_captures):
            batched.feed_batch(batch)
        assert summarize_result(batched.result) == summarize_result(scalar_result)

    def test_batch_path_counter_identical(self, mixed_captures, scalar_result):
        batched = ZoomAnalyzer(mixed_protocol_config())
        for batch in _batches(mixed_captures):
            batched.feed_batch(batch)
        assert shard_invariant_counters(
            batched.result.telemetry_snapshot()
        ) == shard_invariant_counters(scalar_result.telemetry_snapshot())

    def test_prefilter_drops_nothing_claimable(self, mixed_captures, scalar_result):
        """Every packet either plugin claims prefilter-free survives the
        compiled union prefilter: claimed counts match exactly."""
        batched = ZoomAnalyzer(mixed_protocol_config())
        for batch in _batches(mixed_captures):
            batched.feed_batch(batch)
        scalar = scalar_result.telemetry_snapshot().counters
        vector = batched.result.telemetry_snapshot().counters
        for name in ("protocols.claimed.zoom", "protocols.claimed.rtp"):
            assert vector[name] == scalar[name]
        assert batched.result.packets_zoom == scalar_result.packets_zoom


class TestMixedShardedEquivalence:
    def test_two_shards_metric_identical(self, mixed_captures, scalar_result):
        sharded = ShardedAnalyzer(
            mixed_protocol_config(shards=2, shard_backend="serial")
        ).analyze(mixed_captures)
        assert summarize_result(sharded) == summarize_result(scalar_result)

    def test_two_shards_counter_identical(self, mixed_captures, scalar_result):
        sharded = ShardedAnalyzer(
            mixed_protocol_config(shards=2, shard_backend="serial")
        ).analyze(mixed_captures)
        assert shard_invariant_counters(
            sharded.telemetry_snapshot()
        ) == shard_invariant_counters(scalar_result.telemetry_snapshot())

    def test_rtp_streams_survive_sharding(self, mixed_captures):
        sharded = ShardedAnalyzer(
            mixed_protocol_config(shards=2, shard_backend="serial")
        ).analyze(mixed_captures)
        rtp_streams = [
            stream
            for stream in sharded.media_streams()
            if stream.protocol == "rtp"
        ]
        assert len(rtp_streams) == 4  # audio+video, both directions
