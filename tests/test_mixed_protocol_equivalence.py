"""Ingestion-path equivalence on the mixed zoom+rtp protocol trace.

The registry refactor must hold the same invariants the Zoom-only pipeline
already proves for itself, on a trace where both plugins claim traffic
concurrently: the batch path (whose prefilter compiles the **union** of the
enabled plugins' match-action rules) drops nothing either plugin's
per-packet decision tree would claim and bulk-accounts the rest exactly
(``tests/conftest.py:scalar_oracle``), and the flow-sharded driver is
metric-identical to the single pass.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import ZoomAnalyzer
from repro.core.sharded import ShardedAnalyzer
from repro.net.source import IterableSource
from repro.telemetry import shard_invariant_counters

from tests.conftest import assert_matches_oracle, feed_batches, scalar_oracle
from tests.golden_utils import (
    mixed_protocol_config,
    mixed_trace_captures,
    summarize_result,
)


@pytest.fixture(scope="module")
def mixed_captures():
    return mixed_trace_captures()


@pytest.fixture(scope="module")
def single_pass(mixed_captures):
    """One analyzer fed the whole trace, plus the prefilter's survivors."""
    analyzer = ZoomAnalyzer(mixed_protocol_config())
    source = IterableSource(
        mixed_captures, telemetry=analyzer.result.telemetry, batch_size=256
    )
    return analyzer, feed_batches(analyzer, source.frame_batches())


@pytest.fixture(scope="module")
def scalar_result(single_pass):
    return single_pass[0].result


@pytest.fixture(scope="module")
def frame_by_frame(mixed_captures):
    """The same trace at ``batch_size=1``: every frame meets the prefilter
    alone, with both plugins' state fully synced — the finest granularity."""
    return ZoomAnalyzer(mixed_protocol_config(batch_size=1)).analyze(mixed_captures)


class TestMixedBatchEquivalence:
    def test_batch_path_metric_identical(self, scalar_result, frame_by_frame):
        """Batch granularity changes no metric."""
        assert summarize_result(scalar_result) == summarize_result(frame_by_frame)

    def test_batch_path_counter_identical(self, scalar_result, frame_by_frame):
        assert shard_invariant_counters(
            scalar_result.telemetry_snapshot()
        ) == shard_invariant_counters(frame_by_frame.telemetry_snapshot())

    def test_prefilter_drops_nothing_claimable(self, mixed_captures, single_pass):
        """Every packet either plugin claims survives the compiled union
        prefilter; class, claim and byte tallies and both plugins' learned
        endpoints equal the per-packet tree's."""
        analyzer, survivors = single_pass
        oracle = scalar_oracle(analyzer.config, mixed_captures)
        assert oracle[0]["protocols.claimed.zoom"] and oracle[0]["protocols.claimed.rtp"]
        assert_matches_oracle(analyzer, oracle, survivors)


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
