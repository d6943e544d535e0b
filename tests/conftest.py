"""Shared fixtures: canned simulations reused across test modules.

The heavier simulations are session-scoped — they are deterministic (seeded)
and read-only for the tests that consume them.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro.net.batch import BatchPrefilter, FrameBatchBuilder, decode_columns
from repro.net.packet import parse_frame
from repro.net.pcap import write_pcap
from repro.protocols import build_registry
from repro.simulation import (
    CongestionEvent,
    MeetingConfig,
    MeetingSimulator,
    ParticipantConfig,
)
from repro.simulation.meeting import SimulationResult
from repro.zoom.constants import ZoomMediaType


#: Counter families the oracle tallies in full (a name it never counted must be 0).
_ORACLE_FAMILIES = ("classify.class.", "protocols.claimed.")


def _endpoints(plugins):
    return {p.name: sorted(e for t in p.stun_trackers for e in t.endpoints()) for p in plugins}


def scalar_oracle(config, packets):
    """What the per-packet decision tree counts over *every* frame.

    A fresh plugin registry classifies each frame in capture order through
    the public plugin API — no columnar decode, no prefilter, first claiming
    verdict wins.  Returns ``(expected totals/counters, claimed frame
    indexes, final STUN endpoints per plugin)`` — the reference the batch
    path is held to by :func:`assert_matches_oracle`.
    """
    plugins = build_registry(config)
    expected, claimed = Counter(), []
    for index, packet in enumerate(packets):
        parsed = parse_frame(packet.data, packet.timestamp)
        expected["packets_total"] += 1
        expected["bytes_total"] += len(packet.data)
        if parsed.ethernet is None:
            expected["decode.parse_failures"] += 1
        klass = claimant = None
        for plugin in plugins:
            verdict = plugin.classify(parsed)
            if verdict is not None and verdict.claimed:
                klass, claimant = verdict, plugin
                break
            klass = verdict if klass is None else klass
        expected["classify.class." + (klass.value if klass is not None else "not_zoom")] += 1
        if claimant is None:
            expected["classify.bytes.not_zoom"] += len(packet.data)
        else:
            expected["protocols.claimed." + claimant.name] += 1
            claimed.append(index)
    return expected, claimed, _endpoints(plugins)


def feed_batches(analyzer, batches):
    """Feed ``batches``; returns the frame indexes the prefilter let through
    (a shadow prefilter, compiled from and synced with the analyzer's own
    plugins exactly as the classify stage does it, records each verdict)."""
    prefilter = BatchPrefilter.from_plugins(analyzer.plugins)
    survivors, base = set(), 0
    for batch in batches:
        for plugin in analyzer.plugins:
            for tracker in plugin.stun_trackers:
                prefilter.sync_stun(tracker)
        verdict = prefilter.apply(batch, decode_columns(batch))
        survivors.update(base + index for index in verdict.survivors)
        analyzer.feed_batch(batch)
        base += len(batch)
    return survivors


def assert_matches_oracle(analyzer, oracle, survivors):
    """The raw path dropped nothing claimable and bulk-accounted the rest."""
    expected, claimed, endpoints = oracle
    assert survivors >= set(claimed)
    result = analyzer.result
    got = dict(result.telemetry_snapshot().counters)
    got.update(packets_total=result.packets_total, bytes_total=result.bytes_total)
    tallied = {
        name: value
        for name, value in got.items()
        if name in expected or (value and name.startswith(_ORACLE_FAMILIES))
    }
    assert tallied == expected
    assert result.packets_zoom == len(claimed)
    assert _endpoints(analyzer.plugins) == endpoints


def partition_homes(frames, shards):
    """``(home shard of each frame, PartitionStats)`` from one
    ``ShardedAnalyzer.partition_frames`` call over ``frames``."""
    from repro.core import AnalyzerConfig, ShardedAnalyzer

    driver = ShardedAnalyzer(AnalyzerConfig(shards=shards))
    builder = FrameBatchBuilder()
    for position, frame in enumerate(frames):
        builder.append(frame, float(position))
    homes = {}
    for shard, batches in enumerate(driver.partition_frames([builder.build()])):
        for batch in batches:
            for i in range(len(batch)):
                if batch.hints is None or not batch.hints[i]:
                    homes[int(batch.timestamps[i])] = shard
    return [homes[position] for position in range(len(frames))], driver.partition_stats


def rotated_capture_dir(
    tmp_path, captures, names=("zoom-00.pcap", "zoom-01.pcap", "zoom-02.pcap")
):
    """``tmp_path/caps`` with one file per name, holding equal time slices
    of ``captures`` in name-list order; the last file takes the rest."""
    directory = tmp_path / "caps"
    directory.mkdir()
    size = len(captures) // len(names)
    for index, name in enumerate(names):
        end = (index + 1) * size if index < len(names) - 1 else None
        write_pcap(directory / name, captures[index * size : end])
    return directory


@functools.lru_cache(maxsize=None)
def simulated(config: MeetingConfig) -> SimulationResult:
    """``MeetingSimulator(config).run()``, once per distinct config per session.

    Every module that needs the same seeded trace (the golden meeting, an
    impairment-suite scenario) shares one run; results are read-only.
    """
    return MeetingSimulator(config).run()


def sfu_meeting_config() -> MeetingConfig:
    """A 3-party SFU meeting: two on-campus, one off-campus with screen
    share, one congestion episode on the first sender's uplink."""
    return MeetingConfig(
        meeting_id="fixture-sfu",
        participants=(
            ParticipantConfig(
                name="alice",
                on_campus=True,
                congestion=(CongestionEvent(start=12.0, end=17.0, extra_loss=0.03),),
            ),
            ParticipantConfig(name="bob", on_campus=True, join_time=1.0),
            ParticipantConfig(
                name="carol",
                on_campus=False,
                join_time=2.0,
                media=(
                    ZoomMediaType.AUDIO,
                    ZoomMediaType.VIDEO,
                    ZoomMediaType.SCREEN_SHARE,
                ),
            ),
        ),
        duration=25.0,
        allow_p2p=False,
        seed=1234,
    )


@pytest.fixture(scope="session")
def sfu_meeting_result() -> SimulationResult:
    """:func:`sfu_meeting_config`, simulated once per session."""
    return simulated(sfu_meeting_config())


@pytest.fixture(scope="session")
def p2p_meeting_result() -> SimulationResult:
    """A two-party meeting that switches to P2P (one peer off campus)."""
    config = MeetingConfig(
        meeting_id="fixture-p2p",
        participants=(
            ParticipantConfig(name="pat", on_campus=True),
            ParticipantConfig(name="quinn", on_campus=False, join_time=0.5),
        ),
        duration=22.0,
        allow_p2p=True,
        p2p_switch_delay=5.0,
        seed=77,
    )
    return simulated(config)


@pytest.fixture(scope="session")
def analyzed_sfu(sfu_meeting_result):
    """The SFU fixture run through the full analyzer."""
    from repro.core import ZoomAnalyzer

    return ZoomAnalyzer().analyze(sfu_meeting_result.captures)


@pytest.fixture(scope="session")
def analyzed_p2p(p2p_meeting_result):
    """The P2P fixture run through the full analyzer."""
    from repro.core import ZoomAnalyzer

    return ZoomAnalyzer().analyze(p2p_meeting_result.captures)
