"""Shared fixtures: canned simulations reused across test modules.

The heavier simulations are session-scoped — they are deterministic (seeded)
and read-only for the tests that consume them.
"""

from __future__ import annotations

import pytest

from repro.net.batch import prepared_frame_batch
from repro.net.packet import parse_frame
from repro.simulation import (
    CongestionEvent,
    MeetingConfig,
    MeetingSimulator,
    ParticipantConfig,
)
from repro.simulation.meeting import SimulationResult
from repro.zoom.constants import ZoomMediaType


def feed_prepared(analyzer, packets):
    """Feed captured ``packets`` as one *prepared* batch; returns the result.

    Each frame is parsed on its own and carried verbatim, bypassing the
    columnar decode and the prefilter — the reference every raw-batch
    equivalence test compares :meth:`ZoomAnalyzer.feed_batch` against.
    """
    analyzer.feed_batch(
        prepared_frame_batch([parse_frame(p.data, p.timestamp) for p in packets])
    )
    return analyzer.result


@pytest.fixture(scope="session")
def sfu_meeting_result() -> SimulationResult:
    """A 3-party SFU meeting: two on-campus, one off-campus with screen
    share, one congestion episode on the first sender's uplink."""
    config = MeetingConfig(
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
    return MeetingSimulator(config).run()


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
    return MeetingSimulator(config).run()


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
