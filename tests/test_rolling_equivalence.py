"""Rolling (eviction-enabled) analysis must measure what one pass measures."""

from __future__ import annotations

from collections import defaultdict

from repro.core import AnalyzerConfig, ZoomAnalyzer


def _one_pass_totals(result):
    totals = {}
    for stream in result.streams:
        metrics = result.metrics_for(stream.key)
        loss = metrics.loss.report(finalize=True)
        totals[stream.key] = (
            stream.packets,
            stream.bytes,
            metrics.assembler.completed_count,
            loss.duplicates,
            loss.lost,
        )
    return totals


def _rolling(**options) -> tuple[ZoomAnalyzer, list]:
    """A rolling-mode analyzer (``options`` are further config fields) and
    the list it appends every finalized stream to."""
    finalized: list = []
    analyzer = ZoomAnalyzer(AnalyzerConfig(rolling=True, **options))
    analyzer.eviction_hooks.append(finalized.append)
    return analyzer, finalized


def _rolling_totals(rolling, finalized):
    """Finalized + still-live streams, summed per key (a stream that went
    idle and resumed appears as several finalized segments)."""
    totals: dict = defaultdict(lambda: [0, 0, 0, 0, 0])
    for done in finalized:
        entry = totals[done.key]
        entry[0] += done.packets
        entry[1] += done.bytes
        entry[2] += done.frames_completed
        entry[3] += done.duplicates
        entry[4] += done.lost
    for stream in rolling.result.streams:
        metrics = rolling.result.metrics_for(stream.key)
        loss = metrics.loss.report(finalize=True)
        entry = totals[stream.key]
        entry[0] += stream.packets
        entry[1] += stream.bytes
        entry[2] += metrics.assembler.completed_count
        entry[3] += loss.duplicates
        entry[4] += loss.lost
    return {key: tuple(value) for key, value in totals.items()}


class TestRollingEquivalence:
    def test_eviction_disabled_is_identical(self, sfu_meeting_result, analyzed_sfu):
        rolling, finalized = _rolling(rolling_idle_timeout=1e9, rolling_sweep_interval=1.0)
        rolling.analyze(sfu_meeting_result.captures)
        assert not finalized
        assert rolling.eviction.streams_evicted == 0
        assert _rolling_totals(rolling, finalized) == _one_pass_totals(analyzed_sfu)
        assert rolling.result.packets_zoom == analyzed_sfu.packets_zoom

    def test_eviction_enabled_preserves_totals(self, sfu_meeting_result, analyzed_sfu):
        rolling, finalized = _rolling(rolling_idle_timeout=3.0, rolling_sweep_interval=0.5)
        rolling.analyze(sfu_meeting_result.captures)
        # flush everything still live so only finalized streams remain
        last = sfu_meeting_result.captures[-1].timestamp
        rolling.eviction.sweep(last + 10.0)
        assert len(rolling.result.streams) == 0
        assert rolling.eviction.streams_evicted == len(finalized) > 0
        assert _rolling_totals(rolling, finalized) == _one_pass_totals(analyzed_sfu)

    def test_eviction_enabled_p2p(self, p2p_meeting_result, analyzed_p2p):
        rolling, finalized = _rolling(rolling_idle_timeout=3.0, rolling_sweep_interval=0.5)
        rolling.analyze(p2p_meeting_result.captures)
        rolling.eviction.sweep(p2p_meeting_result.captures[-1].timestamp + 10.0)
        assert _rolling_totals(rolling, finalized) == _one_pass_totals(analyzed_p2p)


class TestRollingOptions:
    """Rolling mode changes eviction only; every other option applies as in
    a one-pass run."""

    def test_constructor_options_reach_wrapped_analyzer(self):
        rolling, _ = _rolling(
            zoom_subnets=("203.0.113.0/24",),
            campus_subnets=("10.8.0.0/16",),
            stun_timeout=7.5,
            keep_records=True,
        )
        detector = rolling.result.detector
        assert detector.campus_matcher is not None
        assert detector.stun.timeout == 7.5
        assert rolling.result.streams.keep_records is True

    def test_defaults_leave_options_off(self):
        rolling, _ = _rolling()
        assert rolling.result.detector.campus_matcher is None
        assert rolling.result.streams.keep_records is False

    def test_keep_records_retains_records(self, sfu_meeting_result):
        rolling, _ = _rolling(rolling_idle_timeout=1e9, keep_records=True)
        rolling.analyze(sfu_meeting_result.captures)
        assert all(s.records for s in rolling.result.streams)
