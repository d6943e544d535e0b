"""Ground-truth QoE suite: injected impairments vs detected transitions.

Each scenario from :func:`repro.simulation.impairment_suite` carries the
interval where its impairment was injected and the state the machine is
expected to enter.  The suite asserts the closed loop: the state machine
transitions exactly when — and only when — the injected QoS degrades, and
it does so identically through all three consumption paths:

* **batch** — ``AnalysisSession`` over a pcap file (the vectorized
  ``feed_batch`` fast path via ``frame_batches()``);
* **rolling** — the same session with the rolling analyzer;
* **live** — the full ``ZoomMonitorService`` tailing a rotated capture
  directory.

"Exactly when" means: per injected interval, exactly one enter transition
(GOOD -> expected state) within ``detect_slack`` of the impairment start and
exactly one exit transition (back to GOOD) within ``clear_slack`` of its
end — no flaps, no staircases, no misses.
"""

from pathlib import Path

import pytest

from repro.core.config import AnalyzerConfig, QoeConfig, ServiceConfig
from repro.core.session import AnalysisSession
from repro.net.pcap import write_pcap
from repro.net.source import PcapFileSource
from repro.qoe import QoeState
from repro.service.runner import ZoomMonitorService
from repro.simulation import (
    ImpairmentScenario,
    congestion_adaptation_scenario,
    impairment_suite,
)
from tests.conftest import rotated_capture_dir, simulated

_SUITE = impairment_suite()
_NAMES = [scenario.name for scenario in _SUITE]


@pytest.fixture(scope="module")
def scenario_captures():
    """name -> (scenario, captures), simulated once for the whole module."""
    result = {}
    for scenario in _SUITE:
        result[scenario.name] = (scenario, simulated(scenario.meeting).captures)
    return result


def _assert_ground_truth(scenario: ImpairmentScenario, transitions) -> None:
    intervals = scenario.intervals
    assert len(transitions) == 2 * len(intervals), (
        f"{scenario.name}: expected exactly one enter/exit pair per injected "
        f"interval, got {[(t.time, t.previous.name, t.state.name) for t in transitions]}"
    )
    for i, interval in enumerate(intervals):
        enter, leave = transitions[2 * i], transitions[2 * i + 1]
        assert enter.previous is QoeState.GOOD
        assert enter.state.name == interval.expected_state, (
            f"{scenario.name}: entered {enter.state.name}, "
            f"expected {interval.expected_state}"
        )
        assert (
            interval.start
            <= enter.time
            <= interval.start + interval.detect_slack
        ), f"{scenario.name}: detected at {enter.time}, injected at {interval.start}"
        assert leave.previous is enter.state
        assert leave.state is QoeState.GOOD
        assert interval.end <= leave.time <= interval.end + interval.clear_slack, (
            f"{scenario.name}: cleared at {leave.time}, "
            f"impairment ended at {interval.end}"
        )


def _session_transitions(captures, tmp_path: Path, *, rolling: bool):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "scenario.pcap"
    write_pcap(path, captures)
    config = AnalyzerConfig(telemetry=True, rolling=rolling, qoe=QoeConfig())
    session = AnalysisSession(config)
    session.run(PcapFileSource(str(path)))
    assert session.qoe is not None
    return [t for _, t in session.qoe.transitions]


def _service_transitions(captures, tmp_path: Path):
    directory = rotated_capture_dir(tmp_path, captures)
    config = ServiceConfig(
        analyzer=AnalyzerConfig(
            rolling=True, rolling_idle_timeout=60.0, telemetry=True
        ),
        window_seconds=5.0,
        watermark_lateness=2.0,
        poll_interval=0.05,
    )
    service = ZoomMonitorService(directory, config)
    report = service.run(stop_after_polls=2)
    assert report.packets_dropped == 0
    assert service.qoe is not None
    return service, report


class TestBatchPath:
    @pytest.mark.parametrize("name", _NAMES)
    def test_scenario(self, name, scenario_captures, tmp_path):
        scenario, captures = scenario_captures[name]
        transitions = _session_transitions(captures, tmp_path, rolling=False)
        _assert_ground_truth(scenario, transitions)


class TestRollingPath:
    @pytest.mark.parametrize("name", _NAMES)
    def test_scenario(self, name, scenario_captures, tmp_path):
        scenario, captures = scenario_captures[name]
        transitions = _session_transitions(captures, tmp_path, rolling=True)
        _assert_ground_truth(scenario, transitions)

    @pytest.mark.parametrize("name", _NAMES)
    def test_rolling_matches_batch(self, name, scenario_captures, tmp_path):
        _, captures = scenario_captures[name]
        batch = _session_transitions(captures, tmp_path / "b", rolling=False)
        roll = _session_transitions(captures, tmp_path / "r", rolling=True)
        key = [(t.time, t.previous, t.state) for t in batch]
        assert [(t.time, t.previous, t.state) for t in roll] == key


class TestLivePath:
    @pytest.mark.parametrize("name", _NAMES)
    def test_scenario(self, name, scenario_captures, tmp_path):
        scenario, captures = scenario_captures[name]
        service, _ = _service_transitions(captures, tmp_path)
        _assert_ground_truth(scenario, [t for _, t in service.qoe.transitions])

    def test_alert_counters_and_report(self, scenario_captures, tmp_path):
        scenario, captures = scenario_captures["bandwidth-cliff"]
        service, report = _service_transitions(captures, tmp_path)
        snapshot = service.telemetry.snapshot()
        assert snapshot.counter("qoe.transitions") == 2
        assert snapshot.counter("qoe.transitions_to.impaired") == 1
        assert snapshot.counter("qoe.transitions_to.good") == 1
        assert snapshot.counter("qoe.alerts") == 1
        assert report.qoe_transitions == 2
        assert report.qoe_alerts == 1
        assert report.qoe_worst_state == "GOOD"  # recovered by end of run

    def test_prometheus_page_exposes_qoe_series(self, scenario_captures, tmp_path):
        _, captures = scenario_captures["loss-burst-degraded"]
        service, _ = _service_transitions(captures, tmp_path)
        page = service.render_metrics()
        assert "repro_qoe_transitions_total 2" in page
        assert "repro_qoe_meetings_good 1" in page
        # Pre-seeded: the alert counter is present even at zero.
        assert "repro_qoe_alerts_total 0" in page

    def test_no_qoe_config_disables_tracking(self, scenario_captures, tmp_path):
        _, captures = scenario_captures["loss-burst-degraded"]
        directory = tmp_path / "caps"
        directory.mkdir()
        write_pcap(directory / "zoom-00.pcap", captures)
        config = ServiceConfig(
            analyzer=AnalyzerConfig(
                rolling=True, rolling_idle_timeout=60.0, telemetry=True
            ),
            window_seconds=5.0,
            watermark_lateness=2.0,
            poll_interval=0.05,
            qoe=QoeConfig(enabled=False),
        )
        service = ZoomMonitorService(directory, config)
        report = service.run(stop_after_polls=2)
        assert service.qoe is None
        assert report.qoe_transitions == 0
        assert "repro_qoe_transitions_total" not in service.render_metrics()


class TestQuietScenarioStaysGood:
    def test_no_impairment_no_transitions(self, sfu_meeting_result, tmp_path):
        # The shared clean-ish fixture meeting (one mild 3% congestion blip,
        # below sustained-degradation territory for only 5s) must not alert.
        transitions = _session_transitions(
            sfu_meeting_result.captures, tmp_path, rolling=False
        )
        for t in transitions:
            assert t.state < QoeState.IMPAIRED


@pytest.mark.slow
class TestCongestionAdaptation:
    """The long rate-adaptation scenario: fps halves with zero loss/jitter
    signal, so detection must come from the delivered-frame-rate ratio."""

    def test_all_paths(self, tmp_path):
        scenario = congestion_adaptation_scenario()
        captures = simulated(scenario.meeting).captures
        batch = _session_transitions(captures, tmp_path / "b", rolling=False)
        _assert_ground_truth(scenario, batch)
        roll = _session_transitions(captures, tmp_path / "r", rolling=True)
        _assert_ground_truth(scenario, roll)
        service, _ = _service_transitions(captures, tmp_path)
        _assert_ground_truth(scenario, [t for _, t in service.qoe.transitions])
