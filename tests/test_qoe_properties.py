"""Property tests for the QoE state machine (Hypothesis).

Two invariants the ISSUE pins:

* **Zero flaps** — whatever the metric series does, two transitions are
  never closer than the configured dwell.  The hysteresis design makes this
  structural (every transition resets the dwell counter), and this suite
  stops a refactor from quietly trading it away.
* **Batch = scalar** — :meth:`observe_batch` over a series yields the exact
  transition sequence of the scalar loop, so the batch, rolling, and live
  paths cannot diverge at the machine layer.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalyzerConfig, ZoomAnalyzer
from repro.core.config import QoeConfig
from repro.core.streams import RTPPacketRecord
from repro.qoe import MeetingQoeTracker, QoeSample, QoeState, QoeStateMachine
from repro.zoom.constants import ZoomMediaType

# Metric values deliberately span all severity bands, the exact thresholds
# themselves, NaN (signal absent), and absurd extremes.
_loss = st.one_of(
    st.floats(min_value=0.0, max_value=0.6),
    st.sampled_from([0.0, 0.02, 0.08, 0.20, 0.012, 0.048, 0.12, float("nan")]),
)
_jitter = st.one_of(
    st.floats(min_value=0.0, max_value=200.0),
    st.sampled_from([15.0, 35.0, 80.0, 9.0, 21.0, 48.0, float("nan")]),
)
_fps = st.one_of(
    st.floats(min_value=0.0, max_value=1.5),
    st.sampled_from([0.75, 0.45, 0.20, 1.0, float("nan")]),
)


@st.composite
def _samples(draw, max_windows: int = 60):
    count = draw(st.integers(min_value=0, max_value=max_windows))
    return [
        QoeSample(
            window_index=i,
            window_end=float(i + 1),
            packets=draw(st.integers(min_value=30, max_value=2000)),
            loss_fraction=draw(_loss),
            jitter_ms=draw(_jitter),
            fps_ratio=draw(_fps),
        )
        for i in range(count)
    ]


_configs = st.builds(
    QoeConfig,
    enter_windows=st.integers(min_value=1, max_value=4),
    exit_windows=st.integers(min_value=1, max_value=4),
    min_dwell_windows=st.integers(min_value=1, max_value=6),
    exit_fraction=st.floats(min_value=0.3, max_value=1.0),
)


@settings(max_examples=200, deadline=None)
@given(samples=_samples(), config=_configs)
def test_zero_flap_invariant(samples, config):
    """No two transitions closer than the dwell, for any input series."""
    machine = QoeStateMachine(config)
    transitions = machine.observe_batch(samples)
    observations = [t.observation for t in transitions]
    for earlier, later in zip(observations, observations[1:]):
        assert later - earlier >= config.min_dwell_windows


@settings(max_examples=200, deadline=None)
@given(samples=_samples(), config=_configs)
def test_transitions_always_change_state(samples, config):
    """Every emitted transition moves to a different state, and the chain
    of (previous -> state) hops is consistent from GOOD onward."""
    transitions = QoeStateMachine(config).observe_batch(samples)
    state = QoeState.GOOD
    for t in transitions:
        assert t.previous is state
        assert t.state is not t.previous
        state = t.state


@settings(max_examples=150, deadline=None)
@given(samples=_samples(), config=_configs)
def test_batch_equals_scalar(samples, config):
    """observe_batch and the scalar loop produce identical transitions and
    identical final machine state."""
    scalar_machine = QoeStateMachine(config)
    scalar = []
    for sample in samples:
        t = scalar_machine.observe(sample)
        if t is not None:
            scalar.append(t)
    batch_machine = QoeStateMachine(config)
    batch = batch_machine.observe_batch(samples)
    assert batch == scalar
    assert batch_machine.state is scalar_machine.state
    assert batch_machine.observations == scalar_machine.observations


@settings(max_examples=100, deadline=None)
@given(samples=_samples())
def test_clean_series_never_leaves_good(samples):
    """Series with every metric in the healthy band produce no transitions."""
    machine = QoeStateMachine()
    clean = [
        QoeSample(
            window_index=s.window_index,
            window_end=s.window_end,
            packets=s.packets,
            loss_fraction=0.0,
            jitter_ms=3.0,
            fps_ratio=1.0,
        )
        for s in samples
    ]
    assert machine.observe_batch(clean) == []
    assert machine.state is QoeState.GOOD


def test_tracker_late_rule_is_the_watermark_not_the_last_closed_index():
    """A packet whose window is already behind the watermark is late even
    when no window at or after it has closed yet — the service aggregator's
    rule, which the tracker's private clock had drifted away from."""
    analyzer = ZoomAnalyzer(AnalyzerConfig(telemetry=True))
    analyzer.result.grouper.meeting_of = lambda key: SimpleNamespace(meeting_id=1)
    config = QoeConfig(
        window_seconds=1.0, lateness=0.5, min_meeting_packets=1, min_stream_packets=1
    )
    tracker = MeetingQoeTracker(analyzer, config)
    five_tuple = ("10.0.0.1", 50000, "170.114.0.1", 8801, 17)
    for sequence, timestamp in enumerate((0.2, 5.0, 3.2)):
        record = RTPPacketRecord(
            timestamp=timestamp,
            five_tuple=five_tuple,
            ssrc=7,
            payload_type=98,
            sequence=sequence,
            rtp_timestamp=int(timestamp * 90000),
            marker=False,
            media_type=int(ZoomMediaType.VIDEO),
            payload_len=100,
            udp_payload_len=130,
        )
        for hook in analyzer.record_hooks:
            hook(record, record.stream_key, False, False)
    tracker.flush(final=True)
    telemetry = analyzer.result.telemetry
    assert telemetry.counter("qoe.late_packets") == 1  # t=3.2: watermark is 4.5
    assert telemetry.counter("qoe.windows") == 2  # windows 0 and 5; 3 never scored
