"""Closed-loop QoE: per-meeting state machines over the window stream.

The ROADMAP's "Closed-loop QoE" layer: :class:`~repro.qoe.machine.QoeStateMachine`
classifies each meeting into GOOD / DEGRADED / IMPAIRED / CRITICAL from the
window metrics the pipeline already emits (§5), with hysteresis so flapping
links don't flap alerts, and :class:`~repro.qoe.tracker.MeetingQoeTracker`
feeds it from the analyzer's record and eviction hooks in batch, rolling,
and live paths alike.
"""

from repro.qoe.machine import QoeSample, QoeState, QoeStateMachine, QoeTransition
from repro.qoe.tracker import GAP_CAP, QOE_COUNTER_SEEDS, MeetingQoeTracker

__all__ = [
    "GAP_CAP",
    "QOE_COUNTER_SEEDS",
    "MeetingQoeTracker",
    "QoeSample",
    "QoeState",
    "QoeStateMachine",
    "QoeTransition",
]
