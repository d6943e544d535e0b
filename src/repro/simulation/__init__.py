"""Packet-accurate Zoom traffic emulator.

The paper measures real Zoom traffic; this subpackage is the substitution
documented in DESIGN.md §2: an emulator that reproduces every on-the-wire
behaviour the paper documents, so that the analyzer (:mod:`repro.core`) is
exercised on realistic input without access to Zoom's closed systems.

Behaviours reproduced (with the paper section that documents each):

* Zoom SFU + media encapsulation around standard RTP/RTCP (§4.2, Tables 1-2).
* Per-media UDP flows to server port 8801; P2P flows on ephemeral ports
  preceded by STUN exchanges with a zone controller on port 3478 (§3, §4.1).
* Audio talk/silence payload types 112/99 (silence = fixed 40-byte payload),
  FEC substreams on payload type 110 sharing timestamps but not sequence
  numbers, screen share on payload type 99 (§4.2.3, Table 3).
* RTCP sender reports once per second per stream, sometimes with an empty
  SDES; no receiver reports (§4.2.1).
* SFU forwarding that preserves RTP sequence numbers and timestamps (§4.3.2).
* Retransmission of lost packets (same RTP sequence number, ≤2 attempts,
  ~100 ms timeout) (§5.5).
* Rate adaptation: ~28 fps steady state dropping toward ~14 fps under
  congestion or thumbnail display (§5.2, §6.2).
* TLS/TCP control connections to port 443 usable as an RTT proxy (§5.3).
* A campus-diurnal meeting arrival pattern for trace-scale studies (§6.2).
"""

from repro.simulation.adapter import captured_packets, quantize_timestamp
from repro.simulation.clock import EventScheduler
from repro.simulation.netpath import CongestionEvent, NetworkPath
from repro.simulation.media import AudioSource, ScreenShareSource, VideoSource
from repro.simulation.meeting import (
    MeetingConfig,
    MeetingSimulator,
    ParticipantConfig,
    SimulationResult,
)
from repro.simulation.campus import (
    CampusTraceConfig,
    ImpairmentScenario,
    bandwidth_cliff_scenario,
    congestion_adaptation_scenario,
    generate_campus_trace,
    impairment_suite,
    jitter_spike_scenario,
    loss_burst_scenario,
    loss_collapse_scenario,
)
from repro.simulation.infrastructure import ServerDirectory, ZoomServer
from repro.simulation.qos import ImpairmentInterval, QoSReport, QoSSample
from repro.simulation.webrtc import (
    WebRTCCallConfig,
    WebRTCCallSimulator,
    WebRTCSimulationResult,
    simulate_webrtc_call,
)

__all__ = [
    "AudioSource",
    "CampusTraceConfig",
    "CongestionEvent",
    "EventScheduler",
    "ImpairmentInterval",
    "ImpairmentScenario",
    "MeetingConfig",
    "MeetingSimulator",
    "NetworkPath",
    "ParticipantConfig",
    "QoSReport",
    "QoSSample",
    "ScreenShareSource",
    "ServerDirectory",
    "SimulationResult",
    "VideoSource",
    "WebRTCCallConfig",
    "WebRTCCallSimulator",
    "WebRTCSimulationResult",
    "ZoomServer",
    "simulate_webrtc_call",
    "bandwidth_cliff_scenario",
    "captured_packets",
    "congestion_adaptation_scenario",
    "generate_campus_trace",
    "impairment_suite",
    "jitter_spike_scenario",
    "loss_burst_scenario",
    "loss_collapse_scenario",
    "quantize_timestamp",
]
