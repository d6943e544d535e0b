"""repro — passive measurement of Zoom performance in production networks.

A full reproduction of Michel, Sengupta, Kim, Netravali, Rexford,
*Enabling Passive Measurement of Zoom Performance in Production Networks*
(IMC 2022), as a self-contained Python library:

* :mod:`repro.net` — pcap I/O and L2-L4 packet parsing (from scratch);
* :mod:`repro.rtp` — RTP, RTCP, and STUN;
* :mod:`repro.zoom` — Zoom's reverse-engineered proprietary encapsulation;
* :mod:`repro.core` — the paper's analysis pipeline: detection, entropy
  analysis, stream assembly, meeting grouping, performance metrics;
* :mod:`repro.capture` — the P4/Tofino capture-system model;
* :mod:`repro.simulation` — a packet-accurate Zoom traffic emulator standing
  in for production captures (see DESIGN.md for the substitution argument);
* :mod:`repro.analysis` — CDF/table/time-series reporting helpers.

Quickstart::

    from repro.simulation import MeetingConfig, MeetingSimulator, ParticipantConfig
    from repro.core import AnalysisSession, AnalyzerConfig
    from repro.net import SimulationSource

    config = MeetingConfig(
        meeting_id="demo",
        participants=(
            ParticipantConfig(name="alice"),
            ParticipantConfig(name="bob", join_time=1.0),
        ),
        duration=30.0,
    )
    session = AnalysisSession(AnalyzerConfig())
    result = session.run(SimulationSource(config))   # or session.run("trace.pcap")
    print(len(result.meetings), "meeting(s) found")
"""

__version__ = "1.0.0"

from repro.core import AnalysisSession, AnalyzerConfig, ZoomAnalyzer
from repro.net import open_capture_source, write_pcap

__all__ = [
    "AnalysisSession",
    "AnalyzerConfig",
    "ZoomAnalyzer",
    "open_capture_source",
    "write_pcap",
    "__version__",
]
