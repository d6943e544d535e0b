"""Software dataplane: capture rules compiled to executable filters.

The paper's measurement system programs a Tofino switch to pre-filter
campus traffic down to Zoom flows before the servers ever see a packet
(§6.1).  This package is the software analogue for commodity Linux boxes,
with the same split — one coarse filter in front of one exact one:

* **kernel tier** — :mod:`repro.dataplane.compiler` turns
  :class:`CaptureRules` (Zoom subnets, STUN-learned P2P endpoints,
  optional campus gating) into a classic-BPF program that
  :class:`AFPacketSocket` attaches via ``SO_ATTACH_FILTER``; background
  frames die in the kernel.
* **userspace tier** — the columnar
  :class:`~repro.net.batch.BatchPrefilter` (``decode_columns`` +
  ``apply``) decides for whatever the kernel passed; it is also the
  single rule *store* the kernel program is compiled from, so a STUN
  binding it learns widens both.  :class:`RawFrameFilter` applies that
  decision to a batch and compacts it to the survivors.

:mod:`repro.dataplane.cbpf` carries the instruction encoding, a small
assembler, and a reference interpreter (:func:`run_cbpf`) with kernel
semantics — the executor for the simulated socket and the oracle for the
equivalence property suite.
"""

from repro.dataplane.cbpf import (
    BPF_MAXINSNS,
    BPFInstruction,
    CBPFProgram,
    run_cbpf,
)
from repro.dataplane.compiler import (
    ACCEPT_ALL,
    DEFAULT_MAX_ENDPOINTS,
    CaptureRules,
    compile_cbpf,
)
from repro.dataplane.live import (
    SIM_INTERFACE_PREFIX,
    AFPacketSocket,
    DataplaneFilter,
    LiveInterfaceSource,
    SimulatedPacketSocket,
    open_packet_socket,
)
from repro.dataplane.rawfilter import RawFrameFilter

#: Counters pre-seeded by the service daemon in interface mode so the
#: Prometheus endpoint exposes stable zero-valued series before the first
#: packet (the ``fleet.*`` pattern; anomaly rules can then distinguish
#: "zero" from "absent").
DATAPLANE_COUNTER_SEEDS = (
    "dataplane.polls",
    "dataplane.frames",
    "dataplane.filtered",
    "dataplane.filtered_bytes",
    "dataplane.kernel_drops",
    "dataplane.recompiles",
    "dataplane.saturated",
)

__all__ = [
    "ACCEPT_ALL",
    "AFPacketSocket",
    "BPF_MAXINSNS",
    "BPFInstruction",
    "CBPFProgram",
    "CaptureRules",
    "DATAPLANE_COUNTER_SEEDS",
    "DEFAULT_MAX_ENDPOINTS",
    "DataplaneFilter",
    "LiveInterfaceSource",
    "RawFrameFilter",
    "SIM_INTERFACE_PREFIX",
    "SimulatedPacketSocket",
    "compile_cbpf",
    "open_packet_socket",
    "run_cbpf",
]
