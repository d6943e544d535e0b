"""Live NIC ingestion: ``AF_PACKET`` behind the ``PacketSource`` protocol.

This is where the software dataplane touches an actual wire.  Three
pieces:

* :class:`AFPacketSocket` — a raw ``AF_PACKET`` socket bound to one
  interface, with the compiled cBPF program attached via
  ``SO_ATTACH_FILTER`` and kernel drop accounting read from
  ``PACKET_STATISTICS`` (the kernel zeroes those counters on every read,
  so the class accumulates).  Requires ``CAP_NET_RAW``.
* :class:`SimulatedPacketSocket` — the same surface with no kernel and no
  privileges: frames are injected (or pulled from a replay capture), the
  attached program runs through the pure-Python cBPF interpreter, and a
  bounded ring drops on overflow exactly like a kernel ring would.  Every
  dataplane path — filtering, drop accounting, recompile-and-reattach —
  is testable in CI with this backend; ``--interface sim:<capture>`` runs
  it from the CLI.
* :class:`LiveInterfaceSource` — adapts either socket to the existing
  :class:`~repro.net.source.PacketSource` protocol *and* to the service
  runner's polling surface (a bounded synchronous :meth:`poll` plus a
  ``polls`` counter), so :class:`~repro.service.runner.ZoomMonitorService`
  ingests from a NIC through the exact code path it uses for a capture
  directory.

The filtering story is layered (§6.1's Tofino, in software):

1. the cBPF program drops provable background **in the kernel** (or the
   simulated ring) — those frames never reach Python;
2. each received chunk is packed into a batch and compacted to the
   columnar :class:`~repro.net.batch.BatchPrefilter`'s survivors
   (:class:`~repro.dataplane.rawfilter.RawFrameFilter`) — the prefilter
   also *sniffs* STUN cookies, which is how new P2P endpoints are learned;
3. when the shared endpoint set has grown (its own sniff or a detector
   tracker fold-in), the source recompiles and re-attaches the kernel
   program at the next poll boundary — the dynamic-rules loop the paper's
   control plane runs against the switch.
"""

from __future__ import annotations

import collections
import socket as socket_module
import struct
import time
from pathlib import Path
from typing import Iterable, Iterator

from repro.dataplane.cbpf import CBPFProgram, run_cbpf
from repro.dataplane.compiler import CaptureRules, compile_cbpf
from repro.dataplane.rawfilter import RawFrameFilter
from repro.net.batch import (
    DEFAULT_FRAMES_PER_BATCH,
    BatchPrefilter,
    FrameBatch,
    FrameBatchBuilder,
)
from repro.net.source import PacketSourceBase
from repro.telemetry.registry import Telemetry

__all__ = [
    "DataplaneFilter",
    "SimulatedPacketSocket",
    "AFPacketSocket",
    "LiveInterfaceSource",
    "open_packet_socket",
    "SIM_INTERFACE_PREFIX",
]

#: ``--interface sim:<capture>`` replays a capture through the simulated
#: socket — the no-root path for tests, demos, and CI.
SIM_INTERFACE_PREFIX = "sim:"

# <linux/if_ether.h> / <linux/if_packet.h> — not exposed by the socket
# module on all Pythons, so spelled out.
_ETH_P_ALL = 0x0003
_SOL_PACKET = 263
_PACKET_STATISTICS = 6
_SO_ATTACH_FILTER = 26
_SO_DETACH_FILTER = 27


class DataplaneFilter:
    """One rule state driving both filter tiers.

    Owns the :class:`BatchPrefilter` (the userspace decision and the rule
    *store*), wraps it in a :class:`RawFrameFilter` (batch compaction),
    and compiles cBPF snapshots of it on demand (the kernel tier).
    ``needs_recompile`` is a cheap growth check — the pass-set never
    shrinks, so a size delta is exactly "the rules changed".
    """

    def __init__(
        self,
        prefilter: BatchPrefilter,
        *,
        stun_trackers: Iterable = (),
        max_endpoints: int | None = None,
    ) -> None:
        self.prefilter = prefilter
        self.raw = RawFrameFilter(prefilter)
        self.stun_trackers = tuple(stun_trackers)
        self._max_endpoints = max_endpoints
        self._compiled_count: int | None = None

    @classmethod
    def from_plugins(cls, plugins: Iterable, **kwargs) -> "DataplaneFilter":
        plugins = tuple(plugins)
        trackers = [t for plugin in plugins for t in plugin.stun_trackers]
        return cls(
            BatchPrefilter.from_plugins(plugins), stun_trackers=trackers, **kwargs
        )

    def sync(self) -> None:
        """Fold every tracker's learned endpoints into the shared pass-set.

        Runs at a poll boundary on the thread that analyzes the batches,
        so no tracker changes while it is read.
        """
        for tracker in self.stun_trackers:
            self.prefilter.sync_stun(tracker)

    def needs_recompile(self) -> bool:
        return self._compiled_count != self.prefilter.endpoint_count

    def compile(self) -> CBPFProgram:
        """Compile the current rule snapshot to cBPF."""
        rules = CaptureRules.from_prefilter(self.prefilter)
        self._compiled_count = len(rules.endpoints)
        if self._max_endpoints is not None:
            return compile_cbpf(rules, max_endpoints=self._max_endpoints)
        return compile_cbpf(rules)


class SimulatedPacketSocket:
    """A kernel-free ``AF_PACKET`` stand-in with real drop semantics.

    Frames enter through :meth:`inject` (tests) or a pull-based replay
    iterator (:meth:`replay`); the attached cBPF program filters them via
    the reference interpreter *before* the ring, and a full ring drops —
    mirroring where a kernel socket filters and drops.  Statistics follow
    ``PACKET_STATISTICS`` semantics: ``tp_packets`` counts frames that
    passed the filter (delivered *or* ring-dropped), ``tp_drops`` the
    ring overflows.

    Replay pulls ``chunk`` frames into the ring per :meth:`recv_batch`
    refill; a ``chunk`` larger than ``ring_capacity`` therefore forces
    deterministic overload — the smoke test's forced-drop run.
    """

    def __init__(
        self,
        frames: Iterable[tuple[float, bytes]] = (),
        *,
        ring_capacity: int = 8192,
        chunk: int = 256,
    ) -> None:
        if ring_capacity < 1 or chunk < 1:
            raise ValueError("ring_capacity and chunk must be >= 1")
        self._ring: collections.deque = collections.deque()
        self._ring_capacity = ring_capacity
        self._chunk = chunk
        self._replay = iter(frames)
        self._replay_done = False
        self._program: CBPFProgram | None = None
        self.injected = 0
        self.filtered = 0  # rejected by the attached program
        self.tp_packets = 0  # passed the filter (kernel-visible)
        self.tp_drops = 0  # ring overflow
        self.closed = False

    @classmethod
    def replay(
        cls, path: "str | Path", *, ring_capacity: int = 8192, chunk: int = 256
    ) -> "SimulatedPacketSocket":
        """Replay a capture file (lazily) through the simulated ring."""
        from repro.net.source import open_capture_source

        def frames() -> Iterator[tuple[float, bytes]]:
            with open_capture_source(path) as source:
                for batch in source.frame_batches():
                    for raw, ts in batch.iter_frames():
                        yield ts, bytes(raw)

        return cls(frames(), ring_capacity=ring_capacity, chunk=chunk)

    # ------------------------------------------------------- socket surface

    def attach_filter(self, program: CBPFProgram) -> None:
        program.validate()
        self._program = program

    def detach_filter(self) -> None:
        self._program = None

    def inject(self, timestamp: float, frame: bytes) -> bool:
        """Offer one frame to the socket; returns True if it was ringed."""
        self.injected += 1
        if self._program is not None and run_cbpf(self._program, frame) == 0:
            self.filtered += 1
            return False
        self.tp_packets += 1
        if len(self._ring) >= self._ring_capacity:
            self.tp_drops += 1
            return False
        self._ring.append((timestamp, frame))
        return True

    def _refill(self) -> None:
        if self._replay_done:
            return
        for _ in range(self._chunk):
            try:
                timestamp, frame = next(self._replay)
            except StopIteration:
                self._replay_done = True
                return
            self.inject(timestamp, frame)

    def recv_batch(self, max_frames: int) -> list[tuple[float, bytes]]:
        """Up to ``max_frames`` ringed frames (empty at EOF / nothing ready)."""
        if not self._ring:
            self._refill()
        out = []
        ring = self._ring
        while ring and len(out) < max_frames:
            out.append(ring.popleft())
        return out

    @property
    def exhausted(self) -> bool:
        """True once the replay stream is done and the ring is drained."""
        return self._replay_done and not self._ring

    def stats(self) -> tuple[int, int]:
        """Cumulative ``(tp_packets, tp_drops)``."""
        return self.tp_packets, self.tp_drops

    def close(self) -> None:
        self.closed = True
        self._ring.clear()
        self._replay_done = True


class AFPacketSocket:
    """A real ``AF_PACKET`` capture socket on one interface.

    Needs ``CAP_NET_RAW`` (the constructor's ``PermissionError`` is the
    caller's signal to fall back or skip).  ``PACKET_STATISTICS`` resets
    on every read, so :meth:`stats` accumulates into monotonic totals —
    the same shape the simulated socket reports.
    """

    def __init__(self, interface: str, *, recv_bufsize: int = 65535) -> None:
        self.interface = interface
        self._bufsize = recv_bufsize
        self._sock = socket_module.socket(
            socket_module.AF_PACKET,
            socket_module.SOCK_RAW,
            socket_module.htons(_ETH_P_ALL),
        )
        try:
            self._sock.bind((interface, 0))
            self._sock.setblocking(False)
        except OSError:
            self._sock.close()
            raise
        self._tp_packets = 0
        self._tp_drops = 0
        self.closed = False

    @property
    def exhausted(self) -> bool:
        return False  # a NIC never runs out

    def attach_filter(self, program: CBPFProgram) -> None:
        """``SO_ATTACH_FILTER`` with a packed ``sock_fprog``.

        The kernel copies the instruction array during ``setsockopt``, so
        the ctypes buffer only has to outlive this call.
        """
        import ctypes

        program.validate()
        packed = program.pack()
        buf = ctypes.create_string_buffer(packed, len(packed))
        # struct sock_fprog { unsigned short len; struct sock_filter *p; }
        # — native alignment pads the short up to the pointer.
        fprog = struct.pack("HL", len(program), ctypes.addressof(buf))
        self._sock.setsockopt(socket_module.SOL_SOCKET, _SO_ATTACH_FILTER, fprog)

    def detach_filter(self) -> None:
        try:
            self._sock.setsockopt(socket_module.SOL_SOCKET, _SO_DETACH_FILTER, 0)
        except OSError:
            pass  # no filter attached

    def recv_batch(self, max_frames: int) -> list[tuple[float, bytes]]:
        """Drain up to ``max_frames`` immediately-available frames."""
        out = []
        recv = self._sock.recv
        bufsize = self._bufsize
        while len(out) < max_frames:
            try:
                frame = recv(bufsize)
            except (BlockingIOError, InterruptedError):
                break
            if frame:
                out.append((time.time(), frame))
        return out

    def stats(self) -> tuple[int, int]:
        """Cumulative ``(tp_packets, tp_drops)`` across resets."""
        try:
            raw = self._sock.getsockopt(_SOL_PACKET, _PACKET_STATISTICS, 8)
            packets, drops = struct.unpack("II", raw)
        except OSError:
            packets = drops = 0
        self._tp_packets += packets
        self._tp_drops += drops
        return self._tp_packets, self._tp_drops

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._sock.close()


def open_packet_socket(interface: str, **sim_options):
    """Dispatch an interface name to the right socket backend.

    ``sim:<capture-path>`` opens a :class:`SimulatedPacketSocket` replay
    (no privileges needed); anything else is a real NIC name.
    """
    if interface.startswith(SIM_INTERFACE_PREFIX):
        path = interface[len(SIM_INTERFACE_PREFIX):]
        return SimulatedPacketSocket.replay(path, **sim_options)
    return AFPacketSocket(interface)


class LiveInterfaceSource(PacketSourceBase):
    """A packet socket as a :class:`PacketSource` with a :meth:`poll`.

    The service runner's loop speaks the polling surface the capture
    directory reader (:class:`~repro.net.source.CaptureDirectorySource`)
    has — a bounded synchronous :meth:`poll` yielding batches, plus
    ``polls`` — and this class implements it over a socket, so the
    daemon's loop, crash-restart, and drain logic apply unchanged to live
    capture.  The loop asks for the next batch only once the last one is
    analyzed; meanwhile frames wait in the kernel ring, and what overflows
    it is counted as ``kernel_drops``.  Batch analyzers can instead consume
    :meth:`frame_batches`, which polls until the socket is exhausted
    (simulated replay) — a NIC-backed source never exhausts and belongs
    under the service runner.

    Per poll: receive up to ``max_frames_per_poll`` frames, pack each
    received chunk into a :class:`FrameBatch` and compact it to the
    prefilter's survivors (the kernel program already dropped what it
    could), fold kernel drop deltas into telemetry, and — when the rule
    state grew — recompile and re-attach the kernel program for the
    *next* frames.
    """

    def __init__(
        self,
        socket,
        *,
        dataplane: DataplaneFilter | None = None,
        attach_filter: bool = True,
        telemetry: Telemetry | None = None,
        batch_size: int = DEFAULT_FRAMES_PER_BATCH,
        max_frames_per_poll: int = 65536,
    ) -> None:
        super().__init__(telemetry=telemetry, batch_size=batch_size)
        self.socket = socket
        self.dataplane = dataplane
        self._attach = attach_filter and dataplane is not None
        self.polls = 0
        self.kernel_packets = 0
        self.kernel_drops = 0
        self.recompiles = 0
        self.frames_filtered = 0
        self._max_frames_per_poll = max_frames_per_poll
        if self._attach:
            self._recompile()

    # --------------------------------------------------------------- filter

    def _recompile(self) -> None:
        program = self.dataplane.compile()
        self.socket.attach_filter(program)
        self.recompiles += 1
        self._telemetry.count("dataplane.recompiles")
        if program.meta.get("saturated"):
            self._telemetry.count("dataplane.saturated")

    def maybe_recompile(self) -> bool:
        """Sync trackers; recompile + re-attach if the rule state grew."""
        if self.dataplane is None:
            return False
        self.dataplane.sync()
        if self._attach and self.dataplane.needs_recompile():
            self._recompile()
            return True
        return False

    # ----------------------------------------------------------- tailer API

    @property
    def exhausted(self) -> bool:
        return bool(getattr(self.socket, "exhausted", False))

    def poll(self) -> Iterator[FrameBatch]:
        """One bounded pass over the socket; yields batches of new frames."""
        self.polls += 1
        tel = self._telemetry
        tel.count("dataplane.polls")
        self.maybe_recompile()
        remaining = self._max_frames_per_poll
        raw = self.dataplane.raw if self.dataplane is not None else None
        builder = FrameBatchBuilder()
        received = 0
        filtered = 0
        filtered_bytes = 0
        try:
            while remaining > 0:
                frames = self.socket.recv_batch(min(remaining, self._batch_size))
                if not frames:
                    break
                remaining -= len(frames)
                received += len(frames)
                for timestamp, frame in frames:
                    builder.append(frame, timestamp)
                batch = builder.build()
                if raw is not None:
                    batch, verdict = raw.filter_batch(batch)
                    filtered += verdict.dropped
                    filtered_bytes += verdict.dropped_bytes
                if len(batch):
                    # Hand off at recv-chunk granularity: the analyzer should
                    # not wait for a full-size batch on a quiet link.
                    yield self._emit(batch)
        finally:
            # Also when a stop abandons the poll mid-loop: what was
            # received is counted, and the kernel counters are read.
            if received:
                tel.count("dataplane.frames", received)
            if filtered:
                self.frames_filtered += filtered
                tel.count("dataplane.filtered", filtered)
                tel.count("dataplane.filtered_bytes", filtered_bytes)
            self._update_kernel_stats()

    def _update_kernel_stats(self) -> None:
        packets, drops = self.socket.stats()
        new_drops = drops - self.kernel_drops
        if new_drops > 0:
            self._telemetry.count("dataplane.kernel_drops", new_drops)
        self.kernel_packets = packets
        self.kernel_drops = drops

    # ----------------------------------------------------- PacketSource API

    def frame_batches(self) -> Iterator[FrameBatch]:
        """Poll until the socket is exhausted (finite replays only)."""
        while True:
            yield from self.poll()
            if self.exhausted:
                return

    def close(self) -> None:
        self.socket.close()
