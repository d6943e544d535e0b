"""Packet-emitting adapter: simulated meetings straight into the analyzer.

Historically the only interchange between the emulator and the analyzer was
a pcap file — every simulated study paid a serialize/deserialize round trip
just to move in-memory frames between two modules of the same process.
This adapter emits :class:`~repro.net.packet.CapturedPacket` records
directly from any simulation scenario, and :func:`quantize_timestamp`
reproduces the pcap writer's nanosecond rounding, so a direct feed
(:class:`~repro.net.source.SimulationSource`) is *bit-identical* to the
write-then-read path (the equivalence the source-layer tests assert).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.net.packet import CapturedPacket

#: Simulation scenario: anything that can produce captured frames.
#: Accepted forms are a :class:`~repro.simulation.MeetingConfig` (the
#: simulator is run on demand), a :class:`~repro.simulation.CampusTraceConfig`,
#: any object with a ``captures`` attribute or an ``all_packets()`` method
#: (:class:`~repro.simulation.SimulationResult`, a campus trace), or a plain
#: iterable of :class:`CapturedPacket`.


def quantize_timestamp(timestamp: float, resolution: float = 1e-9) -> float:
    """The capture time a packet would carry after a pcap round trip.

    Mirrors :class:`~repro.net.pcap.PcapWriter` exactly: split into whole
    seconds plus ticks of ``resolution``, round the ticks, carry overflow
    into the next second, reassemble in float arithmetic in the same order
    the reader does.
    """
    per_second = round(1.0 / resolution)
    whole = int(timestamp)
    frac = int(round((timestamp - whole) / resolution))
    if frac >= per_second:  # rounding pushed us into the next second
        whole += 1
        frac -= per_second
    return whole + frac * resolution


def captured_packets(scenario: object) -> Iterator[CapturedPacket]:
    """Time-ordered captured frames for any simulation scenario form."""
    # Late imports: repro.simulation imports this module's neighbours, and
    # the net-layer sources import this function lazily.
    from repro.simulation.campus import CampusTraceConfig, generate_campus_trace
    from repro.simulation.meeting import MeetingConfig, MeetingSimulator

    if isinstance(scenario, MeetingConfig):
        scenario = MeetingSimulator(scenario).run()
    elif isinstance(scenario, CampusTraceConfig):
        scenario = generate_campus_trace(scenario)
    if hasattr(scenario, "all_packets"):  # campus trace: zoom + background
        yield from scenario.all_packets()
        return
    if hasattr(scenario, "captures"):  # SimulationResult
        yield from scenario.captures
        return
    if isinstance(scenario, Iterable):
        yield from scenario
        return
    raise TypeError(f"cannot emit packets from {type(scenario).__name__}")
