"""The stage protocol and the per-packet context that flows through it.

One :class:`PacketContext` is created per parsed frame and handed to each
stage in order.  A stage reads the fields earlier stages filled in, adds its
own, and returns ``True`` to pass the packet on or ``False`` to stop the
pipeline for this packet (not-Zoom traffic, control packets, undecodable
payloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.net.packet import FiveTuple, ParsedPacket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.streams import RTPPacketRecord
    from repro.protocols.base import ProtocolClass, ProtocolPlugin


@dataclass(init=False)
class PacketContext:
    """Mutable per-packet state shared by the stages.

    Only ``parsed`` is stored at construction; a field no stage has filled
    in yet reads its class-level default, so a packet that stops early pays
    for nothing it did not reach.

    Attributes (filled in as the packet advances):
        parsed: L2–L4 decode of the frame (set at construction).
        klass: Protocol classification — a member of the claiming plugin's
            class enum, e.g. ``ZoomClass`` or ``RtpClass`` (classify stage).
        plugin: The plugin that claimed the packet (classify stage).
        protocol: The claimant's registry name (classify stage).
        five_tuple: Flow key of a media-class UDP packet (classify stage).
        record: Normalized RTP packet record (demux stage).
    """

    parsed: ParsedPacket
    klass: "ProtocolClass | None" = None
    plugin: "ProtocolPlugin | None" = None
    protocol: str | None = None
    five_tuple: FiveTuple | None = None
    record: "RTPPacketRecord | None" = None

    def __init__(self, parsed: ParsedPacket) -> None:
        self.parsed = parsed


@runtime_checkable
class Stage(Protocol):
    """One step of the analyzer pipeline.

    Stages are constructed with a reference to the shared
    :class:`~repro.core.pipeline.AnalysisResult` (the assembly stage also
    with the analyzer's ``record_hooks`` list) and keep whatever per-run
    state they need (the assembly stage's known-stream set, for example).
    """

    name: str

    def process(self, ctx: PacketContext) -> bool:
        """Advance one packet; ``False`` stops the pipeline for it."""
        ...
