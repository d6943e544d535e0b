"""The protocol plugin contract: one decision tree + a dissector.

The staged pipeline (:mod:`repro.core.stages`) is protocol-agnostic: the
classify stage asks each enabled plugin, in deterministic ``(priority,
name)`` order, whether it *claims* a parsed packet, and the demux stage
hands claimed media-class packets to the claimant's :meth:`dissect` to
produce the normalized :class:`~repro.core.streams.RTPPacketRecord` every
downstream layer (assembly, metrics, QoE, store, service windows) already
consumes.  What a new plugin writes:

1. **Its class enum** — members with a string ``value`` (telemetry counter
   suffix), a ``claimed`` property and an ``is_media`` property
   (``ZoomClass``, ``RtpClass``).
2. **One decision tree** — :meth:`ProtocolPlugin.decide` states the
   detection rules once, side-effect free: given a parsed packet — its
   stored ``src/dst/src_port/dst_port/proto/payload`` fields, addresses in
   wire form, never a header object — and a ``lookup(addr, port, now)``
   view of the plugin's endpoint tracker (:attr:`ProtocolPlugin.stun`) it
   returns the packet's class and the endpoints the packet teaches.  Everything that *applies* a decision is
   derived here from that one tree: :meth:`~ProtocolPlugin.classify`
   (decide with the refreshing lookup, then learn and count),
   the conflict probe :meth:`~ProtocolPlugin.would_claim` (decide with
   ``peek``, apply nothing — it feeds ``protocols.conflicts``) and the
   shard hint :meth:`~ProtocolPlugin.observe_stun` (decide with ``peek``,
   learn only).
3. **Dissection** — :meth:`~ProtocolPlugin.on_claimed` (non-media side
   channels; decides whether the packet continues) and
   :meth:`~ProtocolPlugin.dissect`, which decodes a claimed media packet
   into a record tagged with :attr:`~ProtocolPlugin.name` — its RTP fields
   from the one shared walk, :func:`repro.rtp.rtp.walk_rtp_header` — or
   ends it in the shared :func:`observe_rtcp` / :func:`undecoded`
   accounting.

The prefilter hints — :attr:`~ProtocolPlugin.prefilter_networks`,
:attr:`~ProtocolPlugin.sniff_all_stun` and the tracker — let
:meth:`repro.net.batch.BatchPrefilter.from_plugins` compile the union of
every enabled plugin's match-action rules, preserving the batch path's
guarantee: a dropped frame is provably unclaimed by *every* plugin and
touches no plugin state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

from repro.rtp.rtcp import RTCPReceiverReport, RTCPSdes, RTCPSenderReport
from repro.zoom.constants import ENCAP_OTHER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import Endpoint, EndpointLookup, StunTracker
    from repro.core.pipeline import AnalysisResult
    from repro.core.stages.base import PacketContext
    from repro.net.packet import ParsedPacket
    from repro.telemetry.registry import Telemetry


@runtime_checkable
class ProtocolClass(Protocol):
    """Structural contract of a plugin's classification enum members."""

    value: str

    @property
    def claimed(self) -> bool: ...

    @property
    def is_media(self) -> bool: ...


class ProtocolPlugin:
    """Base class / contract for one protocol's detector + dissector.

    Subclasses set :attr:`name`, :attr:`priority`, and :attr:`classes`,
    and implement the methods below.  The default attribute values make a
    plugin with no prefilter footprint (nothing passes on its behalf
    beyond what other plugins compile in).
    """

    #: Registry key, telemetry dimension, and record label.
    name: str = "?"

    #: Claim precedence — lower wins; ties break on :attr:`name`.
    priority: int = 100

    #: Every classification this plugin can return (for counter pre-resolution).
    classes: Sequence[ProtocolClass] = ()

    #: Prefilter rule: IPv4 ``(network, netmask)`` pairs (a
    #: :class:`~repro.net.ip.PrefixTable`'s ``v4``) whose traffic must
    #: always pass.
    prefilter_networks: Sequence[tuple[int, int]] = ()

    #: Prefilter rule: sniff the STUN magic cookie on *every* IPv4/UDP
    #: frame (not just well-known-port frames in plugin subnets) because
    #: this plugin can learn endpoints from arbitrary-port STUN.
    sniff_all_stun: bool = False

    #: The endpoint tracker :meth:`decide` consults through ``lookup`` and
    #: the derived methods teach.
    stun: "StunTracker | None" = None

    @property
    def stun_trackers(self) -> tuple["StunTracker", ...]:
        """Endpoint trackers whose learned (ip, port) keys must pass the
        prefilter; synced into its never-expiring pass-set per batch."""
        return () if self.stun is None else (self.stun,)

    # ------------------------------------------------------------- detection

    def decide(
        self, parsed: "ParsedPacket", lookup: "EndpointLookup"
    ) -> tuple[ProtocolClass | None, Sequence["Endpoint"]]:
        """The plugin's detection rules, stated once, without side effects.

        Returns ``(class, endpoints this frame teaches)``: a class with
        ``claimed=True`` claims the packet, a non-claiming class vetoes it
        with an explicit verdict (Zoom's ``NOT_ZOOM``), ``None`` abstains.
        Endpoint state is read only through ``lookup``.
        """
        raise NotImplementedError

    def classify(self, parsed: "ParsedPacket") -> ProtocolClass | None:
        """:meth:`decide` with the refreshing lookup, then learn and count."""
        klass, learned = self.decide(parsed, self.stun.touch)
        for ip, port in learned:
            self.stun.learn(ip, port, parsed.timestamp)
        self.count(klass)
        return klass

    def would_claim(self, parsed: "ParsedPacket") -> bool:
        """Whether :meth:`classify` would claim — nothing is applied."""
        klass, _ = self.decide(parsed, self.stun.peek)
        return klass is not None and klass.claimed

    def count(self, klass: ProtocolClass | None) -> None:
        """Per-verdict accounting of one classified packet (Zoom's
        detector counters); nothing by default."""

    def account_unclaimed_batch(self, count: int) -> None:
        """Bulk-account ``count`` prefilter-dropped frames.

        Dropped frames are provably unclaimed by every plugin; a plugin
        with its own per-verdict counters (Zoom's detector) applies here
        exactly what ``count`` scalar ``classify`` calls would have.
        """

    def on_claimed(self, ctx: "PacketContext", result: "AnalysisResult") -> bool:
        """Post-claim handling in the classify stage.

        Runs the protocol's non-media side channels (TLS RTT folding, STUN
        accounting) and returns ``True`` only for media-class packets that
        should continue into the demux stage, with ``ctx.five_tuple`` set.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ dissection

    def dissect(
        self, ctx: "PacketContext", result: "AnalysisResult", telemetry: "Telemetry"
    ) -> bool:
        """Decode one claimed media-class packet.

        Sets ``ctx.record`` and returns ``True`` to advance to assembly;
        returns ``False`` for RTCP/control/undecodable payloads after
        doing their accounting (Table 2/3 counters, RTCP tallies and
        clock sync).
        """
        raise NotImplementedError

    # --------------------------------------------------------------- sharing

    def observe_stun(self, parsed: "ParsedPacket") -> bool:
        """Learn endpoint state from a replicated STUN frame without
        counting it (sharded hint replication); returns whether anything
        was learned."""
        _, learned = self.decide(parsed, self.stun.peek)
        for ip, port in learned:
            self.stun.learn(ip, port, parsed.timestamp)
        return bool(learned)

    def purge(self, now: float) -> int:
        """Drop expired endpoint state (rolling sweep); returns the count."""
        return sum(tracker.purge(now) for tracker in self.stun_trackers)

    # ------------------------------------------------------------------- CLI

    def flow_tag(self, klass: ProtocolClass) -> str:
        """Short direction/kind tag for the ``dissect`` CLI header."""
        return klass.value

    def dissect_text(self, parsed: "ParsedPacket", klass: ProtocolClass) -> str:
        """Human-readable payload rendering for the ``dissect`` CLI."""
        raise NotImplementedError


def observe_rtcp(
    reports: Iterable,
    media_type: int,
    size: int,
    result: "AnalysisResult",
    telemetry: "Telemetry",
) -> bool:
    """Account one RTCP packet (Table 2/3 counters, SR/SDES/RR tallies) and
    feed its sender reports to the clock-sync collector (``result.sync``);
    returns ``False`` — RTCP ends here."""
    result.encap_packets[media_type] += 1
    result.encap_bytes[media_type] += size
    telemetry.count("demux.rtcp")
    for report in reports:
        if isinstance(report, RTCPSenderReport):
            result.rtcp_sender_reports += 1
            result.sync.observe(report)
        elif isinstance(report, RTCPSdes):
            if report.is_empty:
                result.rtcp_sdes_empty += 1
        elif isinstance(report, RTCPReceiverReport):
            result.rtcp_receiver_reports += 1
            telemetry.count("demux.rtcp_receiver_reports")
    return False


def undecoded(size: int, result: "AnalysisResult", telemetry: "Telemetry") -> bool:
    """Account one claimed payload that did not decode; returns ``False``."""
    result.undecoded_packets += 1
    result.encap_packets[ENCAP_OTHER] += 1
    result.encap_bytes[ENCAP_OTHER] += size
    telemetry.count("demux.undecoded")
    return False


def protocol_counter_seeds(names: Sequence[str]) -> tuple[str, ...]:
    """The per-protocol telemetry counters to pre-seed for ``names``.

    Seeded at analyzer construction (and therefore visible as zeros on the
    service's ``/metrics`` page before the first packet, the same pattern
    as ``qoe.*``): one claim counter and one decoded-media counter per
    enabled plugin, plus the cross-plugin conflict counter.
    """
    seeds = ["protocols.conflicts"]
    for name in names:
        seeds.append(f"protocols.claimed.{name}")
        seeds.append(f"protocols.media.{name}")
    return tuple(seeds)
