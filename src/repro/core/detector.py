"""Zoom traffic detection, including deterministic P2P detection (§4.1).

Server-based traffic is matched statelessly against Zoom's published IP
prefixes.  P2P flows use ephemeral ports at both ends and client-owned
addresses, so no stateless rule can catch them; the paper's key observation
is that every P2P flow is *preceded* by a cleartext STUN binding exchange
with a Zoom zone controller on UDP 3478, sent **from the very ephemeral port
the media flow will use**.  :class:`StunTracker` remembers those
(client IP, client port) endpoints for a configurable timeout and
:class:`ZoomTrafficDetector` classifies later UDP traffic against them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.net.ip import PrefixTable, ip_to_str
from repro.net.packet import ParsedPacket
from repro.rtp.stun import STUN_PORT, is_stun
from repro.zoom.constants import SERVER_MEDIA_PORT, SERVER_TLS_PORT, ZOOM_SERVER_SUBNETS


class ZoomClass(enum.Enum):
    """Classification of one packet by the detector."""

    SERVER_MEDIA = "server_media"  # UDP to/from a Zoom server, port 8801
    SERVER_STUN = "server_stun"  # STUN with a Zoom zone controller
    SERVER_TLS = "server_tls"  # TCP 443 control connection to a Zoom server
    SERVER_OTHER = "server_other"  # other traffic with Zoom server addresses
    P2P_MEDIA = "p2p_media"  # STUN-predicted direct peer flow
    NOT_ZOOM = "not_zoom"

    @property
    def is_zoom(self) -> bool:
        return self is not ZoomClass.NOT_ZOOM

    @property
    def claimed(self) -> bool:
        """The protocol-registry claim contract (alias of :attr:`is_zoom`)."""
        return self is not ZoomClass.NOT_ZOOM

    @property
    def is_media(self) -> bool:
        return self in (ZoomClass.SERVER_MEDIA, ZoomClass.P2P_MEDIA)


#: A ``(wire-form address, port)`` endpoint — what a frame teaches a
#: :class:`StunTracker`, which keys it as ``(addr << 16) | port``.
Endpoint = tuple[int, int]

#: ``lookup(addr, port, now)`` — one view of a :class:`StunTracker`
#: (:meth:`~StunTracker.touch` or :meth:`~StunTracker.peek`).
EndpointLookup = Callable[[int, int, float], bool]


#: The one prefix table (public name kept): Zoom and campus membership for
#: the detector and the capture model and — through the same ``(network,
#: netmask)`` pairs — the batch prefilter and the cBPF compiler; the TCAM
#: match of the Tofino version (§6.1).
ZoomSubnetMatcher = PrefixTable


@dataclass(frozen=True, slots=True)
class StunBinding:
    """One learned P2P endpoint: the client side of a STUN exchange."""

    client_ip: str
    client_port: int
    learned_at: float


@dataclass
class StunTracker:
    """Remembers client endpoints seen in STUN exchanges with Zoom servers.

    When the same (client IP, client port) later talks UDP to *any other*
    address, that flow is classified as Zoom P2P media (§4.1).  Entries
    expire after ``timeout`` seconds; port reuse beyond the timeout is the
    false-positive source the paper discusses, and false positives are
    filtered downstream by checking the Zoom packet format.

    Addresses arrive in wire form (:mod:`repro.net.ip`) and bindings are
    keyed ``(addr << 16) | port`` — the integers the batch prefilter's
    pass-set and the capture rules hold, so folding one into the other is a
    set union.
    """

    timeout: float = 120.0
    _bindings: dict[int, float] = field(default_factory=dict)
    bindings_learned: int = 0

    def learn(self, client_ip: int, client_port: int, now: float) -> None:
        """Record a client endpoint observed in a Zoom STUN exchange."""
        self._bindings[(client_ip << 16) | client_port] = now
        self.bindings_learned += 1

    def lookup(self, ip: int, port: int, now: float, *, refresh: bool = False) -> bool:
        """Whether (ip, port) was STUN-registered within the timeout.

        With ``refresh=True`` a successful lookup re-arms the binding at
        ``now``: the caller has just confirmed the endpoint is carrying live
        Zoom P2P media, which is at least as strong an aliveness signal as
        the STUN exchange that created the binding.  Without it, a P2P flow
        outliving the timeout is silently cut mid-stream — the media keeps
        flowing but stops being classified — while server streams (matched
        statelessly by subnet) can never go stale this way.
        """
        key = (ip << 16) | port
        learned = self._bindings.get(key)
        if learned is None:
            return False
        if now - learned > self.timeout:
            del self._bindings[key]
            return False
        if refresh and now > learned:
            self._bindings[key] = now
        return True

    def touch(self, ip: int, port: int, now: float) -> bool:
        """The refreshing :meth:`lookup` — the view ``classify`` decides with."""
        return self.lookup(ip, port, now, refresh=True)

    def peek(self, ip: int, port: int, now: float) -> bool:
        """:meth:`lookup` without side effects: no expiry delete, no refresh.

        The view the registry's conflict probe (``would_claim``) and the
        shard hint (``observe_stun``) decide with: re-evaluating a packet
        must not perturb tracker state.
        """
        learned = self._bindings.get((ip << 16) | port)
        return learned is not None and now - learned <= self.timeout

    def purge(self, now: float) -> int:
        """Drop every binding older than the timeout; returns the count.

        Expiry is otherwise lazy — a binding is only deleted when *its own*
        endpoint is looked up again — so endpoints that STUN'd but never sent
        media would accumulate forever in continuous operation.  The rolling
        analyzer calls this from its eviction sweep.
        """
        stale = [
            endpoint
            for endpoint, learned in self._bindings.items()
            if now - learned > self.timeout
        ]
        for endpoint in stale:
            del self._bindings[endpoint]
        return len(stale)

    def active_bindings(self, now: float) -> list[StunBinding]:
        """Unexpired endpoints, rendered (for inspection/diagnostics)."""
        return [
            StunBinding(ip_to_str(key >> 16), key & 0xFFFF, learned)
            for key, learned in self._bindings.items()
            if now - learned <= self.timeout
        ]

    def __len__(self) -> int:
        return len(self._bindings)

    def endpoints(self) -> list[int]:
        """Every currently-tracked ``(addr << 16) | port`` key, expiry ignored.

        The batch prefilter folds these into its never-expiring pass-set;
        lazily-expired keys are deliberately included, since a frame whose
        endpoint is *about* to expire must still reach the detector so the
        expiry happens on the scalar path, not silently in the prefilter.
        """
        return list(self._bindings)

    def merge_from(self, other: "StunTracker") -> None:
        """Union another tracker's bindings, keeping the freshest learn time."""
        for endpoint, learned in other._bindings.items():
            if learned > self._bindings.get(endpoint, float("-inf")):
                self._bindings[endpoint] = learned
        self.bindings_learned += other.bindings_learned


@dataclass
class DetectorCounters:
    """Per-class packet counters (the detector's own telemetry)."""

    by_class: dict[ZoomClass, int] = field(default_factory=dict)

    def bump(self, klass: ZoomClass) -> None:
        self.by_class[klass] = self.by_class.get(klass, 0) + 1

    def add(self, klass: ZoomClass, count: int) -> None:
        """Bulk bump — the batch prefilter accounts dropped frames at once."""
        if count:
            self.by_class[klass] = self.by_class.get(klass, 0) + count

    def merge_from(self, other: "DetectorCounters") -> None:
        for klass, count in other.by_class.items():
            self.by_class[klass] = self.by_class.get(klass, 0) + count

    def total(self) -> int:
        return sum(self.by_class.values())

    def zoom_total(self) -> int:
        return sum(n for k, n in self.by_class.items() if k.is_zoom)


class ZoomTrafficDetector:
    """Stateful per-packet Zoom classifier (§4.1 + prior-work rules of §3).

    The order of checks mirrors the P4 pipeline of Figure 13:

    1. Zoom-subnet match on either address → server traffic (media on UDP
       8801, STUN on 3478, TLS control on TCP 443, anything else "other").
       STUN packets additionally *teach* the P2P tracker the client's
       endpoint.
    2. Otherwise, a UDP packet whose source or destination endpoint was
       STUN-registered within the timeout → P2P media.
    3. Everything else is not Zoom.
    """

    def __init__(
        self,
        subnets: Iterable[str] = ZOOM_SERVER_SUBNETS,
        *,
        campus_subnets: Iterable[str] | None = None,
        stun_timeout: float = 120.0,
    ) -> None:
        self.matcher = ZoomSubnetMatcher(subnets)
        self.campus_matcher = (
            ZoomSubnetMatcher(campus_subnets) if campus_subnets is not None else None
        )
        self.stun = StunTracker(timeout=stun_timeout)
        self.counters = DetectorCounters()

    def classify(self, packet: ParsedPacket) -> ZoomClass:
        """Classify one parsed packet and update detector state."""
        klass, learned = self.decide(packet, self.stun.touch)
        for ip, port in learned:
            self.stun.learn(ip, port, packet.timestamp)
        self.counters.bump(klass)
        return klass

    def decide(
        self, packet: ParsedPacket, lookup: EndpointLookup
    ) -> tuple[ZoomClass, Sequence[Endpoint]]:
        """The decision tree, stated once and free of side effects.

        Returns the packet's class and the endpoints it teaches (the client
        side of a STUN exchange: the source of a request, the destination
        of a response).  Which tracker view ``lookup`` is decides what a
        P2P hit does: :meth:`StunTracker.touch` re-arms the binding — an
        active P2P flow must stay classified for as long as it is sending,
        so only the *idle* timeout ends it, as for server streams —
        :meth:`StunTracker.peek` leaves it alone.
        """
        src = packet.src
        if src is None:
            return ZoomClass.NOT_ZOOM, ()
        dst = packet.dst
        src_port = packet.src_port
        udp = packet.is_udp
        contains = self.matcher.contains
        src_is_zoom = contains(src)
        if src_is_zoom or contains(dst):
            if udp:
                dst_port = packet.dst_port
                if (src_port == STUN_PORT or dst_port == STUN_PORT) and is_stun(
                    packet.payload
                ):
                    if src_is_zoom:
                        return ZoomClass.SERVER_STUN, ((dst, dst_port),)
                    return ZoomClass.SERVER_STUN, ((src, src_port),)
                if src_port == SERVER_MEDIA_PORT or dst_port == SERVER_MEDIA_PORT:
                    return ZoomClass.SERVER_MEDIA, ()
            elif packet.is_tcp and SERVER_TLS_PORT in (src_port, packet.dst_port):
                return ZoomClass.SERVER_TLS, ()
            return ZoomClass.SERVER_OTHER, ()
        if udp:
            now = packet.timestamp
            campus = self.campus_matcher
            if (campus is None or campus.contains(src)) and lookup(src, src_port, now):
                return ZoomClass.P2P_MEDIA, ()
            if (campus is None or campus.contains(dst)) and lookup(
                dst, packet.dst_port, now
            ):
                return ZoomClass.P2P_MEDIA, ()
        return ZoomClass.NOT_ZOOM, ()

    def merge_from(self, other: "ZoomTrafficDetector") -> None:
        """Fold another detector's telemetry and learned state into this one
        (sharded-result merge)."""
        self.counters.merge_from(other.counters)
        self.stun.merge_from(other.stun)
