"""The P4 capture pipeline, stage by stage (Figure 13).

Processing order for every campus border packet:

1. **Campus IP match** — determine which side of the packet is the campus
   host (direction); packets with no campus endpoint are not border traffic.
2. **Zoom IP match** — stateless match of the other side against Zoom's
   published prefixes → pass (server-based traffic, TCP and UDP).
3. **STUN learn** — a passing packet that is a STUN exchange on port 3478
   writes the campus endpoint (IP, port) into the P2P register arrays.
4. **P2P lookup** — a non-Zoom UDP packet whose campus endpoint hits the
   registers → pass as P2P.
5. Everything else is dropped.
6. Passing packets are optionally anonymized on egress.

The model also keeps the per-second processed/filtered counters the paper
used for Figure 17.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.capture.anonymize import Anonymizer
from repro.capture.registers import HashRegisterArray, endpoint_key
from repro.core.detector import ZoomSubnetMatcher
from repro.core.metrics.binning import TimeBinner
from repro.net.packet import CapturedPacket, ParsedPacket, parse_frame
from repro.rtp.stun import STUN_PORT, is_stun
from repro.zoom.constants import CAMPUS_SUBNETS, ZOOM_SERVER_SUBNETS


@dataclass
class PipelineCounters:
    """Per-stage packet counters (the switch's own telemetry)."""

    processed: int = 0
    no_campus_endpoint: int = 0
    zoom_ip_matched: int = 0
    stun_learned: int = 0
    p2p_matched: int = 0
    dropped: int = 0

    @property
    def passed(self) -> int:
        return self.zoom_ip_matched + self.p2p_matched


class P4CaptureModel:
    """Functional model of the Tofino capture program.

    Args:
        zoom_subnets / campus_subnets: The two prefix lists of Figure 13.
        register_size: Slots per P2P register array (SRAM budget).
        stun_timeout: Lifetime of learned P2P endpoints.
        anonymizer: Optional egress anonymization (`None` disables it, as
            the paper notes it may be optional in some deployments).

    Usage::

        model = P4CaptureModel()
        zoom_only = list(model.process(all_campus_packets))
    """

    def __init__(
        self,
        zoom_subnets: Iterable[str] = ZOOM_SERVER_SUBNETS,
        campus_subnets: Iterable[str] = CAMPUS_SUBNETS,
        *,
        register_size: int = 65536,
        stun_timeout: float = 120.0,
        anonymizer: Anonymizer | None = None,
        rate_bin_width: float = 60.0,
    ) -> None:
        self.zoom_matcher = ZoomSubnetMatcher(zoom_subnets)
        self.campus_matcher = ZoomSubnetMatcher(campus_subnets)
        self.p2p_sources = HashRegisterArray(register_size, timeout=stun_timeout)
        self.p2p_destinations = HashRegisterArray(register_size, timeout=stun_timeout)
        self.anonymizer = anonymizer
        self.counters = PipelineCounters()
        self.all_rate = TimeBinner(rate_bin_width)
        self.zoom_rate = TimeBinner(rate_bin_width)
        # Exact mirror of what was ever learned, keyed (ip, port) -> last
        # learn time.  The register arrays are lossy (hash-slot eviction,
        # timeout) so they cannot enumerate live endpoints; the dataplane
        # compiler reads this mirror and re-checks liveness against the
        # registers when snapshotting rules.
        self.learned_endpoints: dict[tuple[str, int], float] = {}

    def process_one(self, packet: CapturedPacket) -> CapturedPacket | None:
        """Run one packet through the pipeline; returns it if it passes."""
        parsed = parse_frame(packet.data, packet.timestamp)
        self.counters.processed += 1
        self.all_rate.add(packet.timestamp)
        verdict = self._match(parsed)
        if not verdict:
            self.counters.dropped += 1
            return None
        self.zoom_rate.add(packet.timestamp)
        if self.anonymizer is not None:
            return self.anonymizer.anonymize_packet(packet)
        return packet

    def process(self, packets: Iterable[CapturedPacket]) -> Iterator[CapturedPacket]:
        """Stream packets through the pipeline, yielding the passers."""
        for packet in packets:
            passed = self.process_one(packet)
            if passed is not None:
                yield passed

    # ------------------------------------------------------------- internals

    def _match(self, parsed: ParsedPacket) -> bool:
        src, dst = parsed.src, parsed.dst
        src_campus = src is not None and self.campus_matcher.contains(src)
        dst_campus = dst is not None and self.campus_matcher.contains(dst)
        if not src_campus and not dst_campus:
            self.counters.no_campus_endpoint += 1
            return False
        # Stage: Zoom IP match (stateless pass for server traffic).
        if self.zoom_matcher.contains(src) or self.zoom_matcher.contains(dst):
            self.counters.zoom_ip_matched += 1
            # Stage: STUN learn.
            if (
                parsed.is_udp
                and STUN_PORT in (parsed.src_port, parsed.dst_port)
                and is_stun(parsed.payload)
            ):
                self._learn(parsed, src_campus)
            return True
        # Stage: P2P lookup for non-server UDP traffic.
        if parsed.is_udp:
            now = parsed.timestamp
            if src_campus and self.p2p_sources.contains(
                endpoint_key(parsed.src_ip, parsed.src_port or 0), now
            ):
                self.counters.p2p_matched += 1
                return True
            if dst_campus and self.p2p_destinations.contains(
                endpoint_key(parsed.dst_ip, parsed.dst_port or 0), now
            ):
                self.counters.p2p_matched += 1
                return True
        return False

    def _learn(self, parsed: ParsedPacket, src_campus: bool) -> None:
        """Write the campus endpoint of a STUN exchange to the registers."""
        if src_campus:
            ip, port = parsed.src_ip, parsed.src_port
        else:
            ip, port = parsed.dst_ip, parsed.dst_port
        if ip is None or port is None:
            return
        key = endpoint_key(ip, port)
        self.p2p_sources.insert(key, parsed.timestamp)
        self.p2p_destinations.insert(key, parsed.timestamp)
        self.learned_endpoints[(ip, port)] = parsed.timestamp
        self.counters.stun_learned += 1

    def rate_series(self) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
        """(all traffic, Zoom traffic) packets/s series — Figure 17's data."""
        width = self.all_rate.width
        all_series = [(when, total / width) for when, total in self.all_rate.sums()]
        zoom_series = [(when, total / width) for when, total in self.zoom_rate.sums()]
        return all_series, zoom_series
