"""Latency estimation, both methods of §5.3 (Figure 11).

**Method 1 — RTP sequence matching.**  Zoom's SFU forwards media packets
without rewriting RTP sequence numbers or timestamps, so when an on-campus
participant's stream is replicated back to another on-campus participant,
the monitor sees *two copies* of every packet: one leaving campus
(client→SFU) and one coming back (SFU→client).  The capture-time difference
between matching (SSRC, payload type, sequence, timestamp) pairs is the
round-trip time between the monitor and the SFU (plus SFU processing) —
tens to hundreds of samples per second per stream.

**Method 2 — TCP control connection as a proxy.**  Zoom clients keep a TCP
443 control connection to the server.  Matching data-segment sequence
numbers against returning acknowledgments yields the monitor↔server RTT;
matching the reverse direction yields the monitor↔client RTT.  Their
difference localizes congestion upstream or downstream of the monitor.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.streams import RTPPacketRecord
from repro.net.packet import ParsedPacket
from repro.net.tcp import TCPFlags


@dataclass(frozen=True, slots=True)
class LatencySample:
    """One latency observation.

    Attributes:
        time: Capture time of the returning copy / acknowledgment.
        rtt: Round-trip estimate in seconds.
        ssrc: Stream that produced the sample (0 for TCP samples).
    """

    time: float
    rtt: float
    ssrc: int = 0


class RTPLatencyMatcher:
    """Method 1: match egress and ingress copies of replicated RTP packets.

    Feed every media packet record (all streams, any order).  Records whose
    SFU direction is *to* the server register as egress; records *from* the
    server match against pending egress entries on
    (SSRC, payload type, sequence, RTP timestamp).  Matches further apart
    than ``max_rtt`` are discarded as sequence-number reuse.
    """

    def __init__(self, *, max_rtt: float = 2.0, max_pending: int = 200_000) -> None:
        self.max_rtt = max_rtt
        self.max_pending = max_pending
        self._egress: OrderedDict[tuple[int, int, int, int], float] = OrderedDict()
        self.samples: list[LatencySample] = []
        self.matched = 0
        self.unmatched_ingress = 0

    def observe(self, record: RTPPacketRecord) -> LatencySample | None:
        """Fold in one media packet record."""
        key = (record.ssrc, record.payload_type, record.sequence, record.rtp_timestamp)
        if record.to_server is True:
            # Keep the *first* copy only: a retransmitted egress packet must
            # not overwrite the original timestamp.
            if key not in self._egress:
                self._egress[key] = record.timestamp
                if len(self._egress) > self.max_pending:
                    self._egress.popitem(last=False)
            return None
        if record.to_server is False:
            egress_time = self._egress.get(key)
            if egress_time is None:
                self.unmatched_ingress += 1
                return None
            rtt = record.timestamp - egress_time
            if not 0.0 <= rtt <= self.max_rtt:
                self.unmatched_ingress += 1
                return None
            self.matched += 1
            sample = LatencySample(time=record.timestamp, rtt=rtt, ssrc=record.ssrc)
            self.samples.append(sample)
            return sample
        return None  # P2P packets carry no direction; Method 1 needs the SFU

    def samples_for(self, ssrc: int) -> list[LatencySample]:
        return [sample for sample in self.samples if sample.ssrc == ssrc]

    def merge_from(self, other: "RTPLatencyMatcher") -> None:
        """Fold another matcher's completed samples into this one.

        Used when merging shard-local results: pending (unmatched) egress
        entries are *not* transferred, because a shard-partitioned capture
        keeps each flow whole but may split the egress and ingress copies of
        one stream across shards — those pairs are unmatchable by design and
        carrying the pending table over would only invite false matches.
        """
        self.samples.extend(other.samples)
        self.samples.sort(key=lambda sample: sample.time)
        self.matched += other.matched
        self.unmatched_ingress += other.unmatched_ingress


class TCPRTTEstimator:
    """Method 2: RTT from one TCP control connection's seq/ack dynamics.

    Args:
        client_ip: The campus-side endpoint (wire-form address).
        server_ip: The Zoom server endpoint (wire-form address).

    Outgoing (client→server) data segments are timestamped by the sequence
    number they run up to; a returning segment acknowledging that point
    yields a **server-side** sample (monitor→server→monitor).  The mirror
    direction yields **client-side** samples.  Retransmitted segments are
    dropped (Karn's algorithm) by only keeping the first instance of each
    sequence point.
    """

    def __init__(
        self, client_ip: int, server_ip: int, *, max_rtt: float = 3.0, max_pending: int = 4096
    ) -> None:
        self.client_ip = client_ip
        self.server_ip = server_ip
        self.max_rtt = max_rtt
        self.max_pending = max_pending
        self._pending_to_server: OrderedDict[int, float] = OrderedDict()
        self._pending_to_client: OrderedDict[int, float] = OrderedDict()
        self.server_samples: list[LatencySample] = []
        self.client_samples: list[LatencySample] = []

    def observe(self, packet: ParsedPacket) -> LatencySample | None:
        """Fold in one TCP packet of this connection."""
        outbound = packet.src == self.client_ip and packet.dst == self.server_ip
        inbound = packet.src == self.server_ip and packet.dst == self.client_ip
        if not outbound and not inbound:
            return None
        tcp = packet.tcp
        if tcp is None:
            return None
        payload_len = len(packet.payload)
        sample: LatencySample | None = None
        if outbound:
            if tcp.flags & TCPFlags.ACK:
                sample = self._match(self._pending_to_client, tcp.ack, packet.timestamp, self.client_samples)
            if payload_len:
                self._register(self._pending_to_server, (tcp.seq + payload_len) & 0xFFFFFFFF, packet.timestamp)
        else:
            if tcp.flags & TCPFlags.ACK:
                sample = self._match(self._pending_to_server, tcp.ack, packet.timestamp, self.server_samples)
            if payload_len:
                self._register(self._pending_to_client, (tcp.seq + payload_len) & 0xFFFFFFFF, packet.timestamp)
        return sample

    def _register(self, pending: OrderedDict[int, float], seq_end: int, when: float) -> None:
        if seq_end not in pending:  # first transmission only (Karn)
            pending[seq_end] = when
            if len(pending) > self.max_pending:
                pending.popitem(last=False)

    def _match(
        self,
        pending: OrderedDict[int, float],
        ack: int,
        when: float,
        out: list[LatencySample],
    ) -> LatencySample | None:
        sent = pending.pop(ack, None)
        if sent is None:
            return None
        rtt = when - sent
        if not 0.0 <= rtt <= self.max_rtt:
            return None
        sample = LatencySample(time=when, rtt=rtt)
        out.append(sample)
        return sample

    def asymmetry(self) -> float | None:
        """Mean server-side RTT minus mean client-side RTT (s).

        Positive values put the bulk of the latency — and hence likely
        congestion — outside the campus; negative values inside (§5.3).
        """
        if not self.server_samples or not self.client_samples:
            return None
        server = sum(s.rtt for s in self.server_samples) / len(self.server_samples)
        client = sum(s.rtt for s in self.client_samples) / len(self.client_samples)
        return server - client

    def merge_from(self, other: "TCPRTTEstimator") -> None:
        """Fold another estimator's samples for the same (client, server)
        pair into this one (sharded-result merge; pending tables dropped)."""
        self.server_samples.extend(other.server_samples)
        self.server_samples.sort(key=lambda sample: sample.time)
        self.client_samples.extend(other.client_samples)
        self.client_samples.sort(key=lambda sample: sample.time)
