"""ONTAS-style keyed anonymization of captured packets (§6.1, §9).

The capture program anonymizes all outgoing packets with a one-way hash so
researchers never see real addresses; media payloads are additionally
removable.  The model preserves the properties the analysis depends on:

* deterministic — the same real address always maps to the same pseudo
  address within a run (flow and meeting structure survive);
* class-preserving — campus addresses map into a campus pseudo-prefix and
  external addresses into an external one, so subnet-based logic still
  works downstream;
* one-way — addresses are mapped through a keyed BLAKE2 hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.net.ethernet import EthernetHeader
from repro.net.ip import IPv4Header, ip_from_str
from repro.net.packet import CapturedPacket


@dataclass
class Anonymizer:
    """Keyed, class-preserving IPv4/MAC anonymizer.

    Args:
        key: Secret hash key; without it mappings cannot be reversed or
            reproduced.
        campus_prefixes: First octets treated as campus space; campus
            addresses are mapped into ``10.0.0.0/8``.
        zoom_prefixes: First octets of Zoom server space, mapped into
            ``170.0.0.0/8`` so subnet-based detection still works on the
            anonymized trace.
        strip_payload: Truncate UDP/TCP payload bytes (media removal).

    All remaining addresses map into ``240.0.0.0/8`` (reserved space, so
    pseudo and real external addresses can never collide).
    """

    key: bytes = b"change-me"
    campus_prefixes: tuple[int, ...] = (10,)
    zoom_prefixes: tuple[int, ...] = (170, 203)
    strip_payload: bool = False
    _ip_map: dict[str, str] = field(default_factory=dict)
    _mac_map: dict[bytes, bytes] = field(default_factory=dict)

    def anonymize_ip(self, ip: str) -> str:
        """Map one IPv4 address to its stable pseudo address."""
        cached = self._ip_map.get(ip)
        if cached is not None:
            return cached
        digest = hashlib.blake2s(ip_from_str(ip), key=self.key, digest_size=3).digest()
        first_octet = int(ip.split(".", 1)[0])
        if first_octet in self.campus_prefixes:
            prefix = 10
        elif first_octet in self.zoom_prefixes:
            prefix = 170
        else:
            prefix = 240
        pseudo = f"{prefix}.{digest[0]}.{digest[1]}.{max(digest[2], 1)}"
        self._ip_map[ip] = pseudo
        return pseudo

    def anonymize_mac(self, mac: bytes) -> bytes:
        cached = self._mac_map.get(mac)
        if cached is not None:
            return cached
        digest = hashlib.blake2s(mac, key=self.key, digest_size=5).digest()
        pseudo = bytes([0x02]) + digest  # locally administered bit set
        self._mac_map[mac] = pseudo
        return pseudo

    def anonymize_packet(self, packet: CapturedPacket) -> CapturedPacket:
        """Rewrite one captured frame; non-IPv4 frames pass unchanged.

        The IPv4 checksum is recomputed; transport checksums are zeroed
        (they no longer verify against rewritten addresses, matching what
        hardware anonymizers do).
        """
        data = packet.data
        try:
            ether, l2_len = EthernetHeader.parse(data)
        except ValueError:
            return packet
        ether = EthernetHeader(
            dst=self.anonymize_mac(ether.dst),
            src=self.anonymize_mac(ether.src),
            ethertype=ether.ethertype,
            vlan=ether.vlan,
            vlan_pcp=ether.vlan_pcp,
        )
        try:
            ip, ip_len = IPv4Header.parse(data[l2_len:])
        except ValueError:
            return CapturedPacket(packet.timestamp, ether.serialize() + data[l2_len:])
        body = bytearray(data[l2_len + ip_len : l2_len + ip.total_length])
        if len(body) >= 8:
            # Zero the transport checksum (UDP bytes 6-7, TCP bytes 16-17).
            if ip.protocol == 17:
                body[6:8] = b"\x00\x00"
            elif ip.protocol == 6 and len(body) >= 18:
                body[16:18] = b"\x00\x00"
        if self.strip_payload:
            body = body[: _transport_header_len(ip.protocol, bytes(body))]
        new_ip = IPv4Header(
            src=ip_from_str(self.anonymize_ip(ip.src_str)),
            dst=ip_from_str(self.anonymize_ip(ip.dst_str)),
            protocol=ip.protocol,
            total_length=IPv4Header.HEADER_LEN + len(body),
            ttl=ip.ttl,
            identification=ip.identification,
            dscp=ip.dscp,
            ecn=ip.ecn,
        )
        return CapturedPacket(
            packet.timestamp, ether.serialize() + new_ip.serialize() + bytes(body)
        )


def _transport_header_len(protocol: int, body: bytes) -> int:
    if protocol == 17:
        return min(8, len(body))
    if protocol == 6 and len(body) >= 13:
        return min((body[12] >> 4) * 4, len(body))
    return len(body)
