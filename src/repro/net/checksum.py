"""The internet checksum (RFC 1071) used by IPv4, UDP, and TCP."""

from __future__ import annotations

import struct


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement internet checksum of ``data``.

    Odd-length input is zero-padded on the right, per RFC 1071.  The return
    value is already complemented, i.e. it is the value to place in the
    checksum field of a header whose checksum field was zero while summing.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    # Fold carries back into the low 16 bits.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def pseudo_header_v4(src: bytes, dst: bytes, protocol: int, length: int) -> bytes:
    """Build the IPv4 pseudo-header used in UDP/TCP checksums.

    ``src`` and ``dst`` are 4-byte packed addresses; ``length`` is the length
    of the transport header plus payload.
    """
    return src + dst + bytes([0, protocol]) + length.to_bytes(2, "big")


def pseudo_header_v6(src: bytes, dst: bytes, protocol: int, length: int) -> bytes:
    """Build the IPv6 pseudo-header used in UDP/TCP checksums."""
    return src + dst + length.to_bytes(4, "big") + bytes([0, 0, 0, protocol])
