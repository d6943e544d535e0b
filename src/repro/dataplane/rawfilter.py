"""Tier-0.5 of the software dataplane: raw-bytes filtering, pre-decode.

:class:`~repro.net.batch.BatchPrefilter` is *post-decode*: it needs the
seven :class:`~repro.net.batch.HeaderColumns` arrays built for **every**
frame before it can drop one.  On a border trace that is ~95% background,
most of that column-building is work done only to be thrown away.
:class:`RawFrameFilter` makes the same decision straight off the frame
bytes with early exits — a background TCP frame costs one ethertype read,
one protocol byte, and a couple of masked compares, and never touches an
``array`` append.

It is not a reimplementation of the rules: it *wraps* a
:class:`BatchPrefilter` and reads/writes that object's compiled networks
and endpoint set, so the three tiers (cBPF, raw, columnar) stay one rule
state with one STUN fold-in path (``prefilter.sync_stun`` /
``note_endpoint``).  Decision equivalence with ``BatchPrefilter.apply``
is exact by construction — the branches below are the fused form of
``decode_columns`` + ``apply`` — and is property-tested anyway.

Two entry points:

* :meth:`RawFrameFilter.match` — one frame, used by
  :class:`~repro.dataplane.live.LiveInterfaceSource` on each received
  frame *before* it enters a :class:`FrameBatch` (drops happen before any
  batch materialization).
* :meth:`RawFrameFilter.filter_batch` — an already-built batch, compacted
  to a survivor batch **sharing the same buffer** (subset offset/caplen/
  timestamp columns, zero copying) — the batch-pipeline integration point
  and the benchmark subject.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass

from repro.net.batch import BatchPrefilter, FrameBatch, has_stun_cookie
from repro.zoom.constants import STUN_SERVER_PORT

__all__ = ["RawFrameFilter", "RawFilterStats"]

_ETHERTYPE_VLAN = 0x8100
_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_PROTO_TCP = 6
_PROTO_UDP = 17

_UNPACK_ADDRS = struct.Struct("!II").unpack_from
_UNPACK_PORTS = struct.Struct("!HH").unpack_from

#: ``match`` verdicts.
_DROP = 0
_PASS = 1
_DROP_PARSE_FAILURE = 2


@dataclass(slots=True)
class RawFilterStats:
    """Outcome of one :meth:`RawFrameFilter.filter_batch` pass."""

    passed: int = 0
    dropped: int = 0
    dropped_bytes: int = 0
    parse_failures: int = 0


class RawFrameFilter:
    """Pre-decode filter sharing one :class:`BatchPrefilter`'s rule state."""

    __slots__ = ("prefilter",)

    def __init__(self, prefilter: BatchPrefilter) -> None:
        self.prefilter = prefilter

    def sync_stun(self, tracker) -> None:
        """Fold a tracker's learned endpoints in (delegates to the prefilter)."""
        self.prefilter.sync_stun(tracker)

    def match(self, buf, offset: int = 0, caplen: int | None = None) -> bool:
        """Would the prefilter pass the frame at ``buf[offset:offset+caplen]``?

        Side effects match the prefilter's: STUN magic-cookie frames note
        both endpoints into the shared pass-set before the decision.
        """
        if caplen is None:
            caplen = len(buf) - offset
        return self._verdict(buf, offset, caplen) == _PASS

    def _verdict(self, buf, o: int, caplen: int) -> int:
        # Fused decode_columns + BatchPrefilter.apply for one frame.  Any
        # behavioural edit here must land in net/batch.py too — the
        # equivalence property in tests/test_dataplane_properties.py is
        # the tripwire.
        if caplen < 14:
            return _DROP_PARSE_FAILURE
        et = (buf[o + 12] << 8) | buf[o + 13]
        l3 = o + 14
        if et == _ETHERTYPE_VLAN:
            if caplen < 18:
                return _DROP_PARSE_FAILURE
            et = (buf[o + 16] << 8) | buf[o + 17]
            l3 = o + 18
        if et != _ETHERTYPE_IPV4:
            if et == _ETHERTYPE_IPV6:
                return _PASS
            return _DROP
        end = o + caplen
        s = d = 0
        sp = -1
        dp = 0
        proto = -1
        l4 = -1
        if end >= l3 + 20:
            proto = buf[l3 + 9]
            s, d = _UNPACK_ADDRS(buf, l3 + 12)
            ihl = (buf[l3] & 0x0F) << 2
            t4 = l3 + ihl
            if ihl >= 20 and (proto == _PROTO_UDP or proto == _PROTO_TCP) and end >= t4 + 4:
                sp, dp = _UNPACK_PORTS(buf, t4)
                l4 = t4 - o
        prefilter = self.prefilter
        zoom_hit = False
        for net, mask in prefilter.networks_v4:
            if (s & mask) == net or (d & mask) == net:
                zoom_hit = True
                break
        if proto == _PROTO_UDP and sp >= 0:
            sniff = prefilter.sniff_all_stun or (
                zoom_hit and (sp == STUN_SERVER_PORT or dp == STUN_SERVER_PORT)
            )
            if sniff and has_stun_cookie(buf, o + l4, caplen - l4):
                prefilter.note_endpoint(s, sp)
                prefilter.note_endpoint(d, dp)
            endpoints = prefilter.endpoint_keys_view
            if zoom_hit or ((s << 16) | sp) in endpoints or ((d << 16) | dp) in endpoints:
                return _PASS
            return _DROP
        return _PASS if zoom_hit else _DROP

    def filter_batch(self, batch: FrameBatch) -> tuple[FrameBatch, RawFilterStats]:
        """Compact ``batch`` to its survivors, sharing the original buffer.

        Hint frames (sharder replicas carried for STUN learning) always
        survive — they must reach ``hint_stun`` downstream.
        """
        stats = RawFilterStats()
        buf = batch.buffer
        offsets = batch.offsets
        caplens = batch.caplens
        timestamps = batch.timestamps
        hints = batch.hints
        verdict = self._verdict
        keep_offsets = array("Q")
        keep_caplens = array("I")
        keep_timestamps = array("d")
        keep_hints = array("b") if hints is not None else None
        total = 0
        for i in range(len(caplens)):
            caplen = caplens[i]
            if hints is not None and hints[i]:
                kept = True  # hint frames bypass the filter
            else:
                v = verdict(buf, offsets[i], caplen)
                kept = v == _PASS
                if not kept:
                    stats.dropped += 1
                    stats.dropped_bytes += caplen
                    if v == _DROP_PARSE_FAILURE:
                        stats.parse_failures += 1
            if kept:
                keep_offsets.append(offsets[i])
                keep_caplens.append(caplen)
                keep_timestamps.append(timestamps[i])
                total += caplen
                if keep_hints is not None:
                    keep_hints.append(hints[i])
        stats.passed = len(keep_caplens)
        if stats.dropped == 0:
            return batch, stats
        survivors = FrameBatch(
            buffer=buf,  # shared — subset columns, no byte copying
            offsets=keep_offsets,
            caplens=keep_caplens,
            timestamps=keep_timestamps,
            total_caplen=total,
            hints=keep_hints if keep_hints is not None and any(keep_hints) else None,
        )
        return survivors, stats
