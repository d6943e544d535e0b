"""Batch-vectorized frame ingestion: contiguous buffers, columnar headers.

Parsing frame by frame turns *every* captured frame into a
:class:`~repro.net.packet.CapturedPacket` and then a fully dissected
:class:`~repro.net.packet.ParsedPacket` before the detector gets a vote —
two dataclass allocations and five header parses per frame, even for the
overwhelmingly non-Zoom background traffic a border tap carries (§6.1 of
the paper puts a Tofino prefilter in front of the software exactly because
of this).  This module is the software analogue of that prefilter, and
:class:`FrameBatch` is the one form in which frames reach the analyzer:

* :class:`FrameBatch` — one contiguous buffer holding many frames, with
  parallel ``array`` columns (offsets, caplens, timestamps).  Readers fill
  it with zero per-frame object allocation; it pickles cheaply, which is
  what makes process-backend sharding pay for itself.
* :func:`decode_columns` — slices ethertype / IP proto / src / dst / ports
  for the whole batch into parallel arrays using precompiled
  :class:`struct.Struct` unpackers over a ``memoryview``.  No dataclasses,
  no exceptions on malformed frames — sentinel values instead.
* :class:`BatchPrefilter` — compiled from the same match-action rules the
  capture model uses (Zoom server ranges + STUN-learned endpoints); drops
  frames that are *provably* NOT_ZOOM before any ``ParsedPacket`` exists.
  Surviving indices are materialized (:meth:`FrameBatch.materialize`) by
  :func:`~repro.net.packet.parse_frame`, the one packet builder, so every
  downstream stage, golden snapshot, and metric is exactly what feeding
  every frame through them would give.

Correctness contract of the prefilter (see DESIGN.md §4.3): a frame may be
dropped only if feeding it through the per-packet stages would (a) classify
as NOT_ZOOM and (b) leave detector state untouched.  The prefilter
guarantees (b) by learning STUN endpoints *more* liberally than the
detector — its endpoint pass-set is a superset of every endpoint the
detector has ever learned, and it never expires entries — so a dropped
frame can never be one whose scalar classification would have consulted
(and lazily refreshed or expired) a STUN binding.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.net.ip import IPV6_FLAG, PrefixTable
from repro.net.packet import ParsedPacket, parse_frame
from repro.zoom.constants import STUN_SERVER_PORT

__all__ = [
    "FrameBatch",
    "FrameBatchBuilder",
    "HeaderColumns",
    "decode_columns",
    "BatchPrefilter",
    "PrefilterVerdict",
    "has_stun_cookie",
    "DEFAULT_FRAMES_PER_BATCH",
]

#: The one default frame count per batch (``AnalyzerConfig.batch_size``,
#: ``--batch-size``, every source).  Large enough to amortize per-batch
#: bookkeeping, small enough that a batch of MTU-sized frames stays well
#: inside L2 cache.
DEFAULT_FRAMES_PER_BATCH = 4096

_ETHERTYPE_VLAN = 0x8100
_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_PROTO_TCP = 6
_PROTO_UDP = 17

_STUN_COOKIE = b"\x21\x12\xa4\x42"

_UNPACK_ADDRS = struct.Struct("!II").unpack_from  # IPv4 src, dst
_UNPACK_PORTS = struct.Struct("!HH").unpack_from  # transport src, dst


@dataclass(slots=True)
class FrameBatch:
    """Many captured frames in one contiguous buffer + parallel columns.

    ``offsets[i]``/``caplens[i]`` delimit frame *i* inside ``buffer``;
    ``timestamps[i]`` is its capture timestamp in seconds.  ``hints[i]``
    (optional, used by the sharder) marks frames replicated onto a shard
    only so its detector learns the STUN binding — a hint frame must be
    fed to :meth:`~repro.core.pipeline.ZoomAnalyzer.hint_stun`, never
    counted as traffic.
    """

    buffer: bytes | bytearray
    offsets: array
    caplens: array
    timestamps: array
    total_caplen: int
    hints: array | None = None

    def __len__(self) -> int:
        return len(self.caplens)

    def frame(self, index: int) -> bytes:
        """The raw bytes of frame ``index`` (a copy, safe to retain)."""
        start = self.offsets[index]
        return bytes(self.buffer[start : start + self.caplens[index]])

    def materialize(self, index: int) -> ParsedPacket:
        """The :class:`ParsedPacket` of frame ``index``."""
        return parse_frame(self.frame(index), self.timestamps[index])

    def iter_frames(self) -> Iterator[tuple]:
        """Yield ``(frame_bytes, timestamp)`` pairs without copying."""
        view = memoryview(self.buffer)
        offsets = self.offsets
        caplens = self.caplens
        timestamps = self.timestamps
        for i in range(len(caplens)):
            start = offsets[i]
            yield view[start : start + caplens[i]], timestamps[i]

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the final frame (0.0 for an empty batch)."""
        return self.timestamps[-1] if len(self.timestamps) else 0.0


class FrameBatchBuilder:
    """Accumulates frames into a :class:`FrameBatch`.

    Used where frames arrive one by one (pcapng blocks, in-memory and
    simulated sources, the live socket, the sharding repartitioner).  The
    pcap reader bypasses it entirely — its batches alias the read chunk
    with zero copying.
    """

    __slots__ = ("_buffer", "_offsets", "_caplens", "_timestamps", "_hints", "_any_hint")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._offsets = array("Q")
        self._caplens = array("I")
        self._timestamps = array("d")
        self._hints = array("b")
        self._any_hint = False

    def __len__(self) -> int:
        return len(self._caplens)

    def append(self, data, timestamp: float, *, hint: bool = False) -> None:
        self._offsets.append(len(self._buffer))
        self._caplens.append(len(data))
        self._timestamps.append(timestamp)
        self._buffer += data
        self._hints.append(1 if hint else 0)
        if hint:
            self._any_hint = True

    def build(self) -> FrameBatch:
        """Finish the current batch and reset the builder for the next."""
        batch = FrameBatch(
            buffer=bytes(self._buffer),
            offsets=self._offsets,
            caplens=self._caplens,
            timestamps=self._timestamps,
            total_caplen=len(self._buffer),
            hints=self._hints if self._any_hint else None,
        )
        self.__init__()
        return batch


@dataclass(slots=True)
class HeaderColumns:
    """Columnar header fields for one batch; sentinel values, no exceptions.

    * ``ethertype[i]`` — post-VLAN ethertype, or ``-1`` when the frame is
      too short to carry an Ethernet header (the scalar parser's
      ``ethernet is None`` case).
    * ``proto[i]`` — IP protocol number, or ``-1`` when no IP header was
      readable.
    * ``src[i]``/``dst[i]`` — IPv4 addresses as host-order u32 (0 when
      unreadable or not IPv4).
    * ``src_port[i]``/``dst_port[i]`` — transport ports, or ``-1`` when the
      transport header is absent/truncated.
    * ``l4_offset[i]`` — byte offset of the transport payload *within the
      frame* (UDP: start of UDP header + 8 is the payload; here it is the
      offset of the transport header itself), or ``-1``.
    """

    ethertype: array
    proto: array
    src: array
    dst: array
    src_port: array
    dst_port: array
    l4_offset: array


def decode_columns(batch: FrameBatch) -> HeaderColumns:
    """Slice link/IP/transport header fields for every frame in the batch.

    Tolerant by construction: any frame too short for a given layer gets
    sentinels for that layer and everything below it, mirroring exactly
    which layers the scalar parser would have produced.  IPv4 option
    lengths are honoured (``ihl``); checksums are *not* verified here —
    the prefilter treats checksum-failing frames conservatively.
    """
    n = len(batch)
    ethertype = array("i")
    proto = array("i")
    src = array("I")
    dst = array("I")
    src_port = array("i")
    dst_port = array("i")
    l4_offset = array("i")

    put_ethertype = ethertype.append
    put_proto = proto.append
    put_src = src.append
    put_dst = dst.append
    put_src_port = src_port.append
    put_dst_port = dst_port.append
    put_l4 = l4_offset.append

    buf = batch.buffer
    offsets = batch.offsets
    caplens = batch.caplens
    unpack_addrs = _UNPACK_ADDRS
    unpack_ports = _UNPACK_PORTS

    for i in range(n):
        o = offsets[i]
        caplen = caplens[i]
        et = -1
        p = -1
        s = 0
        d = 0
        sp = -1
        dp = -1
        l4 = -1
        if caplen >= 14:
            et = (buf[o + 12] << 8) | buf[o + 13]
            l3 = o + 14
            if et == _ETHERTYPE_VLAN:
                if caplen >= 18:
                    et = (buf[o + 16] << 8) | buf[o + 17]
                    l3 = o + 18
                else:
                    et = -1
            end = o + caplen
            if et == _ETHERTYPE_IPV4 and end >= l3 + 20:
                p = buf[l3 + 9]
                s, d = unpack_addrs(buf, l3 + 12)
                ihl = (buf[l3] & 0x0F) << 2
                t4 = l3 + ihl
                if ihl >= 20 and (p == _PROTO_UDP or p == _PROTO_TCP) and end >= t4 + 4:
                    sp, dp = unpack_ports(buf, t4)
                    l4 = t4 - o
            elif et == _ETHERTYPE_IPV6 and end >= l3 + 40:
                p = buf[l3 + 6]
                t4 = l3 + 40
                if (p == _PROTO_UDP or p == _PROTO_TCP) and end >= t4 + 4:
                    sp, dp = unpack_ports(buf, t4)
                    l4 = t4 - o
        put_ethertype(et)
        put_proto(p)
        put_src(s)
        put_dst(d)
        put_src_port(sp)
        put_dst_port(dp)
        put_l4(l4)

    return HeaderColumns(
        ethertype=ethertype,
        proto=proto,
        src=src,
        dst=dst,
        src_port=src_port,
        dst_port=dst_port,
        l4_offset=l4_offset,
    )


def has_stun_cookie(buf, l4: int, room: int) -> bool:
    """Whether the UDP datagram whose header starts at ``buf[l4]``, with
    ``room`` captured bytes from there, carries the RFC 5389 magic cookie."""
    return room >= 16 and buf[l4 + 12 : l4 + 16] == _STUN_COOKIE


@dataclass(slots=True)
class PrefilterVerdict:
    """Outcome of one :meth:`BatchPrefilter.apply` pass over a batch."""

    survivors: list[int]
    hint_indexes: list[int]
    dropped: int
    dropped_bytes: int
    parse_failures: int

    @property
    def passed(self) -> int:
        return len(self.survivors)


class BatchPrefilter:
    """Match-action prefilter compiled from the capture model's rules.

    Rules, in order (mirrors the Tofino program of §6.1 and the scalar
    detector's decision tree):

    1. **Pass** every frame touching a Zoom server range (either
       direction) — these are the detector's business, whatever their
       transport looks like.
    2. **Pass** every UDP frame whose endpoint appears in the STUN-learned
       endpoint set (superset of the detector's live bindings — see the
       module docstring).
    3. **Pass** everything ambiguous: IPv6, frames the columnar decoder
       could not fully read *iff* they touch rule 1/2 state.
    4. **Drop** the rest: they are provably NOT_ZOOM under the scalar
       decision tree and touch no detector state.

    The endpoint set grows in two ways: the prefilter itself sniffs the
    STUN magic cookie on Zoom-range UDP/:data:`STUN_SERVER_PORT` frames
    (both endpoints, more liberal than the detector's campus-gated learn),
    and :meth:`sync_stun` folds in anything the detector learned through
    a shard's STUN hint.

    With the protocol registry (:meth:`from_plugins`) the compiled rules
    are the **union** of every enabled plugin's match-action hints: all
    plugins' subnets pass, all plugins' tracker endpoints pass, and a
    plugin that learns from arbitrary-port STUN (``sniff_all_stun`` — the
    generic RTP/WebRTC plugin) widens the cookie sniff to *every* IPv4/UDP
    frame.  Because both endpoints of a cookie frame are noted *before*
    the pass decision, cookie frames themselves always pass in that mode,
    so the drop guarantee generalizes: every endpoint any plugin can learn
    arrives on a cookie frame, hence the pass-set is a superset of every
    tracker's keys, hence a dropped frame is unclaimed by every plugin and
    its classification touches no plugin state (all lookups miss).
    """

    __slots__ = ("networks_v4", "sniff_all_stun", "_endpoints", "_synced_learns")

    def __init__(
        self, networks: Iterable[str] = (), *, sniff_all_stun: bool = False
    ) -> None:
        #: Compiled IPv4 rules — a :class:`PrefixTable`'s ``(net, mask)`` pairs.
        self.networks_v4: Sequence[tuple[int, int]] = PrefixTable(networks).v4
        #: Whether the STUN cookie sniff applies beyond Zoom-range frames.
        self.sniff_all_stun = sniff_all_stun
        self._endpoints: set[int] = set()
        self._synced_learns: dict[int, int] = {}

    @classmethod
    def from_plugins(cls, plugins: Iterable) -> "BatchPrefilter":
        """The union of the enabled plugins' match-action rules — their
        already-compiled prefix pairs, not a recompile."""
        plugins = tuple(plugins)
        prefilter = cls(sniff_all_stun=any(p.sniff_all_stun for p in plugins))
        prefilter.networks_v4 = tuple(
            pair for plugin in plugins for pair in plugin.prefilter_networks
        )
        return prefilter

    # ------------------------------------------------------ compiled state
    #
    # The software dataplane (repro.dataplane) compiles its kernel program
    # from this object's rule state, so the state is public read-only API,
    # not an implementation detail.

    @property
    def endpoint_keys(self) -> frozenset[int]:
        """Snapshot of the endpoint pass-set (``(ip_u32 << 16) | port``)."""
        return frozenset(self._endpoints)

    @property
    def endpoint_count(self) -> int:
        """Size of the pass-set — it never shrinks, so growth ⇔ change."""
        return len(self._endpoints)

    # ----------------------------------------------------------- endpoints

    def note_endpoint(self, ip_u32: int, port: int) -> None:
        self._endpoints.add((ip_u32 << 16) | port)

    def sync_stun(self, tracker) -> None:
        """Fold one tracker's learned bindings into the pass-set.

        Cheap when nothing changed: :class:`~repro.core.detector.StunTracker`
        counts every ``learn()`` monotonically, and the pass-set never
        forgets, so binding *expiry* needs no action here.  Multiple
        trackers (one per plugin) are synced independently.
        """
        key = id(tracker)
        learned = tracker.bindings_learned
        if learned == self._synced_learns.get(key):
            return
        self._synced_learns[key] = learned
        # Tracker keys are this set's own ``(addr << 16) | port`` integers;
        # the rules are IPv4, so IPv6 endpoints stay out of it.
        limit = IPV6_FLAG << 16
        self._endpoints.update(e for e in tracker.endpoints() if e < limit)

    # --------------------------------------------------------------- apply

    def apply(self, batch: FrameBatch, columns: HeaderColumns) -> PrefilterVerdict:
        """Split a batch into survivors / hint frames / dropped frames."""
        survivors: list[int] = []
        hint_indexes: list[int] = []
        dropped = 0
        dropped_bytes = 0
        parse_failures = 0

        nets = self.networks_v4
        endpoints = self._endpoints
        note = self.note_endpoint
        buf = batch.buffer
        offsets = batch.offsets
        caplens = batch.caplens
        hints = batch.hints
        ethertype = columns.ethertype
        proto = columns.proto
        src = columns.src
        dst = columns.dst
        src_port = columns.src_port
        dst_port = columns.dst_port
        l4_offset = columns.l4_offset
        stun_port = STUN_SERVER_PORT
        sniff_all = self.sniff_all_stun

        for i in range(len(caplens)):
            et = ethertype[i]
            is_hint = hints is not None and hints[i]
            if et == _ETHERTYPE_IPV4:
                s = src[i]
                d = dst[i]
                zoom_hit = False
                for net, mask in nets:
                    if (s & mask) == net or (d & mask) == net:
                        zoom_hit = True
                        break
                if proto[i] == _PROTO_UDP and src_port[i] >= 0:
                    sp = src_port[i]
                    dp = dst_port[i]
                    if sniff_all or (zoom_hit and (sp == stun_port or dp == stun_port)):
                        # Liberal STUN sniff: learn both endpoints of any
                        # Zoom-range frame carrying the magic cookie, so the
                        # pass-set strictly contains whatever the detector's
                        # campus-gated learn will accept downstream.  In
                        # sniff-all mode (arbitrary-port ICE) noting both
                        # endpoints here also makes the cookie frame itself
                        # pass the endpoint check below.
                        if has_stun_cookie(
                            buf, offsets[i] + l4_offset[i], caplens[i] - l4_offset[i]
                        ):
                            note(s, sp)
                            note(d, dp)
                    if is_hint:
                        hint_indexes.append(i)
                        continue
                    if (
                        zoom_hit
                        or ((s << 16) | sp) in endpoints
                        or ((d << 16) | dp) in endpoints
                    ):
                        survivors.append(i)
                        continue
                    dropped += 1
                    dropped_bytes += caplens[i]
                    continue
                # IPv4 but not parseable UDP (TCP, other protocols, or a
                # truncated transport header): the scalar tree consults no
                # STUN state for these — Zoom-range frames pass, the rest
                # are provably NOT_ZOOM.
                if is_hint:
                    hint_indexes.append(i)
                    continue
                if zoom_hit:
                    survivors.append(i)
                    continue
                dropped += 1
                dropped_bytes += caplens[i]
                continue
            if is_hint:
                hint_indexes.append(i)
                continue
            if et == _ETHERTYPE_IPV6:
                # No IPv6 rules are compiled today (the Zoom/campus ranges
                # are IPv4); pass everything rather than guess.
                survivors.append(i)
                continue
            # No Ethernet header at all (scalar: ethernet is None ⇒ counted
            # as a parse failure) or a non-IP ethertype (ARP, LLDP, …):
            # provably NOT_ZOOM either way.
            if et < 0:
                parse_failures += 1
            dropped += 1
            dropped_bytes += caplens[i]

        return PrefilterVerdict(
            survivors=survivors,
            hint_indexes=hint_indexes,
            dropped=dropped,
            dropped_bytes=dropped_bytes,
            parse_failures=parse_failures,
        )
