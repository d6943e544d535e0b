"""Flow-sharded parallel analysis: N analyzers, one merged result.

A border tap serving a large campus produces far more packets than one
Python analyzer core can chew through.  :class:`ShardedAnalyzer` partitions
the capture by a *bidirectional flow hash* — both directions of a 5-tuple,
and therefore every packet of every stream, land on the same shard — runs
one full :class:`~repro.core.pipeline.ZoomAnalyzer` per shard, and merges
the shard results with :meth:`~repro.core.pipeline.AnalysisResult.merge`.

Two cross-flow effects need care:

* **P2P detection** (§4.1) learns endpoints from a STUN exchange on a
  *different* flow than the P2P media that follows.  STUN packets are
  therefore replicated to every shard: counted only on their home shard,
  side-effect-only (:meth:`ZoomAnalyzer.hint_stun`) everywhere else.
* **Method-1 latency** matches the egress copy of a stream (sender → SFU)
  against its ingress copies (SFU → each receiver) — by construction two
  *different* clients' flows, so flow-affine sharding splits essentially
  every matchable pair.  Expect few or no §5.3 RTP-latency samples from a
  sharded run; use a single pass (or the TCP-RTT proxy, which is per-flow
  and survives sharding) when latency matters.  Stream, meeting, and
  Table-2/3 accounting are unaffected.

Backends: ``"serial"`` (debugging/baseline), ``"thread"`` (shared-memory;
bounded by the GIL for pure-Python decode), ``"process"``
(``multiprocessing``; true parallelism).  Work crosses the process
boundary as :class:`~repro.net.batch.FrameBatch` buffers — one contiguous
``bytes`` plus three flat arrays per batch — so pickling cost is a handful
of buffer copies per batch instead of one ``CapturedPacket`` object per
packet, and each shard feeds them to :meth:`ZoomAnalyzer.feed_batch`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.config import AnalyzerConfig
from repro.core.pipeline import AnalysisResult, ZoomAnalyzer
from repro.net.batch import FrameBatch, FrameBatchBuilder
from repro.rtp.stun import STUN_PORT
from repro.telemetry.registry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.source import SourceLike

_ETHERTYPE_VLAN = 0x8100
_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_STUN_MAGIC = b"\x21\x12\xa4\x42"


def flow_shard_info(data) -> tuple[int, bool] | None:
    """(bidirectional flow hash, looks-like-Zoom-STUN) for one raw frame.

    Reads the handful of header bytes it needs directly — this runs once per
    packet in the partitioning loop, before any shard does a full decode.
    ``data`` may be ``bytes`` or a ``memoryview`` into a batch buffer (the
    hash is over header *values*, so both spell the same shard).  Returns
    ``None`` for frames without an IPv4/IPv6 + TCP/UDP flow key (ARP,
    truncated frames, other protocols); those carry no per-flow state and
    may go to any shard.
    """
    if len(data) < 34:
        return None
    ethertype = (data[12] << 8) | data[13]
    offset = 14
    if ethertype == _ETHERTYPE_VLAN:
        if len(data) < 38:
            return None
        ethertype = (data[16] << 8) | data[17]
        offset = 18
    if ethertype == _ETHERTYPE_IPV4:
        ihl = (data[offset] & 0x0F) * 4
        if ihl < 20 or len(data) < offset + ihl + 4:
            return None
        proto = data[offset + 9]
        src = bytes(data[offset + 12 : offset + 16])
        dst = bytes(data[offset + 16 : offset + 20])
        l4 = offset + ihl
    elif ethertype == _ETHERTYPE_IPV6:
        if len(data) < offset + 44:
            return None
        proto = data[offset + 6]
        src = bytes(data[offset + 8 : offset + 24])
        dst = bytes(data[offset + 24 : offset + 40])
        l4 = offset + 40
    else:
        return None
    if proto not in (6, 17) or len(data) < l4 + 4:
        return None
    sport = (data[l4] << 8) | data[l4 + 1]
    dport = (data[l4 + 2] << 8) | data[l4 + 3]
    endpoint_a = src + bytes((sport >> 8, sport & 0xFF))
    endpoint_b = dst + bytes((dport >> 8, dport & 0xFF))
    if endpoint_b < endpoint_a:
        endpoint_a, endpoint_b = endpoint_b, endpoint_a
    flow_hash = zlib.crc32(endpoint_a + endpoint_b + bytes((proto,)))
    is_stun = (
        proto == 17
        and STUN_PORT in (sport, dport)
        and len(data) >= l4 + 8 + 8
        and data[l4 + 12 : l4 + 16] == _STUN_MAGIC
    )
    return flow_hash, is_stun


@dataclass
class PartitionStats:
    """Accounting from one :meth:`ShardedAnalyzer.partition_frames` call."""

    shard_packets: list[int] = field(default_factory=list)
    hints_replicated: int = 0
    unhashable_frames: int = 0


def _analyze_shard_batches(args: tuple) -> AnalysisResult:
    """Worker: run one shard's :class:`FrameBatch` list through a fresh
    analyzer.

    Hint frames (replicated STUN) travel inside the batches via the
    ``hints`` column; :meth:`ZoomAnalyzer.feed_batch` routes them to
    :meth:`~ZoomAnalyzer.hint_stun` in capture order without counting them.
    Module-level so the process backend can pickle it.
    """
    config, batches = args
    analyzer = ZoomAnalyzer(config)
    for batch in batches:
        analyzer.feed_batch(batch)
    return analyzer.result


class ShardedAnalyzer:
    """Partition a capture across N flow-affine analyzers and merge.

    Args:
        config: An :class:`~repro.core.config.AnalyzerConfig`; ``shards``
            and ``shard_backend`` select the partitioning, and every
            per-analyzer option (subnets, STUN timeout, record retention)
            is forwarded to each shard's :class:`ZoomAnalyzer`.  Per-shard
            telemetry registries are merged into the combined result, whose
            additive counters then equal a single-pass run; the driver adds
            its own ``sharded.*`` partition accounting (per-shard packet
            balance, STUN hint replication) on top.  A shared
            :class:`~repro.telemetry.Telemetry` *instance* in the config
            cannot be written from concurrent shards, so it degrades to its
            enabled flag; pass a factory for custom per-shard registries.

    Usage::

        result = ShardedAnalyzer(AnalyzerConfig(shards=4)).analyze(packets)
    """

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config if config is not None else AnalyzerConfig()
        self.shards = self.config.shards
        self.backend = self.config.shard_backend
        self.partition_stats = PartitionStats()

    def partition_frames(
        self, batches: Iterable[FrameBatch]
    ) -> list[list[FrameBatch]]:
        """Split a batch stream into per-shard :class:`FrameBatch` lists.

        Each frame lands on exactly one home shard (flow-affine, both
        directions together, capture order preserved); STUN frames are
        additionally replicated to every other shard as detector hints.
        Frames are copied into the shard's own contiguous buffer, so the
        output is what the process backend wants to pickle: one buffer +
        three flat arrays per batch, not one object per packet.  Shard
        batches follow the input's batch boundaries, so the source's
        ``batch_size`` bounds them too.  Partition accounting for the most
        recent call lands on :attr:`partition_stats`.
        """
        shards = self.shards
        builders = [FrameBatchBuilder() for _ in range(shards)]
        work: list[list[FrameBatch]] = [[] for _ in range(shards)]
        stats = PartitionStats(shard_packets=[0] * shards)
        crc32 = zlib.crc32
        for batch in batches:
            for data, timestamp in batch.iter_frames():
                info = flow_shard_info(data)
                if info is None:
                    home = crc32(data) % shards
                    stats.unhashable_frames += 1
                    is_stun = False
                else:
                    flow_hash, is_stun = info
                    home = flow_hash % shards
                builders[home].append(data, timestamp)
                stats.shard_packets[home] += 1
                if is_stun:
                    for index in range(shards):
                        if index != home:
                            builders[index].append(data, timestamp, hint=True)
                            stats.hints_replicated += 1
            for index, builder in enumerate(builders):
                if len(builder):
                    work[index].append(builder.build())
        self.partition_stats = stats
        return work

    def run(self, source: "SourceLike") -> AnalysisResult:
        """Partition ``source`` across the shards; return the merged result.

        ``source`` may be a :class:`~repro.net.source.PacketSource`, a
        capture-file path, or a plain packet iterable.  Its
        :class:`FrameBatch` buffers stream straight into the partitioner
        (no per-packet objects on the ingest side either).  The merged
        result's telemetry holds the per-shard registries summed (so
        additive counters match a single-pass run) plus the reader's ingest
        counters and the driver's own ``sharded.*`` partition accounting.
        """
        from repro.net.source import coerce_source

        # Shard registries can't be shared with the reader, so ingest-side
        # counters accumulate separately and fold into the merged result.
        ingest = Telemetry(enabled=self.config.telemetry_enabled)
        source = coerce_source(
            source,
            telemetry=ingest,
            tolerant=self.config.tolerant,
            batch_size=self.config.batch_size,
        )
        work = self.partition_frames(source.frame_batches())
        shard_config = self.config.shard_config()
        results = self._run_shards([(shard_config, batches) for batches in work])
        merged = AnalysisResult.merge_all(results)
        tel = merged.telemetry
        if tel.enabled:
            stats = self.partition_stats
            for index, count in enumerate(stats.shard_packets):
                tel.count(f"sharded.shard_packets.{index}", count)
            tel.count("sharded.hints_replicated", stats.hints_replicated)
            tel.count("sharded.unhashable_frames", stats.unhashable_frames)
            tel.record_max("sharded.shards", self.shards)
        tel.merge_from(ingest)
        return merged

    def analyze(self, packets: "SourceLike") -> AnalysisResult:
        """The in-memory spelling of :meth:`run`."""
        return self.run(packets)

    # ------------------------------------------------------------- internals

    def _run_shards(self, shard_args: Sequence[tuple]) -> list[AnalysisResult]:
        if self.backend == "serial" or self.shards == 1:
            return [_analyze_shard_batches(args) for args in shard_args]
        if self.backend == "thread":
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=self.shards) as pool:
                return list(pool.map(_analyze_shard_batches, shard_args))
        import multiprocessing

        with multiprocessing.Pool(processes=self.shards) as pool:
            return pool.map(_analyze_shard_batches, shard_args)
