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

import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.config import AnalyzerConfig
from repro.core.pipeline import AnalysisResult, ZoomAnalyzer
from repro.net.batch import FrameBatch, FrameBatchBuilder, decode_columns, has_stun_cookie
from repro.rtp.stun import STUN_PORT
from repro.telemetry.registry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.source import SourceLike

_PROTO_UDP = 17

#: ``(ip, port)`` of the smaller endpoint, of the larger, then the protocol:
#: the bidirectional flow key, packed for hashing.
_PACK_FLOW = struct.Struct("!IHIHB").pack


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
        The flow key — ``(min endpoint, max endpoint, proto)`` — is read
        off the batch's :func:`~repro.net.batch.decode_columns`, the one
        header walk (IPv6 addresses are not columns, so those flows hash
        on ports and protocol alone — still both directions together).
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
            columns = decode_columns(batch)
            src, dst, protos = columns.src, columns.dst, columns.proto
            src_port, dst_port, l4_offset = columns.src_port, columns.dst_port, columns.l4_offset
            for i, (data, timestamp) in enumerate(batch.iter_frames()):
                is_stun = False
                if src_port[i] < 0:
                    # No IP + TCP/UDP flow key (ARP, truncated frames, other
                    # protocols): no per-flow state, any shard will do.
                    home = crc32(data) % shards
                    stats.unhashable_frames += 1
                else:
                    a = (src[i], src_port[i])
                    b = (dst[i], dst_port[i])
                    if b < a:
                        a, b = b, a
                    proto = protos[i]
                    home = crc32(_PACK_FLOW(*a, *b, proto)) % shards
                    is_stun = (
                        proto == _PROTO_UDP
                        and STUN_PORT in (a[1], b[1])
                        and has_stun_cookie(data, l4_offset[i], len(data) - l4_offset[i])
                    )
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
