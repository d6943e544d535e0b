"""The end-to-end analyzer: captured packets in, measurements out.

:class:`ZoomAnalyzer` composes the stages of the paper's methodology
(Figure 6) from :mod:`repro.core.stages` — decode → classify (§4.1) →
Zoom demux (§4.2) → stream/meeting assembly (§4.3) → per-stream metrics
(§5), bit-rate bins and RTCP clock sync included.  The layers above it
(service windows, QoE scoring) attach by appending to two plain hook
lists, :attr:`ZoomAnalyzer.record_hooks` (called per decoded record by the
assembly stage) and :attr:`ZoomAnalyzer.eviction_hooks` (called per
finalized stream by :meth:`ZoomAnalyzer.evict_stream`).
It runs fully streaming: one pass over the capture, bounded state per
stream.  Raw frame bytes are held only for the packet in flight — a
:class:`~repro.net.packet.ParsedPacket` keeps its frame while it moves
through the stages and is then released; nothing downstream retains it
(stream tables keep normalized records, and only when ``keep_records`` is
set).  Input arrives as :class:`~repro.net.batch.FrameBatch` groups
(:meth:`ZoomAnalyzer.feed_batch`); non-Zoom frames are dropped by the
prefilter before any per-packet object exists at all.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.config import AnalyzerConfig
from repro.core.detector import ZoomTrafficDetector
from repro.core.meetings import Meeting, MeetingGrouper, group_streams
from repro.core.metrics.bitrate import BitrateMeter
from repro.core.metrics.frame_delay import FrameDelayAnalyzer
from repro.core.metrics.framerate import FrameRateMethod1, FrameRateMethod2
from repro.core.metrics.frames import FrameAssembler
from repro.core.metrics.framesize import FrameSizeCollector
from repro.core.metrics.jitter import FrameJitterEstimator
from repro.core.metrics.latency import RTPLatencyMatcher, TCPRTTEstimator
from repro.core.metrics.loss import StreamLossTracker
from repro.core.metrics.stalls import StallDetector, StallEvent, detect_stalls
from repro.core.metrics.sync import SenderReportCollector
from repro.core.rolling import FinalizedStream, IdleEviction, summarize_stream
from repro.core.stages import (
    AssembleStage,
    ClassifyStage,
    DecodeStage,
    MetricsStage,
    PacketContext,
    Stage,
    ZoomDemuxStage,
)
from repro.core.stages.assemble import RecordHook
from repro.core.streams import MediaStream, RTPPacketRecord, StreamKey, StreamTable
from repro.net.batch import FrameBatch, decode_columns
from repro.net.packet import ParsedPacket
from repro.protocols import ZoomPlugin, build_registry, protocol_counter_seeds
from repro.telemetry.registry import Telemetry, TelemetrySnapshot
from repro.zoom.constants import (
    AUDIO_SAMPLING_RATE,
    VIDEO_SAMPLING_RATE,
    EncapKey,
    ZoomMediaType,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.batch import PrefilterVerdict
    from repro.net.source import SourceLike

#: Batch-path counters pre-seeded to zero on every telemetry-enabled run.
_BATCH_COUNTER_SEEDS = (
    "pipeline.batch.batches",
    "pipeline.batch.frames",
    "prefilter.passed",
    "prefilter.dropped",
)


@dataclass
class StreamMetrics:
    """The metric estimators attached to one media stream."""

    assembler: FrameAssembler
    framerate_delivered: FrameRateMethod1
    framerate_encoder: FrameRateMethod2
    framesize: FrameSizeCollector
    jitter: FrameJitterEstimator
    loss: StreamLossTracker
    frame_delay: FrameDelayAnalyzer
    stalls: StallDetector

    @classmethod
    def for_media_type(cls, media_type: int) -> "StreamMetrics":
        sampling = (
            AUDIO_SAMPLING_RATE
            if media_type == ZoomMediaType.AUDIO
            else VIDEO_SAMPLING_RATE
        )
        return cls(
            assembler=FrameAssembler(),
            framerate_delivered=FrameRateMethod1(),
            framerate_encoder=FrameRateMethod2(sampling),
            framesize=FrameSizeCollector(),
            jitter=FrameJitterEstimator(sampling),
            loss=StreamLossTracker(),
            frame_delay=FrameDelayAnalyzer(sampling),
            stalls=StallDetector(),
        )

    def observe(self, record: RTPPacketRecord) -> None:
        """Route one packet record through every estimator."""
        self.loss.observe(record)
        self.jitter.observe(record)
        frame = self.assembler.observe(record)
        if frame is not None:
            self.framerate_delivered.observe(frame)
            self.framerate_encoder.observe(frame)
            self.framesize.observe(frame)
            self.stalls.observe(self.frame_delay.observe(frame))

    @property
    def stall_count(self) -> int:
        """``len(stall_events())`` at the default buffer depth, as a read:
        the stalls that ended plus the one still open."""
        return len(self.stalls.events) + self.stalls.currently_stalled

    def stall_events(self, *, buffer_depth: float = 0.200) -> list[StallEvent]:
        """Predicted playback stalls for this stream (§5.5 future work),
        replayed over the frame-delay samples at any buffer depth."""
        return detect_stalls(self.frame_delay.samples, buffer_depth=buffer_depth)


@dataclass
class AnalysisResult:
    """Everything one analyzer pass produces.

    Attributes:
        packets_total / packets_zoom: Input and Zoom-classified counts.
        detector: The (stateful) detector with its per-class counters.
        streams: The assembled stream table.
        grouper: The meeting grouper (query meetings via ``meetings``).
        stream_metrics: Estimators per stream key.
        bitrate: Flow/stream/media-type binned byte counters.
        rtp_latency: Method-1 latency matcher with all samples.
        tcp_rtt: Method-2 estimators, keyed by (client, server) wire-form
            addresses.
        encap_packets / encap_bytes: Zoom media-encapsulation type counters
            over UDP media-classified packets — the data behind Table 2.
            Keys are media-type values or :data:`~repro.zoom.constants.ENCAP_OTHER`.
        payload_type_packets / payload_type_bytes: (media type, RTP payload
            type) counters — the data behind Table 3.
        rtcp_sender_reports / rtcp_sdes_empty / rtcp_receiver_reports:
            RTCP observations (§4.2.1: no RRs ever appear).
        undecoded_packets: Media-class packets that did not parse as Zoom
            media or RTCP (the ~10% control remainder).
        telemetry: The runtime telemetry registry the packet path records
            into (see :mod:`repro.telemetry`); merged across shards by
            :meth:`merge`, snapshotted via :meth:`telemetry_snapshot`.
    """

    packets_total: int = 0
    packets_zoom: int = 0
    bytes_total: int = 0
    detector: ZoomTrafficDetector | None = None
    streams: StreamTable = field(default_factory=StreamTable)
    grouper: MeetingGrouper = field(default_factory=MeetingGrouper)
    stream_metrics: dict[StreamKey, StreamMetrics] = field(default_factory=dict)
    bitrate: BitrateMeter = field(default_factory=BitrateMeter)
    rtp_latency: RTPLatencyMatcher = field(default_factory=RTPLatencyMatcher)
    tcp_rtt: dict[tuple[int, int], TCPRTTEstimator] = field(default_factory=dict)
    sync: SenderReportCollector = field(default_factory=SenderReportCollector)
    encap_packets: Counter[EncapKey] = field(default_factory=Counter)
    encap_bytes: Counter[EncapKey] = field(default_factory=Counter)
    payload_type_packets: Counter[tuple[int, int]] = field(default_factory=Counter)
    payload_type_bytes: Counter[tuple[int, int]] = field(default_factory=Counter)
    rtcp_sender_reports: int = 0
    rtcp_sdes_empty: int = 0
    rtcp_receiver_reports: int = 0
    undecoded_packets: int = 0
    stun_packets: int = 0
    telemetry: Telemetry = field(default_factory=Telemetry)

    @property
    def meetings(self) -> list[Meeting]:
        return self.grouper.meetings()

    def telemetry_snapshot(self) -> TelemetrySnapshot:
        """An immutable copy of the run's telemetry (see :mod:`repro.telemetry`)."""
        return self.telemetry.snapshot()

    def media_streams(self) -> list[MediaStream]:
        return self.streams.streams()

    def metrics_for(self, key: StreamKey) -> StreamMetrics | None:
        return self.stream_metrics.get(key)

    def encap_share_table(self) -> list[tuple[EncapKey, float, float]]:
        """Rows of (type value, % packets, % bytes) over media-class UDP
        packets — directly comparable to Table 2."""
        total_packets = sum(self.encap_packets.values())
        total_bytes = sum(self.encap_bytes.values())
        rows = []
        for value, count in self.encap_packets.most_common():
            rows.append(
                (
                    value,
                    100.0 * count / total_packets if total_packets else 0.0,
                    100.0 * self.encap_bytes[value] / total_bytes if total_bytes else 0.0,
                )
            )
        return rows

    def payload_type_table(self) -> list[tuple[int, int, float, float]]:
        """Rows of (media type, payload type, % packets, % bytes) over
        decoded media packets — directly comparable to Table 3."""
        total_packets = sum(self.payload_type_packets.values())
        total_bytes = sum(self.payload_type_bytes.values())
        rows = []
        for (media_type, payload_type), count in self.payload_type_packets.most_common():
            rows.append(
                (
                    media_type,
                    payload_type,
                    100.0 * count / total_packets if total_packets else 0.0,
                    100.0 * self.payload_type_bytes[(media_type, payload_type)] / total_bytes
                    if total_bytes
                    else 0.0,
                )
            )
        return rows

    # ------------------------------------------------------------------ merge

    def merge(self, *others: "AnalysisResult") -> "AnalysisResult":
        """Combine this result with shard-local results into a new one.

        Counters and totals sum; streams, metrics, and binned series union
        (shard keys are disjoint under flow-affine partitioning, and
        colliding TCP-RTT estimators for the same (client, server) pair
        have their samples interleaved); meetings are re-grouped over the
        merged stream table with the batch §4.3 heuristic, since unique
        stream ids and meeting ids are only meaningful within one analyzer.

        The merged result *shares* stream and estimator objects with its
        inputs rather than copying them — treat the inputs as consumed.
        """
        return AnalysisResult.merge_all([self, *others])

    @staticmethod
    def merge_all(results: Iterable["AnalysisResult"]) -> "AnalysisResult":
        """Merge any number of shard results (see :meth:`merge`)."""
        results = list(results)
        if not results:
            return AnalysisResult()
        merged = AnalysisResult()
        merged.telemetry = Telemetry(enabled=False)  # enabled if any input is
        first = results[0]
        if first.detector is not None:
            merged.detector = copy.deepcopy(first.detector)
            for other in results[1:]:
                if other.detector is not None:
                    merged.detector.merge_from(other.detector)
        merged.streams = StreamTable(keep_records=first.streams.keep_records)
        merged.bitrate = BitrateMeter(bin_width=first.bitrate.bin_width)
        for result in results:
            merged.packets_total += result.packets_total
            merged.packets_zoom += result.packets_zoom
            merged.bytes_total += result.bytes_total
            merged.rtcp_sender_reports += result.rtcp_sender_reports
            merged.rtcp_sdes_empty += result.rtcp_sdes_empty
            merged.rtcp_receiver_reports += result.rtcp_receiver_reports
            merged.undecoded_packets += result.undecoded_packets
            merged.stun_packets += result.stun_packets
            merged.telemetry.merge_from(result.telemetry)
            merged.encap_packets.update(result.encap_packets)
            merged.encap_bytes.update(result.encap_bytes)
            merged.payload_type_packets.update(result.payload_type_packets)
            merged.payload_type_bytes.update(result.payload_type_bytes)
            for stream in result.streams.streams():
                merged.streams.adopt(stream)
            merged.stream_metrics.update(result.stream_metrics)
            merged.bitrate.merge_from(result.bitrate)
            merged.rtp_latency.merge_from(result.rtp_latency)
            merged.sync.merge_from(result.sync)
            for key, estimator in result.tcp_rtt.items():
                mine = merged.tcp_rtt.get(key)
                if mine is None:
                    mine = merged.tcp_rtt[key] = TCPRTTEstimator(
                        estimator.client_ip, estimator.server_ip
                    )
                mine.merge_from(estimator)
        merged.grouper, _ = group_streams(merged.streams.streams(), merged.streams)
        return merged


class ZoomAnalyzer:
    """The passive Zoom analyzer — a thin composition of pipeline stages.

    Args:
        config: An :class:`~repro.core.config.AnalyzerConfig` carrying every
            option (subnets, STUN timeout, record retention, telemetry
            wiring, rolling eviction).  Defaults apply when omitted.

    Usage::

        analyzer = ZoomAnalyzer(AnalyzerConfig(campus_subnets=("10.8.0.0/16",)))
        result = analyzer.run("a.pcap")             # any source or path
        result = analyzer.analyze(captured_packets)  # in-memory frames

    :class:`~repro.net.batch.FrameBatch` is the only currency between a
    source and the analyzer: :meth:`run` drains a source's batches through
    :meth:`feed_batch`, the one ingest implementation.  With
    ``config.rolling`` the analyzer owns an idle-eviction policy
    (:attr:`eviction`, see :mod:`repro.core.rolling`) consulted once per
    batch.

    Attributes:
        record_hooks: Called by the assembly stage for every decoded record
            as ``hook(record, stream_key, opened, meeting_formed)``, in list
            order.
        eviction_hooks: Called by :meth:`evict_stream` with each evicted
            stream's :class:`~repro.core.rolling.FinalizedStream`, in list
            order.
    """

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config = config if config is not None else AnalyzerConfig()
        self.record_hooks: list[RecordHook] = []
        self.eviction_hooks: list[Callable[[FinalizedStream], None]] = []
        self.result = AnalysisResult()
        self.result.telemetry = config.make_telemetry()
        self._telemetry = self.result.telemetry
        # The protocol registry (DESIGN §4.3).  The Zoom plugin's detector is
        # also exposed as ``result.detector`` so shard merges and the report
        # layers keep working unchanged; a registry without Zoom still gets
        # a (detached, never-fed) detector there for those layers.
        self.plugins = build_registry(config)
        zoom_plugin = next(
            (plugin for plugin in self.plugins if isinstance(plugin, ZoomPlugin)), None
        )
        if zoom_plugin is not None:
            self.result.detector = zoom_plugin.detector
        else:
            self.result.detector = ZoomTrafficDetector(
                config.zoom_subnets,
                campus_subnets=config.campus_subnets,
                stun_timeout=config.stun_timeout,
            )
        self.result.streams = StreamTable(keep_records=config.keep_records)
        self._assemble = AssembleStage(self.result, self.record_hooks)
        self._decode_stage = DecodeStage(self.result)
        self._classify_stage = ClassifyStage(self.result, self.plugins)
        self.stages: tuple[Stage, ...] = (
            self._decode_stage,
            self._classify_stage,
            ZoomDemuxStage(self.result),
            self._assemble,
            MetricsStage(self.result),
        )
        # Where a packet that passed ``n`` stages ended, and the sampled
        # timer of each stage — names resolved once, not per packet.
        self._outcome_counters = tuple(
            f"pipeline.stop.{stage.name}" for stage in self.stages
        ) + ("pipeline.completed",)
        self._stage_timers = tuple(f"stage.time.{stage.name}" for stage in self.stages)
        self._packet_seq = 0
        #: The idle-eviction policy, present in rolling mode only.
        self.eviction: IdleEviction | None = (
            IdleEviction(self) if config.rolling else None
        )
        # Pre-seed the batch-path counters so `--stats` and the Prometheus
        # exporter always expose them, even on runs that never see a batch
        # (and so their absence can never be mistaken for "prefilter ran
        # and dropped nothing" — see repro.telemetry.anomalies).
        if self._telemetry.enabled:
            for name in _BATCH_COUNTER_SEEDS:
                self._telemetry.count(name, 0)
            # Per-protocol claim/media counters appear as zeros before the
            # first packet (same pattern as qoe.*) so fleet dashboards show
            # idle protocols instead of gaps.
            for name in protocol_counter_seeds(
                [plugin.name for plugin in self.plugins]
            ):
                self._telemetry.count(name, 0)

    def run(self, source: "SourceLike") -> AnalysisResult:
        """Drain ``source`` through :meth:`feed_batch` and return the result.

        ``source`` may be a :class:`~repro.net.source.PacketSource`, a
        capture-file path, or a plain packet iterable (coerced to a source
        with the config's ``tolerant`` and ``batch_size``).  Memory stays
        bounded by one batch regardless of capture size.  Every source
        delivers raw contiguous buffers, so an in-memory or simulated input
        is analysed exactly as a capture file holding the same frames:
        non-Zoom frames are prefiltered before any per-packet object is
        allocated.
        """
        from repro.net.source import coerce_source

        source = coerce_source(
            source,
            telemetry=self._telemetry,
            tolerant=self.config.tolerant,
            batch_size=self.config.batch_size,
        )
        for batch in source.frame_batches():
            self.feed_batch(batch)
        return self.result

    def analyze(self, packets: "SourceLike") -> AnalysisResult:
        """The in-memory spelling of :meth:`run`."""
        return self.run(packets)

    def feed_batch(self, batch: FrameBatch) -> None:
        """Feed one :class:`~repro.net.batch.FrameBatch` — the one ingest door.

        Columnar header decode, the compiled prefilter, then lazy
        materialization of survivors through the per-packet stages; dropped
        frames are accounted in bulk with the values the stages would have
        recorded.  Hint frames (sharding) reach :meth:`hint_stun` in
        capture order, interleaved with the survivors around them.  In
        rolling mode the eviction policy is consulted once, after the
        batch, against its last timestamp.
        """
        tel = self._telemetry
        verdict = self._classify_stage.process_batch(batch, decode_columns(batch))
        self._decode_stage.account_dropped(verdict)
        if tel.enabled:
            tel.count("pipeline.batch.batches")
            tel.count("pipeline.batch.frames", len(batch))
            tel.count("prefilter.passed", verdict.passed)
            tel.count("prefilter.dropped", verdict.dropped)
            if verdict.dropped:
                # Every dropped frame would have stopped at the classify
                # stage.
                tel.count("pipeline.stop.classify", verdict.dropped)
        self._run(batch, verdict)
        if self.eviction is not None and len(batch):
            self.eviction.after_batch(batch.last_timestamp)

    def evict_stream(self, key: StreamKey, *, reason: str = "idle") -> MediaStream | None:
        """Finalize and release one stream from the live analyzer state.

        Removes the stream from the table, detaches its metric estimators,
        and summarizes both once into a
        :class:`~repro.core.rolling.FinalizedStream` (loss trackers closed
        out), which goes to every :attr:`eviction_hooks` entry (store, service
        windows, QoE scoring), so they can emit closing summaries or drop
        per-stream state.  Returns the evicted stream, or ``None`` if the key
        is unknown.  A later packet with the same key reopens the stream from
        scratch.
        """
        stream = self.result.streams.evict(key)
        if stream is None:
            return None
        tel = self._telemetry
        if tel.enabled:
            tel.count(f"pipeline.evicted.{reason}")
            tel.observe("pipeline.evicted_stream_packets", stream.packets)
        metrics = self.result.stream_metrics.pop(key, None)
        self._assemble.forget(key)
        summary = summarize_stream(stream, metrics, finalize=True)
        if self.eviction is not None:
            self.eviction.streams_evicted += 1
        for hook in self.eviction_hooks:
            hook(summary)
        return stream

    def hint_stun(self, parsed: ParsedPacket) -> bool:
        """Teach every plugin a STUN exchange without counting the packet.

        Used by the sharded driver to replicate P2P-endpoint learning to
        shards that will see the P2P flow but not its STUN preamble.
        """
        learned = False
        for plugin in self.plugins:
            learned = plugin.observe_stun(parsed) or learned
        return learned

    # ------------------------------------------------------------- internals

    def _run(self, batch: FrameBatch, verdict: "PrefilterVerdict") -> None:
        """Materialize one batch's survivors and walk each through the stages.

        Per-packet bookkeeping stays in locals: where each packet ended, its
        class and claimant are tallied here and reach the registry once per
        batch, and the five ``process`` methods are bound once.  One packet
        in ``Telemetry.TIMING_SAMPLE`` takes the wall-time-sampled walk
        instead, so instrumentation stays within the <=5% overhead budget.
        """
        tel = self._telemetry
        enabled = tel.enabled
        decode, classify, demux, assemble, metrics = (
            stage.process for stage in self.stages
        )
        materialize = batch.materialize
        indexes: Sequence[int] = verdict.survivors
        hints = frozenset(verdict.hint_indexes)
        if hints:
            indexes = sorted(indexes + verdict.hint_indexes)
        seq = self._packet_seq
        timing_mask = Telemetry.TIMING_MASK
        tally: dict[tuple, list[int]] = {}
        for index in indexes:
            parsed = materialize(index)
            if hints and index in hints:
                self.hint_stun(parsed)
                continue
            ctx = PacketContext(parsed)
            seq += 1
            if enabled and not seq & timing_mask:
                passed = self._run_timed(ctx)
            elif not decode(ctx):
                passed = 0
            elif not classify(ctx):
                passed = 1
            elif not demux(ctx):
                passed = 2
            elif not assemble(ctx):
                passed = 3
            elif not metrics(ctx):
                passed = 4
            else:
                passed = 5
            if enabled:
                key = (ctx.klass, ctx.protocol, passed)
                entry = tally.get(key)
                if entry is None:
                    tally[key] = [1, len(parsed.raw)]
                else:
                    entry[0] += 1
                    entry[1] += len(parsed.raw)
        self._packet_seq = seq
        for (klass, protocol, passed), (packets, size) in tally.items():
            tel.count(self._outcome_counters[passed], packets)
            if klass is None:  # stopped before classification
                continue
            tel.count(f"classify.class.{klass.value}", packets)
            tel.count(f"classify.bytes.{klass.value}", size)
            if protocol is not None:
                tel.count(f"protocols.claimed.{protocol}", packets)
                if passed >= 2:
                    tel.count("demux.media_class_packets", packets)
                if passed >= 3:
                    tel.count(f"protocols.media.{protocol}", packets)

    def _run_timed(self, ctx: PacketContext) -> int:
        """Walk one packet with per-stage wall time; returns how many stages
        it passed."""
        add_time = self._telemetry.add_time
        passed = 0
        for stage, timer in zip(self.stages, self._stage_timers):
            start = perf_counter()
            advanced = stage.process(ctx)
            add_time(timer, perf_counter() - start)
            if not advanced:
                break
            passed += 1
        return passed
