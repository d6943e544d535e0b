"""The one way analyzer options flow: a frozen :class:`AnalyzerConfig`.

:class:`~repro.core.pipeline.ZoomAnalyzer`,
:class:`~repro.core.sharded.ShardedAnalyzer`,
:class:`~repro.core.session.AnalysisSession` and the CLI all consume one
immutable config object — ``ZoomAnalyzer(AnalyzerConfig(...))`` — and take
no option keywords of their own.

The config is *frozen* so a driver can hold it without defensive copies,
ship it across process boundaries (the sharded process backend pickles it),
and derive variants with :meth:`AnalyzerConfig.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.net.batch import DEFAULT_FRAMES_PER_BATCH
from repro.telemetry.registry import Telemetry
from repro.zoom.constants import ZOOM_SERVER_SUBNETS

SHARD_BACKENDS = ("serial", "thread", "process")

#: Names ``ProtocolConfig`` accepts.  Kept as a literal here (instead of
#: importing :data:`repro.protocols.registry.PLUGIN_FACTORIES`) to avoid a
#: config → protocols → core import cycle; the registry asserts the two
#: stay in sync at plugin-construction time.
KNOWN_PROTOCOLS = ("zoom", "rtp")

#: RFC 3551 static audio payload types plus Opus as commonly negotiated.
DEFAULT_RTP_AUDIO_PAYLOAD_TYPES = (0, 8, 9, 13, 111)


@dataclass(frozen=True, slots=True)
class ProtocolConfig:
    """Which protocol plugins run, and their generic-RTP tunables.

    Attributes:
        protocols: Enabled plugin names (``--protocols zoom,rtp``), in any
            order — the registry sorts by plugin priority.  Duplicates are
            dropped (first occurrence wins), unknown names raise.
        rtp_audio_payload_types: RTP payload types the generic plugin maps
            to the audio media type; all other decodable RTP is video.
    """

    protocols: tuple[str, ...] = ("zoom",)
    rtp_audio_payload_types: tuple[int, ...] = DEFAULT_RTP_AUDIO_PAYLOAD_TYPES

    def __post_init__(self) -> None:
        deduped: list[str] = []
        for name in self.protocols:
            if name not in KNOWN_PROTOCOLS:
                known = ", ".join(KNOWN_PROTOCOLS)
                raise ValueError(f"unknown protocol {name!r} (known: {known})")
            if name not in deduped:
                deduped.append(name)
        if not deduped:
            raise ValueError("at least one protocol must be enabled")
        object.__setattr__(self, "protocols", tuple(deduped))
        object.__setattr__(
            self, "rtp_audio_payload_types", tuple(self.rtp_audio_payload_types)
        )


@dataclass(frozen=True, slots=True)
class AnalyzerConfig:
    """Every tunable of the analysis pipeline, in one immutable record.

    Attributes:
        zoom_subnets: Zoom's published server prefixes (§4.1 detection).
        campus_subnets: Optional campus prefixes scoping P2P detection.
        stun_timeout: P2P endpoint memory in seconds (§4.1).
        keep_records: Retain per-packet records on streams (memory-heavy;
            only needed for offline re-analysis).
        tolerant: Treat a truncated capture tail as end-of-file instead of
            an error (consumed by the capture readers / sources).
        telemetry: Runtime telemetry wiring — ``True``/``False`` toggles a
            fresh registry, a :class:`~repro.telemetry.Telemetry` instance
            is shared as-is, and a zero-argument *factory* callable builds
            one registry per analyzer (the form that survives pickling into
            sharded worker processes; use a module-level function there).
        shards: Flow-affine parallelism (1 = single pass).  Consumed by
            :class:`~repro.core.sharded.ShardedAnalyzer` and the
            :class:`~repro.core.session.AnalysisSession` driver selection.
        shard_backend: ``"serial"``, ``"thread"``, or ``"process"``.
        rolling: Run with bounded-memory idle-stream eviction (the
            analyzer owns a :class:`~repro.core.rolling.IdleEviction`
            policy).
        rolling_idle_timeout: Seconds of inactivity before a stream is
            finalized and evicted.
        rolling_sweep_interval: How often (in capture time) to scan for
            idle streams.
        qoe: Optional per-meeting QoE state-machine tunables; when set (and
            enabled), :class:`~repro.core.session.AnalysisSession` attaches
            a :class:`~repro.qoe.tracker.MeetingQoeTracker` to the run.
            Requires an unsharded run — the machine needs the whole-meeting
            event stream, which flow-affine shards split.
        protocols: Which protocol plugins the registry enables (default:
            Zoom only, the bit-identical legacy behaviour) plus their
            generic-RTP tunables.
        batch_size: Frames per ingest batch, handed to every source the
            drivers open (``--batch-size``); any explicit value is honoured
            as-is.  Defaults to
            :data:`repro.net.batch.DEFAULT_FRAMES_PER_BATCH`.
    """

    zoom_subnets: tuple[str, ...] = tuple(ZOOM_SERVER_SUBNETS)
    campus_subnets: tuple[str, ...] | None = None
    stun_timeout: float = 120.0
    keep_records: bool = False
    tolerant: bool = False
    telemetry: "Telemetry | bool | Callable[[], Telemetry]" = True
    shards: int = 1
    shard_backend: str = "thread"
    rolling: bool = False
    rolling_idle_timeout: float = 60.0
    rolling_sweep_interval: float = 10.0
    qoe: "QoeConfig | None" = None
    protocols: "ProtocolConfig" = dataclasses.field(default_factory=ProtocolConfig)
    batch_size: int = DEFAULT_FRAMES_PER_BATCH

    def __post_init__(self) -> None:
        # Normalize subnet iterables to tuples so the config hashes/pickles
        # and a caller's list can't mutate under a running analyzer.
        object.__setattr__(self, "zoom_subnets", tuple(self.zoom_subnets))
        if self.campus_subnets is not None:
            object.__setattr__(self, "campus_subnets", tuple(self.campus_subnets))
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_backend not in SHARD_BACKENDS:
            raise ValueError(f"unknown backend {self.shard_backend!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def replace(self, **changes: object) -> "AnalyzerConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------- telemetry

    @property
    def telemetry_enabled(self) -> bool:
        """Whether analyzers built from this config record telemetry."""
        if isinstance(self.telemetry, Telemetry):
            return self.telemetry.enabled
        if callable(self.telemetry):
            return True
        return bool(self.telemetry)

    def make_telemetry(self) -> Telemetry:
        """The registry an analyzer built from this config records into.

        A shared :class:`Telemetry` instance passes through; a factory is
        invoked (fresh registry per call); a bool builds an enabled or
        disabled registry.
        """
        if isinstance(self.telemetry, Telemetry):
            return self.telemetry
        if callable(self.telemetry):
            return self.telemetry()
        return Telemetry(enabled=bool(self.telemetry))

    def shard_config(self) -> "AnalyzerConfig":
        """The per-shard variant of this config.

        A shared registry instance cannot be recorded into concurrently from
        thread or process shards, so it degrades to its enabled flag — each
        shard then builds a private registry and the driver merges them.
        Factories and bools pass through (a factory is called once per
        shard, in the worker).
        """
        telemetry = self.telemetry
        if isinstance(telemetry, Telemetry):
            telemetry = telemetry.enabled
        # Per-shard QoE machines would each see a flow-affine slice of a
        # meeting, never the whole meeting — drop the tracker in shards.
        # Shards keep whole-capture state for the merge, so no eviction.
        return self.replace(telemetry=telemetry, shards=1, qoe=None, rolling=False)


@dataclass(frozen=True, slots=True)
class QoeConfig:
    """Tunables of the per-meeting QoE state machine (:mod:`repro.qoe`).

    The machine classifies each meeting into GOOD / DEGRADED / IMPAIRED /
    CRITICAL from window-level monitor-visible signals, with hysteresis so a
    flapping link does not flap alerts.  Threshold provenance is the paper's
    §5 validation ranges (see DESIGN.md §7): recovery-visible loss share,
    RFC-3550 jitter, and the frame-rate collapse that "Can You See Me Now?"
    identifies as the dominant user-visible failure.

    Attributes:
        enabled: Master switch; a disabled config makes drivers skip the
            tracker entirely.
        window_seconds: Width of the tracker's own tumbling scoring windows
            (finer than the service's export windows — QoE needs ~1 s
            reaction granularity).
        lateness: Watermark lag before a scoring window closes.
        min_meeting_packets: Meeting-windows with fewer media packets than
            this are not scored at all (join/leave edges, idle meetings).
        min_stream_packets: A stream contributes to a window's worst-stream
            signals only with at least this many packets in the window.
        min_substream_packets: A substream (RTP payload type) contributes to
            the window's jitter peak only with at least this many in-order
            packets — sparse substreams (FEC at a few packets per second)
            hold transient estimator spikes for many windows and would smear
            an impairment past its true end.
        loss_degraded / loss_impaired / loss_critical: Enter thresholds on
            the worst stream's recovery-visible loss fraction (sequence gaps
            per gap-plus-received packet).
        jitter_degraded_ms / jitter_impaired_ms / jitter_critical_ms: Enter
            thresholds on the worst stream's RFC-3550 jitter estimate.
        fps_degraded / fps_impaired / fps_critical: Enter thresholds on the
            worst video stream's delivered-fps ratio against its learned
            baseline (a ratio *below* the threshold triggers).
        fps_baseline_alpha: EWMA weight of the per-stream fps baseline,
            learned only while the meeting is GOOD so a degraded rate is
            never adopted as normal.
        fps_min_baseline: Streams whose learned rate sits below this never
            produce an fps signal (screen shares burst at a few fps and
            would otherwise flap the ratio).
        exit_fraction: Exit thresholds are enter thresholds scaled by this
            factor — the hysteresis gap.
        enter_windows: Consecutive qualifying windows required to escalate.
        exit_windows: Consecutive clear windows required to de-escalate.
        min_dwell_windows: Minimum scored windows between *any* two
            transitions; this is what makes the zero-flap guarantee
            structural rather than statistical.
    """

    enabled: bool = True
    window_seconds: float = 1.0
    lateness: float = 0.5
    min_meeting_packets: int = 30
    min_stream_packets: int = 20
    min_substream_packets: int = 10
    loss_degraded: float = 0.02
    loss_impaired: float = 0.08
    loss_critical: float = 0.20
    jitter_degraded_ms: float = 15.0
    jitter_impaired_ms: float = 35.0
    jitter_critical_ms: float = 80.0
    fps_degraded: float = 0.75
    fps_impaired: float = 0.45
    fps_critical: float = 0.20
    fps_baseline_alpha: float = 0.3
    fps_min_baseline: float = 8.0
    exit_fraction: float = 0.6
    enter_windows: int = 2
    exit_windows: int = 3
    min_dwell_windows: int = 3

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if self.lateness < 0:
            raise ValueError("lateness must be >= 0")
        if not 0 < self.exit_fraction <= 1:
            raise ValueError("exit_fraction must be in (0, 1]")
        if self.enter_windows < 1 or self.exit_windows < 1:
            raise ValueError("enter_windows and exit_windows must be >= 1")
        if self.min_dwell_windows < 1:
            raise ValueError("min_dwell_windows must be >= 1")
        if self.min_substream_packets < 1:
            raise ValueError("min_substream_packets must be >= 1")
        if not self.loss_degraded < self.loss_impaired < self.loss_critical:
            raise ValueError("loss thresholds must strictly increase")
        if not (
            self.jitter_degraded_ms < self.jitter_impaired_ms < self.jitter_critical_ms
        ):
            raise ValueError("jitter thresholds must strictly increase")
        if not self.fps_degraded > self.fps_impaired > self.fps_critical:
            raise ValueError("fps ratio thresholds must strictly decrease")

    def replace(self, **changes: object) -> "QoeConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True, slots=True)
class StoreConfig:
    """Tunables of the persistent metrics store (:mod:`repro.store`).

    Frozen for the same reasons as :class:`AnalyzerConfig`: the store holds
    it for its whole lifetime, and a directory's on-disk partition width
    must never drift under a running writer (opening an existing store
    adopts the width recorded in its manifest).

    Attributes:
        partition_seconds: Width of one time partition — records are routed
            to ``floor(start / partition_seconds)``.  The default (1 h)
            matches the paper's campus-study slicing granularity.
        seal_records / seal_bytes: An active segment crossing either
            threshold is sealed (gzip-compressed, footer-indexed, atomically
            renamed).  Small thresholds mean more, smaller segments — finer
            query skipping but more compaction work.
        gzip_level: Compression level used at seal and compaction time.
        fsync: Fsync the active segment after every append.  Off by
            default: the framing already bounds loss to the torn tail
            frame, and window cadence (one record per ~10 s) makes the
            durability window tiny.
        compact_min_segments: A partition is compacted once it holds at
            least this many sealed segments under ``compact_small_bytes``.
        compact_small_bytes: Only segments at or below this size join a
            compaction (a full-sized sealed segment is already its final
            form).
        retention_max_age: Delete sealed segments whose newest record lies
            further than this behind the store's newest record
            (``None`` = keep forever).
        retention_max_bytes: Delete oldest sealed segments until the store
            is under this budget (``None`` = unbounded).
        maintenance_interval: In live operation, run compaction + retention
            after every N seals (``repro compact`` runs the same pass on
            demand).
    """

    partition_seconds: float = 3600.0
    seal_records: int = 1024
    seal_bytes: int = 4 * 1024 * 1024
    gzip_level: int = 6
    fsync: bool = False
    compact_min_segments: int = 4
    compact_small_bytes: int = 1024 * 1024
    retention_max_age: float | None = None
    retention_max_bytes: int | None = None
    maintenance_interval: int = 16

    def __post_init__(self) -> None:
        if self.partition_seconds <= 0:
            raise ValueError("partition_seconds must be > 0")
        if self.seal_records < 1:
            raise ValueError("seal_records must be >= 1")
        if self.seal_bytes < 1:
            raise ValueError("seal_bytes must be >= 1")
        if not 0 <= self.gzip_level <= 9:
            raise ValueError("gzip_level must be in 0..9")
        if self.compact_min_segments < 2:
            raise ValueError("compact_min_segments must be >= 2")
        if self.maintenance_interval < 1:
            raise ValueError("maintenance_interval must be >= 1")

    def replace(self, **changes: object) -> "StoreConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Everything the live monitoring daemon needs beyond the analyzer.

    Consumed by :class:`repro.service.runner.ZoomMonitorService`; the
    nested :class:`AnalyzerConfig` drives the rolling analyzer exactly as it
    would a batch run (``rolling_idle_timeout`` etc. apply unchanged).

    Attributes:
        analyzer: The analysis tunables (rolling mode is implied; the
            service forces ``rolling=True``).
        window_seconds: Width of the tumbling aggregation windows.
        watermark_lateness: How far (in capture time) the watermark trails
            the newest event before a window is closed; events older than
            the watermark are counted as ``service.late_events`` and
            dropped, which is what bounds open-window memory.
        max_open_windows: Hard cap on simultaneously open windows; beyond
            it the oldest is force-closed (counted as
            ``service.windows_forced``).
        poll_interval: Seconds between capture-directory scans (or between
            live-interface receive passes in interface mode).
        tail_pattern: Glob for capture files inside the tailed directory.
        interface: Capture from this network interface instead of tailing
            a directory (``analyze-live --interface``).  A plain name
            (``eth0``) opens an ``AF_PACKET`` socket with the compiled
            cBPF capture filter attached (needs ``CAP_NET_RAW``); the
            ``sim:<capture-path>`` form replays a capture file through the
            simulated socket — same code path, no privileges.
        listen: ``host:port`` for the metrics/health HTTP endpoint, or
            ``None`` to run without one.  Port 0 binds an ephemeral port
            (the server reports the bound address).
        jsonl_path: Append-only per-window JSONL log, or ``None``.
        jsonl_max_bytes: Size at which the JSONL log is rotated to ``.1``.
        restart_backoff_base: First delay (seconds) after an ingest
            crash; doubles per consecutive crash.
        restart_backoff_max: Ceiling on the crash-restart delay.
        store_dir: Root directory of the persistent metrics store
            (``analyze-live --store``), or ``None`` to run without one.
        store: The store's tunables (ignored unless ``store_dir`` is set).
        qoe: Per-meeting QoE state-machine tunables; ``QoeConfig(
            enabled=False)`` runs the daemon without QoE tracking.
    """

    analyzer: AnalyzerConfig = dataclasses.field(default_factory=AnalyzerConfig)
    window_seconds: float = 10.0
    watermark_lateness: float = 5.0
    max_open_windows: int = 64
    poll_interval: float = 1.0
    tail_pattern: str = "*.pcap*"
    interface: str | None = None
    listen: str | None = None
    jsonl_path: str | None = None
    jsonl_max_bytes: int = 64 * 1024 * 1024
    restart_backoff_base: float = 0.5
    restart_backoff_max: float = 30.0
    store_dir: str | None = None
    store: StoreConfig = dataclasses.field(default_factory=StoreConfig)
    qoe: QoeConfig = dataclasses.field(default_factory=QoeConfig)

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if self.watermark_lateness < 0:
            raise ValueError("watermark_lateness must be >= 0")
        if self.max_open_windows < 1:
            raise ValueError("max_open_windows must be >= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        object.__setattr__(self, "analyzer", self.analyzer.replace(rolling=True))

    def replace(self, **changes: object) -> "ServiceConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True, slots=True)
class FleetNodeConfig:
    """One vantage point in a monitor fleet (see :mod:`repro.fleet`).

    A node is an ``analyze-live`` daemon (or a finished campaign) at one
    tap — a campus building, a PoP — reachable for queries through its
    on-disk metrics store, its HTTP store endpoint, or both.

    Attributes:
        name: Site identifier, unique within the fleet (``bldg-a``,
            ``pop-lhr``); used in dedup annotations, health tables, and
            ``nodes_missing`` lists.
        store_dir: Path of the node's :class:`~repro.store.MetricsStore`.
            Querying a local path opens the store directly — the right
            mode for finished campaigns and simulated fleets.  Never point
            this at a store a *live* daemon is writing from another
            process; use ``endpoint`` for live nodes.
        endpoint: Base URL of the node's metrics HTTP server (e.g.
            ``http://10.8.0.5:9469``).  The federated plane POSTs
            ``/store/query`` here and the health layer scrapes
            ``/metrics``.
        campus_subnets: The campus prefixes this tap covers — operator
            documentation of the fleet's coverage map, and the basis for
            "two taps should not overlap" sanity checks.
    """

    name: str
    store_dir: str | None = None
    endpoint: str | None = None
    campus_subnets: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError(f"node name must be a non-empty label, got {self.name!r}")
        if self.store_dir is None and self.endpoint is None:
            raise ValueError(f"node {self.name!r} needs a store_dir or an endpoint")
        if self.endpoint is not None and not self.endpoint.startswith(("http://", "https://")):
            raise ValueError(
                f"node {self.name!r}: endpoint must be an http(s) URL, "
                f"got {self.endpoint!r}"
            )
        if self.campus_subnets is not None:
            object.__setattr__(self, "campus_subnets", tuple(self.campus_subnets))

    @property
    def query_source(self) -> str:
        """Where queries go: the local store when present, else the endpoint."""
        return "store" if self.store_dir is not None else "endpoint"


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """A named set of vantage points behind one query plane.

    Consumed by :class:`repro.fleet.federation.FederatedQuery` and the
    ``fleet`` CLI subcommands; usually loaded from a JSON manifest
    (:mod:`repro.fleet.manifest`).

    Attributes:
        nodes: The fleet's vantage points; names must be unique.
        query_timeout: Per-node time budget (seconds) for one federated
            fan-out attempt; a node that exceeds it joins
            ``nodes_missing`` instead of stalling the plane.
        query_retries: Extra attempts per node before it is declared
            missing (transient endpoint hiccups survive a retry; a dead
            node just costs ``retries × timeout`` once).
        max_workers: Fan-out thread-pool width (bounded so a 100-node
            fleet does not open 100 sockets at once).
        stale_after: Fleet-health rule: a node whose newest data trails
            the fleet's newest by more than this many seconds of capture
            time is flagged stale.
    """

    nodes: tuple[FleetNodeConfig, ...]
    query_timeout: float = 5.0
    query_retries: int = 1
    max_workers: int = 8
    stale_after: float = 120.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("a fleet needs at least one node")
        names = [node.name for node in self.nodes]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(f"duplicate node names: {', '.join(duplicates)}")
        if self.query_timeout <= 0:
            raise ValueError("query_timeout must be > 0")
        if self.query_retries < 0:
            raise ValueError("query_retries must be >= 0")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.stale_after <= 0:
            raise ValueError("stale_after must be > 0")

    def node(self, name: str) -> FleetNodeConfig:
        """The node called ``name`` (raises ``KeyError`` if absent)."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def replace(self, **changes: object) -> "FleetConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
