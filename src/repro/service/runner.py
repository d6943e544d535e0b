"""The monitoring daemon's supervisor: one loop, restarts, shutdown.

Topology (one arrow = one synchronous call, all on the calling thread)::

    capture dir ──poll── CaptureDirectoryTailer
                               │  lazy batch generator
                               ▼
    WindowAggregator ── ZoomAnalyzer (rolling mode)
                               │  closed WindowRecords
                               ▼
    JsonlWindowLog · MetricsHTTPServer · StoreSink   (exporter sinks)

Design decisions an operator should know:

* **The source is the buffer.**  The loop is ``for batch in
  tailer.poll(): process(batch)``: the tailer reads the next batch only
  when the analyzer has finished the last one, so a slow analyzer slows
  reading rather than losing packets.  A capture directory keeps what has
  not been read yet on disk; a live interface keeps it in the kernel
  ring, whose overflow is counted (``dataplane.kernel_drops``).
* **Ingest restarts itself.**  An unexpected exception from the tailer (a
  corrupt file, a transient NFS error) is counted
  (``service.ingest_restarts``) and retried with exponential backoff
  rather than killing the daemon.  An exception from the analysis side
  (the analyzer, its hooks, the store) is a bug and ends :meth:`run`.
* **SIGTERM/SIGINT drain before exiting.**  The loop stops within one
  poll interval, every live stream is finalized through one last sweep,
  and all open windows are closed and exported exactly once — ``kill``
  then diff is a lossless way to end a measurement campaign.
* **Per-meeting QoE state machines ride the same decoded records.**  When
  ``config.qoe.enabled`` (the default), a
  :class:`~repro.qoe.MeetingQoeTracker` joins the rolling analyzer's
  record and eviction hooks, scores tumbling QoE windows per meeting, and
  pre-seeds the ``qoe.*`` alert counters so dashboards can alert on
  ``increase()`` from the zero sample; per-state fleet gauges
  (``qoe.meetings_good`` … ``qoe.meetings_critical``) ride the same
  Prometheus page.
* **History is durable when ``--store`` is given.**  Closed windows and
  finalized streams append to a :class:`~repro.store.MetricsStore` as they
  happen (meeting summaries at drain time); even a SIGKILL loses at most
  the store's torn tail frame, recovered away on the next open.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import ServiceConfig
from repro.core.pipeline import ZoomAnalyzer
from repro.net.batch import FrameBatch
from repro.protocols import protocol_counter_seeds
from repro.fleet.health import FLEET_COUNTER_SEEDS
from repro.qoe import QOE_COUNTER_SEEDS, MeetingQoeTracker, QoeState
from repro.service.exporters import JsonlWindowLog, MetricsHTTPServer
from repro.service.prometheus import render_metrics
from repro.service.tail import CaptureDirectoryTailer
from repro.service.windows import WindowAggregator, WindowRecord


def _dataplane_counter_seeds() -> tuple:
    from repro.dataplane import DATAPLANE_COUNTER_SEEDS

    return DATAPLANE_COUNTER_SEEDS


@dataclass(frozen=True, slots=True)
class ServiceReport:
    """What one service run did, returned by :meth:`ZoomMonitorService.run`."""

    polls: int
    packets_processed: int
    #: Always 0: the loop reads a batch only when the last one is
    #: processed, so the service itself never sheds packets.
    packets_dropped: int
    ingest_restarts: int
    windows_emitted: int
    streams_finalized: int
    meetings_formed: int
    qoe_transitions: int = 0
    qoe_alerts: int = 0
    qoe_worst_state: str = "GOOD"
    #: Frames the kernel (or simulated) packet ring dropped before the
    #: analyzer could see them — live-interface mode only, always 0 when
    #: tailing a directory.  Nonzero means the window totals undercount.
    kernel_drops: int = 0


class ZoomMonitorService:
    """Wire tailer → aggregator → rolling analyzer → exporters and run.

    Args:
        directory: The capture directory to follow; may be ``None`` when
            ``config.interface`` selects live-interface mode instead.
        config: A :class:`~repro.core.config.ServiceConfig`; its nested
            analyzer config drives the rolling analyzer unchanged.
        packet_socket: Test hook for interface mode — a pre-built packet
            socket (usually a
            :class:`~repro.dataplane.SimulatedPacketSocket`) used instead
            of opening ``config.interface``.

    In interface mode the ingest side is a
    :class:`~repro.dataplane.LiveInterfaceSource` instead of a directory
    tailer: frames arrive through an ``AF_PACKET`` socket (or its
    simulated stand-in) with the compiled cBPF capture filter attached,
    and everything downstream — the loop, restarts, drain — is shared
    with the directory path.  The source honours the same ``poll()`` /
    ``polls`` contract, so the loop below cannot tell the difference; the
    one addition is that a finite replay socket reports ``exhausted`` and
    stops the service like a drained ``stop_after_polls`` run.

    The constructor builds everything but starts nothing; :meth:`run`
    blocks until :meth:`stop` (or a signal, when requested) and returns a
    :class:`ServiceReport`.  Tests drive it with ``stop_after_polls=``.
    """

    def __init__(
        self,
        directory: "str | Path | None",
        config: ServiceConfig,
        *,
        packet_socket=None,
    ) -> None:
        self.config = config
        #: The rolling-mode analyzer (``config.analyzer.rolling`` is forced).
        self.rolling = ZoomAnalyzer(config.analyzer)
        self.telemetry = self.rolling.result.telemetry
        self.interface_mode = config.interface is not None or packet_socket is not None
        if self.interface_mode:
            # Imported lazily: repro.dataplane builds on repro.net and is
            # only needed when capturing live.
            from repro.dataplane import (
                DataplaneFilter,
                LiveInterfaceSource,
                open_packet_socket,
            )

            if packet_socket is None:
                packet_socket = open_packet_socket(config.interface)
            dataplane = DataplaneFilter.from_plugins(self.rolling.plugins)
            self.tailer = LiveInterfaceSource(
                packet_socket,
                dataplane=dataplane,
                telemetry=self.telemetry,
                batch_size=config.analyzer.batch_size,
            )
        else:
            if directory is None:
                raise ValueError("directory is required unless an interface is set")
            self.tailer = CaptureDirectoryTailer(
                directory,
                pattern=config.tail_pattern,
                telemetry=self.telemetry,
                batch_size=config.analyzer.batch_size,
            )
        self.aggregator = WindowAggregator(
            self.rolling,
            window_seconds=config.window_seconds,
            lateness=config.watermark_lateness,
            max_open_windows=config.max_open_windows,
            telemetry=self.telemetry,
        )
        self.aggregator.add_callback(self._remember_window)
        self.jsonl: JsonlWindowLog | None = None
        if config.jsonl_path is not None:
            self.jsonl = JsonlWindowLog(
                config.jsonl_path,
                max_bytes=config.jsonl_max_bytes,
                telemetry=self.telemetry,
            )
            self.aggregator.add_callback(self.jsonl.write)
        self.store_sink = None
        if config.store_dir is not None:
            # Imported lazily: repro.store sits above repro.service in the
            # layering (it consumes WindowRecord), so a module-scope import
            # would be circular.
            from repro.store.sink import StoreSink
            from repro.store.store import MetricsStore

            store = MetricsStore(
                config.store_dir, config.store, telemetry=self.telemetry
            )
            self.store_sink = StoreSink(store)
            self.aggregator.add_callback(self.store_sink.write_window)
            # Ahead of the window aggregator's and QoE tracker's hooks.
            self.rolling.eviction_hooks.insert(0, self.store_sink.write_stream)
        self.http: MetricsHTTPServer | None = None
        if config.listen is not None:
            self.http = MetricsHTTPServer(
                config.listen,
                render_metrics=self.render_metrics,
                healthy=self._healthy,
                ready=self._ready_probe,
                # A store-backed daemon doubles as a fleet query node: the
                # federated plane POSTs StoreQuery payloads here.
                store_query=(
                    self._store_query if self.store_sink is not None else None
                ),
            )
        self.qoe: MeetingQoeTracker | None = None
        if config.qoe is not None and config.qoe.enabled:
            self.qoe = MeetingQoeTracker(
                self.rolling, config.qoe, telemetry=self.telemetry
            )
        # Degradation counters are pre-seeded so the Prometheus endpoint
        # always exposes them — a dashboard alerting on increase() needs
        # the zero sample, not an absent series until the first drop.  The
        # per-protocol claim/media/conflict counters ride the same pattern,
        # one dimension per enabled registry plugin.
        seeds = (
            ("service.ingest_restarts",)
            + protocol_counter_seeds(plugin.name for plugin in self.rolling.plugins)
            + (QOE_COUNTER_SEEDS if self.qoe is not None else ())
            + (FLEET_COUNTER_SEEDS if self.store_sink is not None else ())
            + (_dataplane_counter_seeds() if self.interface_mode else ())
        )
        for name in seeds:
            self.telemetry.count(name, 0)
        self._stopping = False
        self._running = False
        self._ready = False
        self._flushed = False
        self._last_window: WindowRecord | None = None
        self.packets_processed = 0
        self.ingest_restarts = 0

    # ------------------------------------------------------------ lifecycle

    def run(
        self,
        *,
        install_signal_handlers: bool = False,
        stop_after_polls: int | None = None,
    ) -> ServiceReport:
        """Run until :meth:`stop`; returns after the final flush.

        Args:
            install_signal_handlers: Route SIGTERM/SIGINT to :meth:`stop`
                (main thread only — the CLI path).
            stop_after_polls: Stop once the tailer has completed this many
                directory polls (test hook; the daemon default is to run
                forever).
        """
        previous_handlers = {}
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous_handlers[signum] = signal.signal(signum, self._on_signal)
        if self.http is not None:
            self.http.start()
        self._running = True
        try:
            self._loop(stop_after_polls)
        finally:
            self._running = False
            self._shutdown()
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
        return self.report()

    def stop(self) -> None:
        """Ask the service to drain and exit; the loop sees it within one
        ``poll_interval``.

        Safe from any thread and from a signal handler: it only sets a
        flag.  A handler interrupts the loop on the main thread, so one
        that took a lock the loop might hold (``Event.set`` does) could
        deadlock.
        """
        self._stopping = True

    def report(self) -> ServiceReport:
        qoe = self.qoe
        return ServiceReport(
            polls=self.tailer.polls,
            packets_processed=self.packets_processed,
            packets_dropped=0,
            ingest_restarts=self.ingest_restarts,
            windows_emitted=self.aggregator.windows_emitted,
            streams_finalized=self.rolling.eviction.streams_evicted,
            meetings_formed=len(self.rolling.result.meetings),
            qoe_transitions=len(qoe.transitions) if qoe is not None else 0,
            qoe_alerts=(
                sum(1 for _, t in qoe.transitions if t.state >= QoeState.IMPAIRED)
                if qoe is not None
                else 0
            ),
            qoe_worst_state=qoe.worst_state().name if qoe is not None else "GOOD",
            kernel_drops=getattr(self.tailer, "kernel_drops", 0),
        )

    # ---------------------------------------------------------------- loop

    def _loop(self, stop_after_polls: int | None) -> None:
        backoff = self.config.restart_backoff_base
        while not self._stopping:
            if not self._poll_once():
                # Crash-restart: a corrupt file or transient I/O error must
                # not take the daemon down.  Counted, backed off, retried.
                self.ingest_restarts += 1
                self.telemetry.count("service.ingest_restarts")
                self._sleep(backoff)
                backoff = min(backoff * 2, self.config.restart_backoff_max)
                continue
            if self._stopping:
                return  # stopped mid-poll
            self._ready = True
            backoff = self.config.restart_backoff_base
            if getattr(self.tailer, "exhausted", False):
                # A finite replay socket ran dry: drain and exit like a
                # completed stop_after_polls run (the `sim:` CLI path).
                return
            if stop_after_polls is not None and self.tailer.polls >= stop_after_polls:
                return
            self._sleep(self.config.poll_interval)

    def _poll_once(self) -> bool:
        """Process one poll's batches; ``False`` when the tailer raised.

        Only the tailer's calls sit inside a ``try``: an exception from
        :meth:`_process` (the analyzer, its hooks, the store) propagates
        out of :meth:`run` instead of passing for an ingest restart.
        """
        try:
            batches = self.tailer.poll()
        except Exception:
            return False
        while not self._stopping:
            try:
                batch = next(batches)
            except StopIteration:
                break
            except Exception:
                return False
            self._process(batch)
        return True

    def _sleep(self, seconds: float) -> None:
        """Sleep ``seconds`` in ``poll_interval`` slices, ending early at
        the first slice after :meth:`stop`."""
        deadline = time.monotonic() + seconds
        while not self._stopping and (left := deadline - time.monotonic()) > 0:
            time.sleep(min(left, self.config.poll_interval))

    def _process(self, batch: FrameBatch) -> None:
        if len(batch):
            self.aggregator.ingest(batch)  # volume → feed → watermark
            self.packets_processed += len(batch)

    def _shutdown(self) -> None:
        """Final sweep, close windows exactly once, stop exporters."""
        if not self._flushed:
            self._flushed = True
            self.aggregator.finish()  # finalize every live stream, close windows
            if self.qoe is not None:
                self.qoe.flush(final=True)  # score tail QoE windows
            if self.store_sink is not None:
                self.store_sink.write_meetings(self.rolling.result.meetings)
                self.store_sink.store.close()
        if self.interface_mode:
            self.tailer.close()  # release the packet socket
        if self.jsonl is not None:
            self.jsonl.close()
        if self.http is not None:
            self.http.stop()

    # ------------------------------------------------------------ exporters

    def render_metrics(self) -> str:
        """Current Prometheus page (also called by the HTTP thread)."""
        for attempt in (1, 2, 3):
            try:
                snapshot = self.telemetry.snapshot()
                break
            except RuntimeError:
                # The service loop resized a dict while this (HTTP) thread
                # copied it; rare, retry.
                if attempt == 3:
                    raise
                time.sleep(0.001)
        gauges = {
            "service.live_streams": float(len(self.rolling.result.streams)),
            "service.open_windows": float(self.aggregator.open_window_count()),
            "service.streams_finalized": float(self.rolling.eviction.streams_evicted),
        }
        # Per-protocol live-stream dimensions: every enabled plugin exports
        # a zero gauge from startup, not an absent series until its first
        # claimed stream.
        per_protocol = {plugin.name: 0 for plugin in self.rolling.plugins}
        for stream in self.rolling.result.streams.streams():
            per_protocol[stream.protocol] = per_protocol.get(stream.protocol, 0) + 1
        for name, count in per_protocol.items():
            gauges[f"service.live_streams.{name}"] = float(count)
        if self.qoe is not None:
            summary = self.qoe.fleet_summary()
            for state in QoeState:
                gauges[f"qoe.meetings_{state.name.lower()}"] = float(
                    summary.get(state.name, 0)
                )
        return render_metrics(
            snapshot,
            last_window=self._last_window,
            gauges=gauges,
        )

    def _store_query(self, payload: dict) -> dict:
        """``POST /store/query`` body: run a StoreQuery over the live store.

        Runs on an HTTP handler thread; ``MetricsStore.query`` holds the
        store lock from plan to scan, so maintenance cannot race it.
        """
        from repro.store.query import StoreQuery

        self.telemetry.count("fleet.store_queries")
        try:
            query = StoreQuery.from_dict(payload)
            result = self.store_sink.store.query(query)
        except Exception:
            self.telemetry.count("fleet.store_query_errors")
            raise
        self.telemetry.count("fleet.store_query_records", len(result.records))
        return {
            "records": result.records,
            "segments_scanned": result.segments_scanned,
            "segments_skipped": result.segments_skipped,
            "records_examined": result.records_examined,
        }

    def _remember_window(self, window: WindowRecord) -> None:
        self._last_window = window

    def _healthy(self) -> bool:
        return self._running

    def _ready_probe(self) -> bool:
        return self._ready

    def _on_signal(self, signum: int, frame: object) -> None:
        self.stop()
