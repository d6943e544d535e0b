"""Live-ingest tests: simulated socket, LiveInterfaceSource, service mode.

The headline test is the golden equivalence: ``analyze-live --interface
sim:<trace>`` must produce the same window records as the directory-tailer
path over the same capture — the live dataplane changes *where* frames are
dropped, never what the analyzer concludes about the frames it keeps.
"""

import json

from repro.core.config import AnalyzerConfig, ServiceConfig
from repro.dataplane import (
    DataplaneFilter,
    LiveInterfaceSource,
    SimulatedPacketSocket,
    open_packet_socket,
)
from repro.dataplane.compiler import CaptureRules, compile_cbpf
from repro.net.batch import BatchPrefilter
from repro.net.ip import addr_from_str
from repro.net.packet import CapturedPacket, build_udp_frame
from repro.net.pcap import PcapWriter
from repro.rtp.stun import StunMessage
from repro.service.runner import ZoomMonitorService
from repro.telemetry.registry import Telemetry

ZOOM_NET = "170.114.0.0/16"
ZOOM = "170.114.1.1"
ZOOM_STUN = "170.114.200.9"
CAMPUS = "10.8.1.20"
PEER = "198.18.2.30"
BACKGROUND = "93.184.216.34"

STUN_PAYLOAD = StunMessage.binding_request(b"abcdefghijkl").serialize()


def zoom_frame(i):
    return build_udp_frame(CAMPUS, 20000, ZOOM, 8801, b"\x05\x10" + bytes(200 + i % 7))


def background_frame(i):
    return build_udp_frame("10.9.0.9", 40000 + i % 10, BACKGROUND, 443, bytes(150))


def write_trace(path, frames):
    with PcapWriter(path) as writer:
        for ts, frame in frames:
            writer.write(CapturedPacket(ts, frame))


def pure_zoom_frames(n=120):
    return [(i * 0.05, zoom_frame(i)) for i in range(n)]


def border_frames(n=200):
    out = []
    for i in range(n):
        frame = zoom_frame(i) if i % 4 == 0 else background_frame(i)
        out.append((i * 0.05, frame))
    return out


def zoom_program():
    return compile_cbpf(CaptureRules.from_networks([ZOOM_NET]))


class TestSimulatedPacketSocket:
    def test_inject_filter_and_ring(self):
        sock = SimulatedPacketSocket(ring_capacity=4)
        sock.attach_filter(zoom_program())
        assert sock.inject(0.0, zoom_frame(0))
        assert not sock.inject(0.1, background_frame(0))  # filtered
        assert sock.filtered == 1
        packets, drops = sock.stats()
        assert (packets, drops) == (1, 0)

    def test_ring_overflow_counts_drops(self):
        sock = SimulatedPacketSocket(ring_capacity=2)
        for i in range(5):
            sock.inject(float(i), zoom_frame(i))
        packets, drops = sock.stats()
        assert packets == 5  # tp_packets includes ring-dropped frames
        assert drops == 3
        assert len(sock.recv_batch(10)) == 2

    def test_replay_and_exhaustion(self, tmp_path):
        trace = tmp_path / "t.pcap"
        write_trace(trace, pure_zoom_frames(10))
        sock = SimulatedPacketSocket.replay(trace, chunk=4)
        assert not sock.exhausted
        got = []
        while not sock.exhausted:
            got.extend(sock.recv_batch(3))
        assert len(got) == 10
        assert [ts for ts, _ in got] == [i * 0.05 for i in range(10)]

    def test_forced_overload_is_deterministic(self, tmp_path):
        trace = tmp_path / "t.pcap"
        write_trace(trace, pure_zoom_frames(100))
        # chunk > ring_capacity: every refill overruns the ring.
        sock = SimulatedPacketSocket.replay(trace, ring_capacity=10, chunk=50)
        delivered = []
        while not sock.exhausted:
            delivered.extend(sock.recv_batch(1000))
        packets, drops = sock.stats()
        assert packets == 100
        assert drops == 80
        assert len(delivered) == packets - drops

    def test_open_packet_socket_sim_prefix(self, tmp_path):
        trace = tmp_path / "t.pcap"
        write_trace(trace, pure_zoom_frames(3))
        sock = open_packet_socket(f"sim:{trace}")
        assert isinstance(sock, SimulatedPacketSocket)
        assert len(sock.recv_batch(10)) == 3


class TestDataplaneFilter:
    def test_tracker_sync_triggers_recompile(self):
        from repro.core.detector import StunTracker

        tracker = StunTracker(timeout=120.0)
        dp = DataplaneFilter(BatchPrefilter([ZOOM_NET]), stun_trackers=[tracker])
        dp.compile()
        assert not dp.needs_recompile()
        tracker.learn(addr_from_str(CAMPUS), 50001, now=1.0)
        dp.sync()
        assert dp.needs_recompile()
        program = dp.compile()
        assert program.meta["compiled_endpoints"] == 1
        assert not dp.needs_recompile()


class TestLiveInterfaceSource:
    def test_raw_sniff_learns_then_recompiles(self):
        sock = SimulatedPacketSocket()
        dp = DataplaneFilter(BatchPrefilter([ZOOM_NET]))
        source = LiveInterfaceSource(sock, dataplane=dp, telemetry=Telemetry())
        assert source.recompiles == 1  # initial attach
        stun = build_udp_frame(CAMPUS, 50001, ZOOM_STUN, 3478, STUN_PAYLOAD)
        assert sock.inject(0.0, stun)  # zoom range: passes the initial program
        batches = list(source.poll())
        assert sum(len(b) for b in batches) == 1
        # The raw tier sniffed the cookie; the next poll folds it into the
        # kernel program.
        assert dp.needs_recompile()
        list(source.poll())
        assert source.recompiles == 2
        # A P2P frame on the learned endpoint now passes the kernel tier.
        p2p = build_udp_frame(CAMPUS, 50001, PEER, 9999, bytes(30))
        assert sock.inject(1.0, p2p)
        assert sum(len(b) for b in source.poll()) == 1
        assert source.packets_emitted == 2

    def test_frame_batches_drains_replay(self, tmp_path):
        trace = tmp_path / "t.pcap"
        write_trace(trace, border_frames(80))
        dp = DataplaneFilter(BatchPrefilter([ZOOM_NET]))
        source = LiveInterfaceSource(
            SimulatedPacketSocket.replay(trace), dataplane=dp, telemetry=Telemetry()
        )
        total = sum(len(b) for b in source.frame_batches())
        assert total == 20  # every 4th frame is Zoom
        assert source.exhausted
        assert source.socket.filtered == 60

    def test_userspace_tier_drops_what_no_kernel_program_did(self, tmp_path):
        """No program attached: every frame reaches userspace, the prefilter
        drops the background, one batch per received chunk (64, 64, 64, 8)."""
        trace = tmp_path / "t.pcap"
        write_trace(trace, border_frames(200))
        telemetry = Telemetry()
        source = LiveInterfaceSource(
            SimulatedPacketSocket.replay(trace, chunk=64), attach_filter=False,
            dataplane=DataplaneFilter(BatchPrefilter([ZOOM_NET])), telemetry=telemetry,
        )
        batches = list(source.frame_batches())
        assert [len(b) for b in batches] == [16, 16, 16, 2]
        emitted = [bytes(f) for b in batches for f, _ in b.iter_frames()]
        assert emitted == [frame for _, frame in border_frames(200)[::4]]
        assert (source.packets_emitted, source.frames_filtered) == (50, 150)
        counter = telemetry.snapshot().counter
        assert counter("dataplane.filtered") == 150
        assert counter("dataplane.filtered_bytes") == 150 * len(background_frame(0))
        assert counter("dataplane.recompiles") == 0

    def test_kernel_stats_fold_into_telemetry(self, tmp_path):
        trace = tmp_path / "t.pcap"
        write_trace(trace, pure_zoom_frames(100))
        telemetry = Telemetry()
        dp = DataplaneFilter(BatchPrefilter([ZOOM_NET]))
        source = LiveInterfaceSource(
            SimulatedPacketSocket.replay(trace, ring_capacity=10, chunk=50),
            dataplane=dp,
            telemetry=telemetry,
        )
        delivered = sum(len(b) for b in source.frame_batches())
        assert source.kernel_drops == 80
        assert delivered == source.kernel_packets - source.kernel_drops
        assert telemetry.snapshot().counter("dataplane.kernel_drops") == 80


def run_service(directory, config, **kwargs):
    service = ZoomMonitorService(directory, config)
    report = service.run(**kwargs)
    return service, report


def service_config(jsonl_path=None, interface=None, listen=None):
    return ServiceConfig(
        analyzer=AnalyzerConfig(zoom_subnets=(ZOOM_NET,)),
        window_seconds=2.0,
        watermark_lateness=0.5,
        interface=interface,
        jsonl_path=str(jsonl_path) if jsonl_path else None,
        listen=listen,
    )


class TestServiceInterfaceMode:
    def test_golden_window_equivalence_pure_zoom(self, tmp_path):
        """Interface mode and tailer mode emit identical window records
        over a trace the dataplane filters nothing from."""
        capture_dir = tmp_path / "captures"
        capture_dir.mkdir()
        trace = capture_dir / "t.pcap"
        write_trace(trace, pure_zoom_frames(120))

        tail_jsonl = tmp_path / "tail.jsonl"
        _, tail_report = run_service(
            capture_dir, service_config(tail_jsonl), stop_after_polls=2
        )
        live_jsonl = tmp_path / "live.jsonl"
        _, live_report = run_service(
            None, service_config(live_jsonl, interface=f"sim:{trace}")
        )

        assert live_report.packets_processed == tail_report.packets_processed == 120
        assert live_report.kernel_drops == 0
        tail_windows = [json.loads(line) for line in tail_jsonl.read_text().splitlines()]
        live_windows = [json.loads(line) for line in live_jsonl.read_text().splitlines()]
        assert tail_windows == live_windows
        assert tail_windows  # the equivalence is not vacuous

    def test_border_trace_reconciliation(self, tmp_path):
        """On a mixed trace the interface path sees only the Zoom share;
        the kernel-filtered remainder reconciles the totals exactly."""
        capture_dir = tmp_path / "captures"
        capture_dir.mkdir()
        trace = capture_dir / "t.pcap"
        write_trace(trace, border_frames(200))

        _, tail_report = run_service(
            capture_dir, service_config(), stop_after_polls=2
        )
        sock = SimulatedPacketSocket.replay(trace)
        service = ZoomMonitorService(
            None, service_config(interface=f"sim:{trace}"), packet_socket=sock
        )
        live_report = service.run()

        assert tail_report.packets_processed == 200
        assert live_report.packets_processed == 50
        filtered_raw = service.tailer.frames_filtered
        assert (
            live_report.packets_processed
            + sock.filtered
            + filtered_raw
            + live_report.kernel_drops
            == tail_report.packets_processed
        )

    def test_kernel_drops_in_report_prometheus_and_anomalies(self, tmp_path):
        from repro.telemetry.anomalies import detect_anomalies

        trace = tmp_path / "t.pcap"
        write_trace(trace, pure_zoom_frames(100))
        sock = SimulatedPacketSocket.replay(trace, ring_capacity=10, chunk=50)
        service = ZoomMonitorService(
            None, service_config(interface=f"sim:{trace}"), packet_socket=sock
        )
        report = service.run()
        assert report.kernel_drops == 80
        assert report.packets_processed == 20
        page = service.render_metrics()
        assert "repro_dataplane_kernel_drops_total 80" in page
        names = [a.name for a in detect_anomalies(service.telemetry.snapshot())]
        assert "dataplane-kernel-drops" in names

    def test_dataplane_counters_pre_seeded(self, tmp_path):
        """Interface mode exports zero-valued dataplane.* series from the
        first scrape, before any packet arrives (the fleet.* pattern)."""
        trace = tmp_path / "t.pcap"
        write_trace(trace, pure_zoom_frames(5))
        service = ZoomMonitorService(
            None, service_config(interface=f"sim:{trace}")
        )
        page = service.render_metrics()  # before run(): nothing counted yet
        for name in ("repro_dataplane_kernel_drops_total", "repro_dataplane_filtered_total",
                     "repro_dataplane_recompiles_total"):
            assert name in page
        service.run()

    def test_directory_required_without_interface(self):
        import pytest

        with pytest.raises(ValueError, match="directory is required"):
            ZoomMonitorService(None, service_config())


class TestCliParsing:
    def test_interface_flag_and_optional_directory(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["analyze-live", "--interface", "sim:/x.pcap"])
        assert args.directory is None
        assert args.interface == "sim:/x.pcap"
        assert args.batch_size == AnalyzerConfig().batch_size == 4096  # the one default

    def test_batch_size_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["analyze", "x.pcap", "--batch-size", "64"])
        assert args.batch_size == 64
        args = build_parser().parse_args(["analyze-live", "d", "--batch-size", "1024"])
        assert args.batch_size == 1024

    def test_directory_and_interface_mutually_exclusive(self):
        from repro.cli import main

        assert main(["analyze-live", "somedir", "--interface", "eth0"]) == 2
        assert main(["analyze-live"]) == 2

    def test_cli_interface_run_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.pcap"
        write_trace(trace, pure_zoom_frames(40))
        assert main(["analyze-live", "--interface", f"sim:{trace}",
                     "--zoom-subnets", ZOOM_NET]) == 0
        out = capsys.readouterr().out
        assert "capturing from sim:" in out
        assert "processed 40 packets" in out

    def test_batch_size_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError, match="batch_size"):
            AnalyzerConfig(batch_size=0)
