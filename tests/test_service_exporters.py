"""Exporter tests: Prometheus rendering, JSONL rotation, the HTTP endpoints."""

import gzip
import json
import urllib.error
import urllib.request

import pytest

from repro.service.exporters import JsonlWindowLog, MetricsHTTPServer
from repro.service.prometheus import metric_name, render_metrics
from repro.service.windows import WindowRecord
from repro.telemetry.registry import Telemetry
from repro.zoom.constants import ZoomMediaType


def _window(index: int = 3) -> WindowRecord:
    window = WindowRecord(index=index, start=index * 10.0, end=(index + 1) * 10.0)
    window.packets_total = 500
    window.bytes_total = 123456
    window.zoom_packets = 480
    stats = window.media_stats(int(ZoomMediaType.VIDEO))
    stats.packets = 400
    stats.bytes = 100_000
    stats.mean_fps = 24.5
    audio = window.media_stats(int(ZoomMediaType.AUDIO))
    audio.packets = 80
    audio.bytes = 8_000
    # audio mean_fps stays NaN: audio has no frame rate
    return window


class TestPrometheusRendering:
    def test_metric_name_sanitizes_dots(self):
        assert metric_name("capture.frames", suffix="_total") == (
            "repro_capture_frames_total"
        )
        assert metric_name("service.open-windows") == "repro_service_open_windows"

    def test_counters_rendered_with_type_lines(self):
        telemetry = Telemetry()
        telemetry.count("capture.frames", 42)
        telemetry.count("service.windows", 7)
        body = render_metrics(telemetry.snapshot())
        assert "# TYPE repro_capture_frames_total counter" in body
        assert "repro_capture_frames_total 42" in body
        assert "repro_service_windows_total 7" in body
        assert body.endswith("\n")

    def test_gauges_and_window_samples(self):
        body = render_metrics(
            Telemetry().snapshot(),
            last_window=_window(),
            gauges={"service.open_windows": 5.0},
        )
        assert "repro_service_open_windows 5" in body
        assert "repro_window_packets 500" in body
        assert 'repro_window_media_packets{media="video"} 400' in body
        assert 'repro_window_media_fps{media="video"} 24.5' in body
        # NaN quality values are omitted, not rendered as NaN.
        assert 'repro_window_media_fps{media="audio"}' not in body
        assert "NaN" not in body

    def test_bitrate_uses_window_width(self):
        body = render_metrics(Telemetry().snapshot(), last_window=_window())
        assert 'repro_window_media_bitrate_bps{media="video"} 80000' in body


class TestJsonlWindowLog:
    def test_appends_one_line_per_window(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with JsonlWindowLog(path) as log:
            log.write(_window(0))
            log.write(_window(1))
        lines = path.read_text().splitlines()
        assert [json.loads(line)["window"] for line in lines] == [0, 1]

    def test_rotates_at_size_threshold(self, tmp_path):
        telemetry = Telemetry()
        path = tmp_path / "w.jsonl"
        line_len = len(json.dumps(_window(0).to_dict(), separators=(",", ":"))) + 1
        with JsonlWindowLog(
            path, max_bytes=line_len * 2 + 10, telemetry=telemetry
        ) as log:
            for index in range(5):
                log.write(_window(index))
            assert log.rotations >= 1
        # The rotated predecessor is gzip-compressed; the active file stays
        # plain text.  No half-written temp file may survive.
        rotated = path.with_name(path.name + ".1.gz")
        assert rotated.exists()
        assert not rotated.with_name(rotated.name + ".tmp").exists()
        rotated_lines = gzip.decompress(rotated.read_bytes()).decode().splitlines()
        assert all(json.loads(line)["packets_total"] == 500 for line in rotated_lines)
        total = len(path.read_text().splitlines()) + len(rotated_lines)
        # Rotation keeps only one predecessor; earlier lines may be gone,
        # but the current and previous files hold the newest windows.
        assert total >= 2
        assert telemetry.counter("service.jsonl_windows") == 5
        assert telemetry.counter("service.jsonl_rotations") == log.rotations

    def test_rotated_gzip_is_backfillable(self, tmp_path):
        """The backfill reader must accept both the live plain file and the
        gzip-rotated predecessor — the satellite contract of PR 5."""
        from repro.store.backfill import iter_jsonl_windows

        path = tmp_path / "w.jsonl"
        line_len = len(json.dumps(_window(0).to_dict(), separators=(",", ":"))) + 1
        with JsonlWindowLog(path, max_bytes=line_len + 10) as log:
            for index in range(3):
                log.write(_window(index))
        rotated = path.with_name(path.name + ".1.gz")
        from_gzip = list(iter_jsonl_windows(rotated))
        from_plain = list(iter_jsonl_windows(path))
        assert from_gzip and from_plain
        assert all(w["packets_total"] == 500 for w in from_gzip + from_plain)

    def test_reopens_append_across_instances(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with JsonlWindowLog(path) as log:
            log.write(_window(0))
        with JsonlWindowLog(path) as log:
            log.write(_window(1))
        assert len(path.read_text().splitlines()) == 2


class TestDegradationCountersExported:
    def test_dropped_and_restart_counters_always_present(self, tmp_path):
        """`service.ingest_restarts` must appear on the Prometheus page
        from the first scrape — a dashboard alerting on increase() needs the
        zero sample, not a series that materializes at the first incident."""
        from repro.core import AnalyzerConfig, ServiceConfig
        from repro.service.runner import ZoomMonitorService

        config = ServiceConfig(analyzer=AnalyzerConfig(telemetry=True))
        service = ZoomMonitorService(tmp_path, config)
        body = service.render_metrics()
        assert "repro_service_ingest_restarts_total 0" in body


class TestMetricsHTTPServer:
    @pytest.fixture()
    def server(self):
        state = {"healthy": True, "ready": False}
        server = MetricsHTTPServer(
            "127.0.0.1:0",
            render_metrics=lambda: "repro_up 1\n",
            healthy=lambda: state["healthy"],
            ready=lambda: state["ready"],
        )
        server.start()
        yield server, state
        server.stop()

    def _get(self, server, path):
        host, port = server.address
        return urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=5)

    def test_metrics_endpoint(self, server):
        server, _ = server
        response = self._get(server, "/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in response.headers["Content-Type"]
        assert response.read().decode() == "repro_up 1\n"

    def test_health_and_readiness_probes(self, server):
        server, state = server
        assert self._get(server, "/healthz").status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/readyz")
        assert excinfo.value.code == 503
        state["ready"] = True
        assert self._get(server, "/readyz").status == 200
        state["healthy"] = False
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/healthz")
        assert excinfo.value.code == 503

    def test_unknown_path_404(self, server):
        server, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404

    def test_rejects_bare_port(self):
        with pytest.raises(ValueError, match="host:port"):
            MetricsHTTPServer(":8000"[1:], render_metrics=lambda: "")
