"""End-to-end service tests: batch equivalence, slow analysis, SIGTERM drain.

The headline acceptance test for the monitoring daemon: run the full
tailer → rolling analyzer → aggregator → exporter stack over a rotated
capture directory and check that the union of the emitted JSONL windows
reproduces what the batch analyzer says about the same packets.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.core import AnalyzerConfig, ServiceConfig, ZoomAnalyzer
from repro.net.pcap import write_pcap
from repro.service.runner import ZoomMonitorService
from repro.service.windows import media_name


def _rotated_dir(tmp_path: Path, captures) -> Path:
    directory = tmp_path / "caps"
    directory.mkdir()
    third = len(captures) // 3
    write_pcap(directory / "zoom-00.pcap", captures[:third])
    write_pcap(directory / "zoom-01.pcap", captures[third : 2 * third])
    write_pcap(directory / "zoom-02.pcap", captures[2 * third :])
    return directory


def _service_config(tmp_path: Path, **overrides) -> ServiceConfig:
    defaults = dict(
        analyzer=AnalyzerConfig(
            rolling=True, rolling_idle_timeout=60.0, telemetry=True
        ),
        window_seconds=5.0,
        watermark_lateness=2.0,
        poll_interval=0.05,
        jsonl_path=str(tmp_path / "windows.jsonl"),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestServiceEquivalence:
    @pytest.fixture(scope="class")
    def run_artifacts(self, sfu_meeting_result, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("service")
        captures = sfu_meeting_result.captures
        directory = _rotated_dir(tmp_path, captures)
        config = _service_config(tmp_path, listen="127.0.0.1:0")
        service = ZoomMonitorService(directory, config)
        report = service.run(stop_after_polls=2)
        windows = [
            json.loads(line)
            for line in (tmp_path / "windows.jsonl").read_text().splitlines()
        ]
        batch = ZoomAnalyzer(AnalyzerConfig(telemetry=True)).analyze(captures)
        return service, report, windows, batch

    def test_window_union_matches_batch_totals(self, run_artifacts, sfu_meeting_result):
        _, report, windows, batch = run_artifacts
        captures = sfu_meeting_result.captures
        assert report.packets_processed == len(captures)
        assert report.packets_dropped == 0
        assert sum(w["packets_total"] for w in windows) == batch.packets_total
        opened = sum(m["streams_opened"] for w in windows for m in w["media"])
        assert opened == len(batch.media_streams())
        assert report.streams_finalized == len(batch.media_streams())
        formed = sum(w["meetings_formed"] for w in windows)
        assert formed == batch.telemetry.counter("assemble.meetings_formed")
        assert report.meetings_formed == len(batch.meetings)

    def test_per_media_bitrate_matches_batch(self, run_artifacts):
        _, _, windows, batch = run_artifacts
        window_bytes: dict[str, int] = {}
        for window in windows:
            for media in window["media"]:
                window_bytes[media["media"]] = (
                    window_bytes.get(media["media"], 0) + media["bytes"]
                )
        batch_bytes: dict[str, int] = {}
        for stream in batch.media_streams():
            label = media_name(stream.media_type)
            batch_bytes[label] = batch_bytes.get(label, 0) + stream.bytes
        assert window_bytes == batch_bytes

    def test_windows_emitted_exactly_once(self, run_artifacts):
        _, report, windows, _ = run_artifacts
        indices = [w["window"] for w in windows]
        assert len(indices) == len(set(indices))
        assert indices == sorted(indices)
        assert report.windows_emitted == len(windows)

    def test_metrics_page_reflects_run(self, run_artifacts):
        service, report, windows, _ = run_artifacts
        body = service.render_metrics()
        assert f"repro_service_windows_total {len(windows)}" in body
        assert "repro_capture_frames_total" in body
        assert (
            f"repro_service_streams_finalized {report.streams_finalized}" in body
        )
        assert "repro_window_start_seconds" in body  # last window exported


class TestSlowAnalyzer:
    def test_directory_outpacing_the_analyzer_loses_nothing(
        self, sfu_meeting_result, tmp_path
    ):
        """A slow analyzer slows reading instead of shedding packets: the
        tailer reads the next batch only when the last one is processed."""
        captures = sfu_meeting_result.captures[:4500]
        directory = _rotated_dir(tmp_path, captures)
        config = _service_config(
            tmp_path,
            jsonl_path=None,
            analyzer=AnalyzerConfig(rolling=True, telemetry=True, batch_size=8),
        )
        service = ZoomMonitorService(directory, config)
        service.rolling.record_hooks.append(lambda *_: time.sleep(0.0002))
        report = service.run(stop_after_polls=1)
        assert report.packets_processed == len(captures)
        assert report.packets_dropped == 0

    def test_analysis_error_propagates_and_still_shuts_down(
        self, sfu_meeting_result, tmp_path
    ):
        """An exception from the analysis side is a bug, not an ingest
        restart: run() raises it after the final flush."""
        directory = _rotated_dir(tmp_path, sfu_meeting_result.captures)
        config = _service_config(
            tmp_path, jsonl_path=None, store_dir=str(tmp_path / "store")
        )
        service = ZoomMonitorService(directory, config)
        raised = []

        def failing_hook(*_):
            if not raised:
                raised.append(True)
                raise RuntimeError("analysis bug")

        service.rolling.record_hooks.append(failing_hook)
        with pytest.raises(RuntimeError, match="analysis bug"):
            service.run(stop_after_polls=1)
        assert service.ingest_restarts == 0
        assert service.telemetry.counter("service.ingest_restarts") == 0
        with pytest.raises(ValueError, match="store is closed"):
            service.store_sink.store.append({"kind": "window", "start": 0.0})


class TestIngestRestart:
    def test_poll_crash_is_counted_and_retried(self, sfu_meeting_result, tmp_path):
        captures = sfu_meeting_result.captures
        directory = _rotated_dir(tmp_path, captures)
        config = _service_config(
            tmp_path, jsonl_path=None, restart_backoff_base=0.01
        )
        service = ZoomMonitorService(directory, config)
        calls = {"n": 0}
        real_poll = service.tailer.poll

        def flaky_poll():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient capture-dir error")
            return real_poll()

        service.tailer.poll = flaky_poll
        report = service.run(stop_after_polls=1)
        assert report.ingest_restarts == 1
        assert service.telemetry.counter("service.ingest_restarts") == 1
        assert report.packets_processed == len(captures)  # recovered fully


class TestSignalDuringBackoff:
    def test_sigterm_cuts_a_restart_backoff_short(self, tmp_path):
        """The backoff sleeps in poll-interval slices, so a stop lands
        within one slice, not after the 30 s backoff."""
        config = _service_config(
            tmp_path, jsonl_path=None, restart_backoff_base=30.0
        )
        service = ZoomMonitorService(tmp_path, config)

        def broken_poll():
            raise OSError("capture directory unmounted")

        service.tailer.poll = broken_poll
        timer = threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGTERM))
        started = time.monotonic()
        timer.start()
        try:
            report = service.run(install_signal_handlers=True)
        finally:
            timer.cancel()
        assert time.monotonic() - started < 5.0
        assert report.ingest_restarts == 1

    def test_poll_interval_must_be_positive(self, tmp_path):
        # The poll interval is the slice a signal's stop waits out.
        with pytest.raises(ValueError, match="poll_interval"):
            _service_config(tmp_path, poll_interval=0.0)


@pytest.mark.slow
class TestSigtermShutdown:
    def test_sigterm_flushes_once_and_exits_zero(self, sfu_meeting_result, tmp_path):
        captures = sfu_meeting_result.captures
        directory = _rotated_dir(tmp_path, captures)
        jsonl_path = tmp_path / "windows.jsonl"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "analyze-live",
                str(directory),
                "--window",
                "5",
                "--lateness",
                "2",
                "--poll-interval",
                "0.2",
                "--listen",
                "127.0.0.1:0",
                "--jsonl-out",
                str(jsonl_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
        )
        try:
            url = None
            for _ in range(2):
                line = process.stdout.readline()
                if line.startswith("metrics: "):
                    url = line.split(" ", 1)[1].strip()
            assert url, "daemon never printed its metrics URL"
            base = url.rsplit("/", 1)[0]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:  # wait for the first full poll
                try:
                    if urllib.request.urlopen(f"{base}/readyz", timeout=2).status == 200:
                        break
                except OSError:
                    pass
                time.sleep(0.1)
            else:
                pytest.fail("daemon never became ready")
            metrics = urllib.request.urlopen(url, timeout=5).read().decode()
            assert "repro_capture_frames_total" in metrics
            health = urllib.request.urlopen(f"{base}/healthz", timeout=5)
            assert health.status == 200
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "processed" in stdout
        windows = [
            json.loads(line) for line in jsonl_path.read_text().splitlines()
        ]
        indices = [w["window"] for w in windows]
        assert len(indices) == len(set(indices))  # flushed exactly once
        batch = ZoomAnalyzer(AnalyzerConfig()).analyze(captures)
        assert sum(w["packets_total"] for w in windows) == batch.packets_total
        opened = sum(m["streams_opened"] for w in windows for m in w["media"])
        assert opened == len(batch.media_streams())
