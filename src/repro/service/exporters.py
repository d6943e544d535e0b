"""Operator-facing outputs: JSONL window log and the metrics HTTP endpoint.

Two consumers, two exporters:

* Dashboards/alerting scrape :class:`MetricsHTTPServer` — a stdlib
  ``ThreadingHTTPServer`` on its own daemon thread serving ``/metrics``
  (Prometheus text format, rendered by :mod:`repro.service.prometheus`),
  ``/healthz`` (liveness: the service loop is running), and ``/readyz``
  (readiness: at least one directory poll completed).
* Batch/offline tooling reads :class:`JsonlWindowLog` — one JSON object
  per closed window, appended as the window closes, with size-based
  rotation so an unattended deployment cannot fill the disk.  The active
  file stays plain text (tail-able, crash-tolerant); the rotated-out
  predecessor is gzip-compressed (``.jsonl`` → ``.jsonl.1.gz`` — window
  JSON compresses ~10×).  ``repro backfill`` reads both forms.

Both are deliberately dependency-free; the paper's measurement system runs
on a campus network appliance where installing a metrics client library is
exactly the kind of friction passive measurement avoids.
"""

from __future__ import annotations

import gzip
import json
import shutil
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable

from repro.service.windows import WindowRecord
from repro.telemetry.registry import Telemetry


class JsonlWindowLog:
    """Append-only JSONL sink for closed windows, with size rotation.

    Args:
        path: Log file path; the rotated predecessor lives gzip-compressed
            at ``path.1.gz`` (the active file is never compressed, so it
            stays tail-able and survives a mid-write kill as plain torn
            JSONL).
        max_bytes: Rotation threshold — checked *before* each write, so one
            oversized window record never splits across files.
        telemetry: Optional registry (``service.jsonl_windows`` /
            ``service.jsonl_rotations``).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        max_bytes: int = 64 * 1024 * 1024,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.path = Path(path)
        self.max_bytes = max_bytes
        self._telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")
        self.windows_written = 0
        self.rotations = 0
        self._lock = threading.Lock()

    def write(self, window: WindowRecord) -> None:
        line = json.dumps(window.to_dict(), separators=(",", ":"))
        with self._lock:
            if self._file.tell() + len(line) + 1 > self.max_bytes and self._file.tell():
                self._rotate()
            self._file.write(line + "\n")
            self._file.flush()
            self.windows_written += 1
            self._telemetry.count("service.jsonl_windows")

    def _rotate(self) -> None:
        self._file.close()
        # Compress into a temp name and publish with an atomic rename so a
        # kill mid-rotation leaves either the old plain file or the complete
        # .gz, never a half-written archive under the final name.
        rotated = self.path.with_name(self.path.name + ".1.gz")
        tmp = rotated.with_name(rotated.name + ".tmp")
        with open(self.path, "rb") as src, gzip.open(tmp, "wb") as dst:
            shutil.copyfileobj(src, dst)
        tmp.replace(rotated)
        self.path.unlink()
        self._file = open(self.path, "a", encoding="utf-8")
        self.rotations += 1
        self._telemetry.count("service.jsonl_rotations")

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "JsonlWindowLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MetricsHTTPServer:
    """``/metrics`` + ``/healthz`` + ``/readyz`` on a daemon thread.

    Args:
        listen: ``host:port``; port 0 binds an ephemeral port — read the
            actual one back from :attr:`address` (tests and the smoke
            script rely on this).
        render_metrics: Zero-argument callable returning the current
            Prometheus page body.
        healthy / ready: Zero-argument probes; ``False`` answers 503.
        store_query: Optional callable taking a decoded
            :class:`~repro.store.query.StoreQuery` payload dict and
            returning a JSON-serializable result dict; when given, the
            server also answers ``POST /store/query`` — the thin store
            endpoint the fleet's federated query plane fans out to.
    """

    def __init__(
        self,
        listen: str,
        *,
        render_metrics: Callable[[], str],
        healthy: Callable[[], bool] = lambda: True,
        ready: Callable[[], bool] = lambda: True,
        store_query: Callable[[dict], dict] | None = None,
    ) -> None:
        host, _, port_text = listen.rpartition(":")
        if not host or not port_text:
            raise ValueError(f"listen address must be host:port, got {listen!r}")
        handler = _build_handler(render_metrics, healthy, ready, store_query)
        self._server = ThreadingHTTPServer((host, int(port_text)), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-metrics", daemon=True
        )

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound (host, port)."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)


def _build_handler(
    render_metrics: Callable[[], str],
    healthy: Callable[[], bool],
    ready: Callable[[], bool],
    store_query: Callable[[dict], dict] | None = None,
) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                self._respond(200, render_metrics(), "text/plain; version=0.0.4")
            elif path == "/healthz":
                self._probe(healthy, "ok\n", "service loop not running\n")
            elif path == "/readyz":
                self._probe(ready, "ready\n", "no poll completed yet\n")
            else:
                self._respond(404, "not found\n", "text/plain")

        def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
            path = self.path.split("?", 1)[0]
            if path != "/store/query" or store_query is None:
                self._respond(404, "not found\n", "text/plain")
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length) or b"{}")
                if not isinstance(payload, dict):
                    raise ValueError("query body must be a JSON object")
                result = store_query(payload)
            except (ValueError, TypeError, KeyError) as exc:
                # A malformed or version-skewed query is the caller's
                # problem; anything else propagates as a 500.
                self._respond(400, f"bad query: {exc}\n", "text/plain")
                return
            self._respond(
                200,
                json.dumps(result, separators=(",", ":")),
                "application/json",
            )

        def _probe(self, check: Callable[[], bool], yes: str, no: str) -> None:
            if check():
                self._respond(200, yes, "text/plain")
            else:
                self._respond(503, no, "text/plain")

        def _respond(self, status: int, body: str, content_type: str) -> None:
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, format: str, *args: object) -> None:
            pass  # scrapes every few seconds would flood stderr

    return Handler
