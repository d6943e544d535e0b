#!/usr/bin/env python
"""CI smoke test for the persistent metrics store.

Exercises the ISSUE's acceptance path end to end, the way a measurement
campaign actually fails:

1. run ``analyze-live --store`` over a capture directory and **SIGKILL**
   the daemon mid-run — no drain, no manifest courtesy write,
2. reopen the store: it must open cleanly, the sealed windows must come
   back exactly once each, and recovery may discard at most the torn tail
   frame of each active segment,
3. run a clean campaign over the same capture, then check the queried
   window totals against the batch analyzer and walk the operator CLI:
   ``query`` (table + JSON), ``compact``, and ``backfill`` from the JSONL
   log into a fresh store.  Before and after ``compact``, every meeting's
   query must equal its full-scan answer without opening more segments.

Run from the repository root::

    PYTHONPATH=src python scripts/store_smoke.py

Exits non-zero on the first failed check; CI wraps it in a job timeout.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import AnalyzerConfig, ZoomAnalyzer  # noqa: E402
from repro.net.pcap import write_pcap  # noqa: E402
from repro.simulation import MeetingConfig, MeetingSimulator, ParticipantConfig  # noqa: E402
from repro.store import MetricsStore, StoreQuery  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

WINDOW = 5.0


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"ok: {message}")


def daemon_command(directory: Path, store: Path, jsonl: Path | None, *extra: str) -> list[str]:
    command = [
        sys.executable, "-m", "repro.cli", "analyze-live", str(directory),
        "--window", str(WINDOW), "--lateness", "1",
        "--poll-interval", "0.2",
        "--store", str(store),
    ]
    if jsonl is not None:
        command += ["--jsonl-out", str(jsonl)]
    return command + list(extra)


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def check_meeting_plans(store_dir: Path, when: str) -> None:
    """Every meeting's windows and streams: the indexed answer equals the
    full scan's, and the plan opens no more segments than the scan."""
    store = MetricsStore(store_dir)
    meetings = sorted(
        {r["meeting_id"] for r in store.query(StoreQuery(kinds=("meeting",))).records}
    )
    planned = scanned = 0
    for meeting_id in meetings:
        query = StoreQuery(kinds=("window", "stream"), meeting_id=meeting_id)
        indexed = store.query(query)
        full = store.query(replace(query, use_index=False))
        if indexed.records != full.records:
            fail(f"meeting {meeting_id} {when} compaction: indexed answer != full scan")
        planned += indexed.segments_scanned
        scanned += full.segments_scanned
    check(
        bool(meetings) and planned <= scanned,
        f"{len(meetings)} meeting queries {when} compaction equal the full scan "
        f"and open {planned} <= {scanned} segments",
    )


def main() -> int:
    config = MeetingConfig(
        meeting_id="store-smoke",
        participants=(
            ParticipantConfig(name="alice", on_campus=True),
            ParticipantConfig(name="bob", on_campus=True, join_time=1.0),
        ),
        duration=20.0,
        allow_p2p=False,
        seed=7,
    )
    captures = list(MeetingSimulator(config).run().captures)
    print(f"simulated {len(captures)} packets")

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "caps"
        directory.mkdir()
        third = len(captures) // 3
        write_pcap(directory / "zoom-00.pcap", captures[:third])
        write_pcap(directory / "zoom-01.pcap", captures[third : 2 * third])
        write_pcap(directory / "zoom-02.pcap", captures[2 * third :])

        # ---- phase 1: SIGKILL mid-run --------------------------------
        killed_store = Path(tmp) / "killed-store"
        daemon = subprocess.Popen(
            daemon_command(directory, killed_store, None),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if any(killed_store.glob("*.seg*")):
                    break  # the store has started writing
                if daemon.poll() is not None:
                    fail("daemon exited before writing to the store")
                time.sleep(0.1)
            else:
                fail("store never received a segment file")
            time.sleep(1.0)  # let a few windows land
            daemon.send_signal(signal.SIGKILL)
            daemon.communicate(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()
        check(daemon.returncode == -signal.SIGKILL, "daemon died by SIGKILL")

        telemetry = Telemetry()
        survivor = MetricsStore(killed_store, telemetry=telemetry)
        result = survivor.query(StoreQuery())
        indices = [w["window"] for w in result.records]
        check(
            len(indices) == len(set(indices)),
            f"reopened store holds {len(indices)} windows, no duplicates",
        )
        torn = telemetry.counter("store.torn_frames")
        actives = len(survivor.active_partitions())
        check(
            torn <= max(actives, 1),
            f"at most one torn frame per active segment ({torn} torn)",
        )
        survivor.close()

        # ---- phase 2: clean campaign + operator CLI ------------------
        store_dir = Path(tmp) / "store"
        jsonl_path = Path(tmp) / "windows.jsonl"
        clean = subprocess.run(
            daemon_command(directory, store_dir, jsonl_path, "--max-polls", "2"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        check(clean.returncode == 0, "clean campaign exited 0")

        batch = ZoomAnalyzer(AnalyzerConfig()).analyze(captures)
        windows = MetricsStore(store_dir).query(StoreQuery()).records
        total = sum(w["packets_total"] for w in windows)
        check(
            total == batch.packets_total,
            f"queried window totals match the batch analyzer ({total})",
        )
        check_meeting_plans(store_dir, "before")

        shown = cli("query", str(store_dir), "--format", "table")
        check(
            shown.returncode == 0 and "packets_total" in shown.stdout,
            "repro query renders the window table",
        )
        as_json = cli("query", str(store_dir), "--kind", "stream", "--format", "json")
        streams = [json.loads(line) for line in as_json.stdout.splitlines()]
        check(
            as_json.returncode == 0
            and len(streams) == len(batch.media_streams()),
            f"repro query returns all {len(streams)} stream records",
        )
        compacted = cli("compact", str(store_dir))
        check(
            compacted.returncode == 0 and "compacted" in compacted.stdout,
            "repro compact runs maintenance",
        )
        check_meeting_plans(store_dir, "after")

        backfill_dir = Path(tmp) / "backfilled"
        refilled = cli("backfill", str(backfill_dir), str(jsonl_path))
        check(refilled.returncode == 0, "repro backfill ingests the JSONL log")
        refill_windows = MetricsStore(backfill_dir).query(StoreQuery()).records
        check(
            sum(w["packets_total"] for w in refill_windows) == batch.packets_total,
            "backfilled store reproduces the batch totals",
        )
    print("store smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
