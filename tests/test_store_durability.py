"""Durability tests: torn-write recovery (property-based) and the
backfill round trip that pins store contents to the batch analyzer.

The crash-safety contract under test: *any* prefix truncation of an active
segment — the on-disk state a SIGKILL can leave at any byte boundary —
opens cleanly and loses at most the frame the truncation tore.
"""

import json
import os
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalyzerConfig, ServiceConfig, StoreConfig, ZoomAnalyzer
from repro.service.runner import ZoomMonitorService
from repro.store import MetricsStore, StoreQuery, backfill_jsonl
from repro.store.segment import SEGMENT_MAGIC, ActiveSegment, encode_frame
from tests.conftest import rotated_capture_dir


def _record(index: int) -> dict:
    return {
        "kind": "window",
        "window": index,
        "start": index * 10.0,
        "end": (index + 1) * 10.0,
        "packets_total": 100 + index,
        "media": [{"media": "video", "packets": 90, "bytes": 9000 + index}],
    }


class TestTornWriteRecovery:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), count=st.integers(min_value=1, max_value=8))
    def test_any_prefix_truncation_recovers_cleanly(self, data, count, tmp_path_factory):
        """Cut an active segment at an arbitrary byte and reopen: every
        frame wholly before the cut survives, everything after is exactly
        the torn tail — never a crash, never a corrupt record."""
        tmp_path = tmp_path_factory.mktemp("torn")
        path = tmp_path / "active-p0.seg"
        records = [_record(i) for i in range(count)]
        frame_ends = [len(SEGMENT_MAGIC)]
        payload = SEGMENT_MAGIC
        for record in records:
            payload += encode_frame(record)
            frame_ends.append(len(payload))
        cut = data.draw(st.integers(min_value=0, max_value=len(payload)))
        path.write_bytes(payload[:cut])

        recovered = ActiveSegment(path, 0)
        survivors = recovered.records_on_disk()
        intact = sum(1 for end in frame_ends[1:] if end <= cut)
        assert survivors == records[:intact]  # prefix, in order, undamaged
        assert recovered.meta.records == intact
        # A cut inside a frame (or inside the magic) reports truncation;
        # clean boundaries — including the empty file — do not.
        assert recovered.recovered_truncated == (cut not in (0, *frame_ends))
        # The file is valid again: appending resumes where recovery left off.
        recovered.append(_record(99))
        assert recovered.records_on_disk() == records[:intact] + [_record(99)]
        recovered.close()

    def test_reopened_store_counts_torn_frames(self, tmp_path):
        from repro.telemetry import Telemetry

        store = MetricsStore(
            tmp_path, StoreConfig(partition_seconds=1000.0, seal_records=100)
        )
        for i in range(3):
            store.append(_record(i))
        # SIGKILL mid-append: the last frame is half-written.
        active_path = tmp_path / "active-p0.seg"
        with open(active_path, "ab") as handle:
            handle.write(encode_frame(_record(3))[:9])
        telemetry = Telemetry()
        reopened = MetricsStore(tmp_path, telemetry=telemetry)
        assert telemetry.counter("store.torn_frames") == 1
        result = reopened.query(StoreQuery())
        assert [r["window"] for r in result.records] == [0, 1, 2]


class _Crash(Exception):
    """Stands in for a kill at one step of a seal or a compaction."""


def _replace_crashing_at(step: str):
    """``os.replace`` that dies at ``step``: right after a seal's hand-off of
    the active file, with the temp segment written but unpublished, or with a
    sealed or merged segment published but its inputs not yet removed."""
    real = os.replace

    def replace(src, dst):
        publishing = Path(src).name.endswith(".segz.tmp")
        if step == "tmp-written" and publishing:
            raise _Crash
        real(src, dst)
        if (step == "handoff" and Path(dst).name.startswith("seal-")) or (
            step in ("published", "compacted") and publishing
        ):
            raise _Crash

    return replace


def _unlink_then_crash(path, *, unlink=os.unlink):
    unlink(path)
    raise _Crash


class TestSealCrashWindow:
    @pytest.mark.parametrize(
        "step", ["handoff", "tmp-written", "published", "compacted", "input-unlinked"]
    )
    def test_reopen_neither_loses_nor_duplicates(self, step, tmp_path, monkeypatch):
        """A kill in a seal, or in compacting four sealed segments once the
        merged one is published (before or after its first input goes)."""
        config = StoreConfig(partition_seconds=1000.0, seal_records=5)
        store = MetricsStore(tmp_path, config)
        compaction = step in ("compacted", "input-unlinked")
        for i in range(20 if compaction else 5):  # clean seals first
            store.append(_record(i))
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", _replace_crashing_at(step))
            if step == "input-unlinked":
                patch.setattr(os, "unlink", _unlink_then_crash)
            with pytest.raises(_Crash):
                if compaction:
                    store.compact()
                else:
                    for i in range(5, 10):  # the fifth record seals
                        store.append(_record(i))
        (tmp_path / "manifest.json.tmp").write_text("{torn")  # an unpublished manifest
        count = 20 if compaction else 10
        reopened = MetricsStore(tmp_path, config)
        assert reopened.record_count() == count
        records = reopened.query(StoreQuery()).records
        assert sum(r["packets_total"] for r in records) == sum(100 + i for i in range(count))
        assert not [*tmp_path.glob("seal-*"), *tmp_path.glob("*.tmp")]
        # Sequence numbers stay unique after the roll forward.
        reopened.append(_record(count))
        reopened.close()
        windows = MetricsStore(tmp_path, config).query(StoreQuery()).records
        assert sorted(r["window"] for r in windows) == list(range(count + 1))


class TestQueryRacingMaintenance:
    def test_compaction_waits_for_a_planned_query(self, tmp_path, monkeypatch):
        """Compaction released once the query opens its first planned segment."""
        store = MetricsStore(tmp_path, StoreConfig(partition_seconds=1000.0, seal_records=4))
        for i in range(20):  # five sealed 4-record segments
            store.append(_record(i))
        opened, read = threading.Event(), store.iter_segment_records
        compactor = threading.Thread(target=lambda: opened.wait(5.0) and store.compact())

        def first_read_lets_compaction_run(info):
            if threading.current_thread() is not compactor and not opened.is_set():
                opened.set()
                compactor.join(timeout=0.5)  # blocked on the store lock
            return read(info)

        monkeypatch.setattr(store, "iter_segment_records", first_read_lets_compaction_run)
        compactor.start()
        records = store.query(StoreQuery()).records
        compactor.join(timeout=5.0)
        assert [r["window"] for r in records] == list(range(20))
        assert not compactor.is_alive() and len(store.segments()) == 1  # compacted afterwards


class TestBackfillRoundTrip:
    """PR 4 pinned JSONL-window sums to the batch analyzer; the store must
    preserve that equivalence through write → seal → backfill → query."""

    @pytest.fixture(scope="class")
    def campaign(self, sfu_meeting_result, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("store-e2e")
        captures = sfu_meeting_result.captures
        directory = rotated_capture_dir(tmp_path, captures)
        store_dir = tmp_path / "store"
        config = ServiceConfig(
            analyzer=AnalyzerConfig(
                rolling=True, rolling_idle_timeout=60.0, telemetry=True
            ),
            window_seconds=5.0,
            watermark_lateness=2.0,
            poll_interval=0.05,
            jsonl_path=str(tmp_path / "windows.jsonl"),
            store_dir=str(store_dir),
            store=StoreConfig(partition_seconds=10.0, seal_records=4),
        )
        service = ZoomMonitorService(directory, config)
        report = service.run(stop_after_polls=2)
        batch = ZoomAnalyzer(AnalyzerConfig(telemetry=True)).analyze(captures)
        return tmp_path, store_dir, report, batch

    def test_live_store_reproduces_batch_totals(self, campaign):
        _, store_dir, report, batch = campaign
        store = MetricsStore(store_dir)
        windows = store.query(StoreQuery()).records
        indices = [w["window"] for w in windows]
        assert len(indices) == len(set(indices))  # no duplicates
        assert len(windows) == report.windows_emitted
        assert sum(w["packets_total"] for w in windows) == batch.packets_total
        opened = sum(m["streams_opened"] for w in windows for m in w["media"])
        assert opened == len(batch.media_streams())

    def test_live_store_holds_streams_and_meetings(self, campaign):
        _, store_dir, report, batch = campaign
        store = MetricsStore(store_dir)
        streams = store.query(StoreQuery(kinds=("stream",))).records
        assert len(streams) == len(batch.media_streams())
        assert sum(s["packets"] for s in streams) == sum(
            s.packets for s in batch.media_streams()
        )
        meetings = store.query(StoreQuery(kinds=("meeting",))).records
        assert len(meetings) == len(batch.meetings)

    def test_store_windows_match_jsonl_log_exactly(self, campaign):
        """The store's window records are the JSONL lines plus the
        envelope — byte-interchangeable history."""
        tmp_path, store_dir, _, _ = campaign
        jsonl = [
            json.loads(line)
            for line in (tmp_path / "windows.jsonl").read_text().splitlines()
        ]
        stored = MetricsStore(store_dir).query(StoreQuery()).records
        stripped = [{k: v for k, v in r.items() if k != "kind"} for r in stored]
        assert stripped == sorted(jsonl, key=lambda w: w["start"])

    def test_backfilled_store_reproduces_batch_totals(self, campaign):
        tmp_path, _, _, batch = campaign
        fresh = tmp_path / "backfilled"
        with MetricsStore(
            fresh, StoreConfig(partition_seconds=10.0, seal_records=4)
        ) as store:
            backfill_report = backfill_jsonl(
                store, [tmp_path / "windows.jsonl"]
            )
        assert backfill_report.skipped_lines == 0
        windows = MetricsStore(fresh).query(StoreQuery()).records
        assert len(windows) == backfill_report.windows
        assert sum(w["packets_total"] for w in windows) == batch.packets_total
        opened = sum(m["streams_opened"] for w in windows for m in w["media"])
        assert opened == len(batch.media_streams())

    def test_indexed_query_skips_segments_on_backfilled_store(self, campaign):
        tmp_path, store_dir, _, _ = campaign
        store = MetricsStore(store_dir)
        full = store.query(StoreQuery())
        starts = sorted(float(w["start"]) for w in full.records)
        narrow = store.query(
            StoreQuery(start=starts[0], end=starts[0] + 5.0)
        )
        assert narrow.segments_skipped > 0
        assert narrow.records
