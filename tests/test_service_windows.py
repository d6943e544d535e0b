"""Window aggregator tests: watermark lifecycle and batch equivalence."""

import json
import math

import pytest

from repro.core import AnalyzerConfig, ZoomAnalyzer
from repro.core.windows import TumblingWindows
from repro.net.batch import FrameBatchBuilder
from repro.service.windows import WindowAggregator, media_name
from repro.telemetry.registry import Telemetry
from repro.zoom.constants import ZoomMediaType

from tests.golden_utils import (
    SERVICE_WINDOWS_GOLDEN_PATH,
    load_snapshot,
    run_service_windows,
    summarize_service_windows,
)


def _aggregator(**kwargs):
    """Aggregator over a fresh rolling analyzer, plus its closed-window list."""
    rolling = ZoomAnalyzer(AnalyzerConfig(rolling=True))
    closed = []
    aggregator = WindowAggregator(rolling, on_window=(closed.append,), **kwargs)
    return aggregator, closed


def _ingest_one(aggregator, timestamp, size=100):
    """One non-Zoom frame of ``size`` bytes at ``timestamp``, as a batch."""
    builder = FrameBatchBuilder()
    builder.append(bytes(size), timestamp)
    aggregator.ingest(builder.build())


class TestWindowLifecycle:
    def test_tumbling_boundaries_close_in_order(self):
        aggregator, closed = _aggregator(window_seconds=10.0, lateness=0.0)
        for timestamp in (1.0, 11.0, 21.0):
            _ingest_one(aggregator, timestamp)
        assert [w.index for w in closed] == [0, 1]
        assert all(w.packets_total == 1 for w in closed)
        assert closed[0].start == 0.0 and closed[0].end == 10.0
        assert aggregator.open_window_count() == 1  # window 2 still open

    def test_lateness_holds_window_open(self):
        aggregator, closed = _aggregator(window_seconds=10.0, lateness=5.0)
        _ingest_one(aggregator, 2.0)
        _ingest_one(aggregator, 12.0)  # watermark 7 < 10: hold
        assert closed == []
        assert aggregator.open_window_count() == 2
        _ingest_one(aggregator, 16.0)  # watermark 11 >= 10: close
        assert [w.index for w in closed] == [0]
        assert closed[0].packets_total == 1

    def test_late_event_dropped_and_counted(self):
        telemetry = Telemetry()
        rolling = ZoomAnalyzer(AnalyzerConfig(rolling=True))
        closed = []
        aggregator = WindowAggregator(
            rolling,
            window_seconds=10.0,
            lateness=5.0,
            on_window=(closed.append,),
            telemetry=telemetry,
        )
        _ingest_one(aggregator, 1.0)
        _ingest_one(aggregator, 16.0)  # closes window 0
        assert [w.index for w in closed] == [0]
        _ingest_one(aggregator, 2.0)  # belongs to the closed window
        assert aggregator.late_events == 1
        assert telemetry.counter("service.late_events") == 1
        assert closed[0].packets_total == 1  # the record did not mutate

    def test_exact_boundary_event_is_not_late(self):
        aggregator, closed = _aggregator(window_seconds=10.0, lateness=0.0)
        _ingest_one(aggregator, 5.0)
        _ingest_one(aggregator, 10.0)  # watermark hits 10 exactly
        assert aggregator.late_events == 0
        assert [w.index for w in closed] == [0]
        final = aggregator.flush(final=True)
        assert [w.index for w in final] == [1]
        assert final[0].packets_total == 1

    def test_open_window_cap_forces_oldest_closed(self):
        telemetry = Telemetry()
        rolling = ZoomAnalyzer(AnalyzerConfig(rolling=True))
        closed = []
        aggregator = WindowAggregator(
            rolling,
            window_seconds=10.0,
            lateness=1000.0,  # the watermark never closes anything
            max_open_windows=2,
            on_window=(closed.append,),
            telemetry=telemetry,
        )
        for timestamp in (5.0, 15.0, 25.0):
            _ingest_one(aggregator, timestamp)
        assert [w.index for w in closed] == [0]
        assert closed[0].forced is True
        assert telemetry.counter("service.windows_forced") == 1
        assert aggregator.open_window_count() == 2

    def test_final_flush_is_idempotent(self):
        aggregator, closed = _aggregator(window_seconds=10.0, lateness=5.0)
        _ingest_one(aggregator, 3.0)
        _ingest_one(aggregator, 14.0)
        first = aggregator.flush(final=True)
        assert [w.index for w in first] == [0, 1]
        assert aggregator.flush(final=True) == []
        assert aggregator.windows_emitted == 2
        assert len(closed) == 2

    def test_rejects_nonpositive_window(self):
        rolling = ZoomAnalyzer(AnalyzerConfig(rolling=True))
        with pytest.raises(ValueError, match="window_seconds"):
            WindowAggregator(rolling, window_seconds=0.0)


class TestTumblingWindows:
    """The shared clock, where the aggregator's own cases cannot reach."""

    @staticmethod
    def _windows(**kwargs):
        closed = []
        windows = TumblingWindows(
            1.0,
            0.5,
            lambda index: [],
            lambda index, acc, forced: closed.append((index, acc, forced)),
            **kwargs,
        )
        return windows, closed

    def test_cap_force_closes_oldest_of_any_accumulator(self):
        windows, closed = self._windows(max_open=2)
        for timestamp in (4.2, 0.2, 2.2):  # never advanced: nothing is late
            windows.slot(timestamp).append(timestamp)
        assert closed == [(0, [0.2], True)]
        assert len(windows) == 2
        assert windows.flush() == []  # the watermark has not moved
        assert windows.flush(final=True) == [[2.2], [4.2]]
        assert closed[1:] == [(2, [2.2], False), (4, [4.2], False)]

    def test_final_flush_is_idempotent_then_everything_is_late(self):
        windows, closed = self._windows()
        windows.slot(0.2).append("a")
        windows.advance(0.2)
        assert windows.flush(final=True) == [["a"]]
        assert windows.flush(final=True) == []
        assert windows.slot(0.3) is None and windows.slot(1e9) is None
        windows.advance(1e9)
        assert len(windows) == 0 and len(closed) == 1


class TestBatchEquivalence:
    """Summed over all windows, counting metrics reproduce the batch run."""

    @pytest.fixture(scope="class")
    def windows_and_batch(self, sfu_meeting_result):
        captures = sfu_meeting_result.captures
        closed, rolling = run_service_windows(captures)
        batch = ZoomAnalyzer(AnalyzerConfig(telemetry=True)).analyze(captures)
        return closed, batch, rolling

    def test_matches_snapshot(self, windows_and_batch):
        """Every window record and ``service.*`` counter, pinned; regenerate
        with ``PYTHONPATH=src python tests/regen_golden.py``."""
        windows, _, rolling = windows_and_batch
        summary = json.loads(json.dumps(summarize_service_windows(windows, rolling)))
        assert summary == load_snapshot(SERVICE_WINDOWS_GOLDEN_PATH)

    def test_packet_and_byte_totals_match(self, windows_and_batch, sfu_meeting_result):
        windows, batch, _ = windows_and_batch
        captures = sfu_meeting_result.captures
        assert sum(w.packets_total for w in windows) == len(captures)
        assert sum(w.packets_total for w in windows) == batch.packets_total
        assert sum(w.bytes_total for w in windows) == sum(
            len(c.data) for c in captures
        )

    def test_stream_counts_match(self, windows_and_batch):
        windows, batch, rolling = windows_and_batch
        opened = sum(
            stats.streams_opened for w in windows for stats in w.media.values()
        )
        assert opened == len(batch.media_streams())
        assert sum(w.streams_evicted for w in windows) == rolling.eviction.streams_evicted
        assert rolling.eviction.streams_evicted == len(batch.media_streams())

    def test_per_media_bytes_match_exactly(self, windows_and_batch):
        windows, batch, _ = windows_and_batch
        window_bytes: dict[int, int] = {}
        for window in windows:
            for media_type, stats in window.media.items():
                window_bytes[media_type] = window_bytes.get(media_type, 0) + stats.bytes
        batch_bytes: dict[int, int] = {}
        for stream in batch.media_streams():
            batch_bytes[stream.media_type] = (
                batch_bytes.get(stream.media_type, 0) + stream.bytes
            )
        assert window_bytes == batch_bytes

    def test_meeting_formations_match_batch_counter(self, windows_and_batch):
        windows, batch, _ = windows_and_batch
        formed = sum(w.meetings_formed for w in windows)
        # The grouper can merge meetings after forming them, so the event
        # count is compared against the batch *event counter*, not the
        # post-merge meeting list.
        assert formed == batch.telemetry.counter("assemble.meetings_formed")
        assert formed >= len(batch.meetings)

    def test_quality_fill_present_for_active_media(self, windows_and_batch):
        windows, _, _ = windows_and_batch
        busy = [
            w for w in windows if int(ZoomMediaType.VIDEO) in w.media and w.zoom_packets
        ]
        assert busy
        middle = busy[len(busy) // 2]
        video = middle.media[int(ZoomMediaType.VIDEO)]
        assert video.bitrate_bps(middle.width) > 0
        assert not math.isnan(video.mean_fps)
        assert not math.isnan(video.mean_jitter_ms)
        assert middle.meetings_active == 1

    def test_records_serialize_to_json(self, windows_and_batch):
        windows, _, _ = windows_and_batch
        for window in windows:
            payload = json.loads(json.dumps(window.to_dict()))
            assert payload["window"] == window.index
            assert payload["end"] - payload["start"] == pytest.approx(5.0)
            for media in payload["media"]:
                assert media["media"] in {"audio", "video", "screen"}

    def test_media_name_labels(self):
        assert media_name(int(ZoomMediaType.AUDIO)) == "audio"
        assert media_name(int(ZoomMediaType.VIDEO)) == "video"
        assert media_name(int(ZoomMediaType.SCREEN_SHARE)) == "screen"
        assert media_name(42) == "type42"
