"""Query-engine tests: planning, filters, re-aggregation, flat output."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StoreConfig
from repro.store import MetricsStore, StoreQuery, flatten_records, reaggregate_windows


def _window(index: int, *, media=("video",)) -> dict:
    return {
        "kind": "window",
        "window": index,
        "start": index * 10.0,
        "end": (index + 1) * 10.0,
        "packets_total": 100,
        "bytes_total": 10_000,
        "zoom_packets": 90,
        "meetings_formed": 0,
        "meetings_active": 1,
        "streams_evicted": 0,
        "forced": False,
        "media": [
            {
                "media": name,
                "packets": 45,
                "bytes": 4_500,
                "bitrate_bps": 3600.0,
                "streams": 1,
                "streams_opened": 0,
                "p2p_packets": 0,
                "mean_fps": 24.0,
                "mean_jitter_ms": 2.0,
                "lost": 1,
                "duplicates": 0,
            }
            for name in media
        ],
    }


def _stream(start: float, *, media: str = "video") -> dict:
    return {
        "kind": "stream",
        "start": start,
        "end": start + 30.0,
        "ssrc": 0x1234,
        "media": media,
        "packets": 500,
        "bytes": 50_000,
    }


def _meeting(meeting_id: int, start: float, end: float) -> dict:
    return {
        "kind": "meeting",
        "start": start,
        "end": end,
        "meeting_id": meeting_id,
        "streams": 4,
        "participants": 3,
    }


@pytest.fixture()
def populated(tmp_path):
    """Partitions 0/2/5 populated; one meeting confined to partition 0."""
    store = MetricsStore(
        tmp_path, StoreConfig(partition_seconds=100.0, seal_records=16)
    )
    for i in range(8):  # partition 0: 0..80 s
        store.append(_window(i))
    store.append(_meeting(7, 0.0, 60.0))
    store.append(_stream(5.0))
    store.append(_stream(15.0, media="audio"))
    for i in range(20, 28):  # partition 2: 200..280 s
        store.append(_window(i, media=("audio",)))
    for i in range(50, 58):  # partition 5: 500..580 s
        store.append(_window(i))
    store.close()
    return store


_KINDS = ("window", "stream", "meeting")
_MEDIA = st.sampled_from(("audio", "video", "screen"))
#: Record and query bounds share one 10 s grid, so ranges touch at the ends.
_GRID = st.integers(0, 6).map(lambda i: i * 10.0)


@st.composite
def _any_record(draw) -> dict:
    start, kind = draw(_GRID), draw(st.sampled_from(_KINDS))
    if kind == "window":
        return _window(int(start // 10), media=draw(st.sets(_MEDIA, max_size=2).map(sorted)))
    end = start + 10.0 * draw(st.integers(0, 2))
    if kind == "stream":
        return dict(_stream(start, media=draw(_MEDIA)), end=end)
    return _meeting(draw(st.integers(0, 3)), start, end)  # ids repeat: several spans


_any_query = st.builds(
    StoreQuery,
    start=st.none() | _GRID,
    end=st.none() | _GRID,
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3, unique=True).map(tuple),
    meeting_id=st.none() | st.integers(0, 4),
    media=st.none() | _MEDIA,
    meeting_spans=st.none() | st.lists(st.tuples(_GRID, _GRID), max_size=2).map(tuple),
)


class TestPlanning:
    def test_time_range_skips_non_overlapping_segments(self, populated):
        result = populated.query(StoreQuery(start=200.0, end=290.0))
        assert [r["window"] for r in result.records] == list(range(20, 28))
        assert result.segments_skipped >= 2  # partitions 0 and 5 pruned
        assert result.segments_scanned >= 1

    def test_index_and_full_scan_agree(self, populated):
        query = StoreQuery(start=500.0, kinds=("window",))
        indexed = populated.query(query)
        scanned = populated.query(
            StoreQuery(start=500.0, kinds=("window",), use_index=False)
        )
        assert indexed.records == scanned.records
        assert scanned.segments_skipped == 0
        assert scanned.records_examined > indexed.records_examined

    def test_kind_pruning(self, populated):
        result = populated.query(StoreQuery(kinds=("meeting",)))
        assert [r["meeting_id"] for r in result.records] == [7]

    def test_media_pruning_skips_segments_without_that_media(self, populated):
        result = populated.query(StoreQuery(media="screen"))
        assert result.records == []
        assert result.segments_scanned == 0  # every footer excludes "screen"

    # One sealed segment per partition (0, 2, 5); partition 0 holds meeting
    # 7 (0..60 s) and ends at 80 s.
    @pytest.mark.parametrize(
        "query, plan",
        [
            (StoreQuery(meeting_id=7), (2, 4)),  # partition 0 in each pass
            (StoreQuery(meeting_spans=((0.0, 60.0),)), (1, 2)),
            (StoreQuery(kinds=("meeting", "window"), meeting_id=7), (2, 4)),
            (StoreQuery(start=80.0), (3, 0)),  # bounds that touch still overlap
            (StoreQuery(meeting_spans=((80.0, 90.0),)), (1, 2)),
            (StoreQuery(kinds=("meeting", "window"), media="screen"), (1, 2)),  # no media prune
        ],
    )
    def test_plans_open_only_segments_that_can_match(self, populated, query, plan):
        result = populated.query(query)
        assert (result.segments_scanned, result.segments_skipped) == plan
        assert result.records == populated.query(replace(query, use_index=False)).records

    @settings(max_examples=100, deadline=None)
    @given(
        records=st.lists(_any_record(), max_size=40),
        leave_active=st.booleans(),
        queries=st.lists(_any_query, min_size=1, max_size=12),
    )
    def test_indexed_equals_full_scan(self, records, leave_active, queries, tmp_path_factory):
        config = StoreConfig(partition_seconds=20.0, seal_records=3)
        store = MetricsStore(tmp_path_factory.mktemp("plan"), config)
        for record in records:  # drawn order: partitions are revisited
            store.append(record)
        if not leave_active:
            store.close()
        for query in queries:
            full_scan = replace(query, use_index=False)
            assert store.query(query).records == store.query(full_scan).records


class TestFilters:
    def test_media_filter_thins_window_entries(self, populated):
        result = populated.query(StoreQuery(media="audio"))
        assert [r["window"] for r in result.records] == list(range(20, 28))
        for record in result.records:
            assert [entry["media"] for entry in record["media"]] == ["audio"]

    def test_media_filter_on_streams(self, populated):
        result = populated.query(StoreQuery(kinds=("stream",), media="audio"))
        assert len(result.records) == 1
        assert result.records[0]["start"] == 15.0

    def test_meeting_query_selects_overlapping_windows(self, populated):
        result = populated.query(StoreQuery(meeting_id=7))
        # Meeting 7 spans 0..60 s: windows 0..5 overlap; window 6 starts
        # exactly at the span's (half-open) end and is excluded.
        indices = [r["window"] for r in result.records]
        assert indices == list(range(6))

    def test_unknown_meeting_matches_nothing(self, populated):
        result = populated.query(StoreQuery(meeting_id=999))
        assert result.records == []

    def test_metric_projection_keeps_identity(self, populated):
        result = populated.query(
            StoreQuery(start=0.0, end=10.0, metrics=("packets_total",))
        )
        assert result.records
        for record in result.records:
            assert set(record) == {
                "kind",
                "window",
                "start",
                "end",
                "packets_total",
            }


class TestReaggregation:
    def test_counts_sum_and_census_maxes(self):
        windows = [_window(i) for i in range(6)]
        windows[3]["meetings_active"] = 4
        merged = reaggregate_windows(windows, 30.0)
        assert len(merged) == 2
        assert [m["packets_total"] for m in merged] == [300, 300]
        assert merged[1]["meetings_active"] == 4
        assert all(m["windows_merged"] == 3 for m in merged)

    def test_media_entries_merge_with_weighted_means(self):
        windows = [_window(0), _window(1)]
        windows[0]["media"][0]["mean_fps"] = 30.0
        windows[0]["media"][0]["packets"] = 300
        windows[1]["media"][0]["mean_fps"] = 10.0
        windows[1]["media"][0]["packets"] = 100
        merged = reaggregate_windows(windows, 20.0)
        (entry,) = merged[0]["media"]
        assert entry["packets"] == 400
        assert entry["mean_fps"] == 25.0  # (30*300 + 10*100) / 400

    def test_none_quality_values_stay_none(self):
        windows = [_window(0)]
        windows[0]["media"][0]["mean_fps"] = None
        merged = reaggregate_windows(windows, 10.0)
        assert merged[0]["media"][0]["mean_fps"] is None

    def test_query_level_reaggregation(self, populated):
        fine = populated.query(StoreQuery(start=0.0, end=80.0))
        coarse = populated.query(
            StoreQuery(start=0.0, end=80.0, reaggregate_seconds=40.0)
        )
        assert sum(w["packets_total"] for w in coarse.records) == sum(
            w["packets_total"] for w in fine.records
        )
        assert len(coarse.records) < len(fine.records)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            StoreQuery(reaggregate_seconds=0.0)


class TestFlattening:
    def test_windows_flatten_one_row_per_media_entry(self):
        columns, rows = flatten_records(
            [_window(0, media=("video", "audio")), _window(1)]
        )
        assert columns[0] == "window"
        assert len(rows) == 3
        assert [row["media"] for row in rows] == ["video", "audio", "video"]

    def test_mixed_kinds_get_kind_column(self):
        columns, rows = flatten_records([_window(0), _meeting(7, 0.0, 60.0)])
        assert columns[0] == "kind"
        assert {row["kind"] for row in rows} == {"window", "meeting"}

    def test_single_kind_omits_kind_column(self):
        columns, rows = flatten_records([_meeting(7, 0.0, 60.0)])
        assert "kind" not in columns
        assert all("kind" not in row for row in rows)
