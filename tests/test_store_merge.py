"""Unit tests for the shared merge helper (:mod:`repro.store.merge`).

This is the one code path both single-store re-aggregation and the fleet's
federated merge run through, so its arithmetic is pinned down here record
by record.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.windows import MediaWindowStats, WindowRecord
from repro.store import StoreQuery, window_record
from repro.store.merge import (
    IDENTITY_KEYS,
    canonical_key,
    canonical_sorted,
    merge_media_entries,
    project_record,
    reaggregate_windows,
    shape_records,
)


def _window(index: int, *, packets=100, fps=24.0, media_packets=45) -> dict:
    return {
        "kind": "window",
        "window": index,
        "start": index * 10.0,
        "end": (index + 1) * 10.0,
        "packets_total": packets,
        "bytes_total": packets * 100,
        "zoom_packets": packets - 10,
        "meetings_formed": 1,
        "meetings_active": index % 3,
        "streams_evicted": 0,
        "forced": False,
        "media": [
            {
                "media": "video",
                "packets": media_packets,
                "bytes": media_packets * 100,
                "bitrate_bps": media_packets * 80.0,
                "streams": 1,
                "streams_opened": 0,
                "p2p_packets": 0,
                "mean_fps": fps,
                "mean_jitter_ms": 2.0,
                "lost": 1,
                "duplicates": 0,
            }
        ],
    }


class TestCanonicalKey:
    def test_orders_by_start_then_kind(self):
        records = [
            {"kind": "window", "start": 10.0},
            {"kind": "meeting", "start": 10.0},
            {"kind": "window", "start": 0.0},
        ]
        ordered = sorted(records, key=canonical_key)
        assert [r["start"] for r in ordered] == [0.0, 10.0, 10.0]
        assert [r["kind"] for r in ordered][1:] == ["meeting", "window"]

    def test_content_breaks_ties_deterministically(self):
        a = {"kind": "window", "start": 5.0, "packets_total": 1}
        b = {"kind": "window", "start": 5.0, "packets_total": 2}
        assert sorted([a, b], key=canonical_key) == sorted(
            [b, a], key=canonical_key
        )

    # Forced (start, kind) ties: 0 == 0.0 == -0.0 == a missing start.
    _tied = st.fixed_dictionaries(
        {"kind": st.sampled_from(["window", "meeting"])},
        optional={"start": st.sampled_from([0, 0.0, -0.0, 2.5]), "packets": st.integers(0, 2)},
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_tied, max_size=30))
    def test_canonical_sorted_is_sorting_by_canonical_key(self, records):
        # Compared by identity: 0.0 == -0.0 would hide a misordered tie.
        expected = [id(r) for r in sorted(records, key=canonical_key)]
        assert [id(r) for r in canonical_sorted(records)] == expected


class TestReaggregateWindows:
    def test_counting_fields_sum_exactly(self):
        windows = [_window(i) for i in range(6)]  # 0..60 s
        merged = reaggregate_windows(windows, 30.0)
        assert [w["window"] for w in merged] == [0, 1]
        assert all(w["windows_merged"] == 3 for w in merged)
        total = sum(w["packets_total"] for w in merged)
        assert total == sum(w["packets_total"] for w in windows)

    def test_meetings_active_takes_bucket_max(self):
        merged = reaggregate_windows([_window(i) for i in range(3)], 30.0)
        assert merged[0]["meetings_active"] == 2  # max(0, 1, 2)

    def test_bucket_boundaries_are_tumbling(self):
        merged = reaggregate_windows([_window(2), _window(3)], 30.0)
        assert [(w["start"], w["end"]) for w in merged] == [
            (0.0, 30.0),
            (30.0, 60.0),
        ]

    def test_forced_propagates(self):
        windows = [_window(0), _window(1)]
        windows[1]["forced"] = True
        assert reaggregate_windows(windows, 30.0)[0]["forced"] is True

    def test_input_order_does_not_matter(self):
        windows = [_window(i, packets=100 + i, fps=20.0 + i) for i in range(9)]
        forward = reaggregate_windows(list(windows), 30.0)
        backward = reaggregate_windows(list(reversed(windows)), 30.0)
        assert forward == backward


class TestMergeMediaEntries:
    def test_packet_weighted_mean(self):
        group = [
            _window(0, fps=30.0, media_packets=90),
            _window(1, fps=10.0, media_packets=10),
        ]
        [entry] = merge_media_entries(group, 20.0)
        assert entry["packets"] == 100
        assert entry["mean_fps"] == 28.0  # (30*90 + 10*10) / 100

    def test_weight_floor_keeps_packetless_samples(self):
        group = [_window(0, fps=30.0, media_packets=0)]
        [entry] = merge_media_entries(group, 10.0)
        assert entry["mean_fps"] == 30.0

    def test_absent_quality_values_stay_none(self):
        window = _window(0)
        window["media"][0]["mean_fps"] = None
        [entry] = merge_media_entries([window], 10.0)
        assert entry["mean_fps"] is None

    def test_streams_is_census_not_sum(self):
        a, b = _window(0), _window(1)
        a["media"][0]["streams"] = 3
        b["media"][0]["streams"] = 2
        [entry] = merge_media_entries([a, b], 20.0)
        assert entry["streams"] == 3

    def test_media_types_sorted_by_name(self):
        a = _window(0)
        a["media"].append(dict(a["media"][0], media="audio"))
        [first, second] = merge_media_entries([a], 10.0)
        assert (first["media"], second["media"]) == ("audio", "video")


class TestShapeRecords:
    def test_sorts_canonically_without_reaggregation(self):
        records = [_window(2), _window(0), _window(1)]
        shaped = shape_records(records, StoreQuery())
        assert [r["window"] for r in shaped] == [0, 1, 2]

    def test_reaggregates_only_windows(self):
        meeting = {
            "kind": "meeting",
            "start": 5.0,
            "end": 25.0,
            "meeting_id": 1,
            "streams": 2,
            "participants": 2,
        }
        shaped = shape_records(
            [_window(0), _window(1), meeting],
            StoreQuery(kinds=("window", "meeting"), reaggregate_seconds=30.0),
        )
        kinds = [r["kind"] for r in shaped]
        assert kinds == ["window", "meeting"]
        assert shaped[0]["windows_merged"] == 2

    def test_input_not_mutated(self):
        records = [_window(1), _window(0)]
        snapshot = [dict(r) for r in records]
        shape_records(records, StoreQuery(reaggregate_seconds=30.0))
        assert records == snapshot


class TestProjectRecord:
    def test_identity_keys_always_survive(self):
        projected = project_record(_window(0), ("packets_total",))
        for key in IDENTITY_KEYS:
            assert key in projected
        assert projected["packets_total"] == 100
        assert "zoom_packets" not in projected

    def test_media_entries_kept_only_for_per_media_metrics(self):
        with_media = project_record(_window(0), ("mean_fps",))
        assert with_media["media"] == [{"media": "video", "mean_fps": 24.0}]
        without = project_record(_window(0), ("packets_total",))
        assert "media" not in without


# ---------------------------------------------------------------- the schema

_counts = st.integers(min_value=0, max_value=10**9)
_quality = st.one_of(
    st.just(float("nan")), st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
)


def _stream_keys(ssrcs):
    return {(("10.0.0.1", 50000, "170.114.0.1", 8801, 17), ssrc) for ssrc in ssrcs}


_media_stats = st.builds(
    MediaWindowStats,
    media_type=st.just(0),  # overwritten with the dict key below
    packets=_counts,
    bytes=_counts,
    streams_opened=_counts,
    stream_keys=st.sets(st.integers(0, 40), max_size=6).map(_stream_keys),
    p2p_packets=_counts,
    mean_fps=_quality,
    mean_jitter_ms=_quality,
    lost=_counts,
    duplicates=_counts,
)


@st.composite
def _live_windows(draw, width: int, index=st.integers(0, 10**6)):
    """Any closed window the live aggregator could hand to ``to_dict``."""
    i = draw(index)
    media = draw(st.dictionaries(st.sampled_from([13, 15, 16, 42]), _media_stats))
    for media_type, stats in media.items():
        stats.media_type = media_type
    return WindowRecord(
        index=i,
        start=i * float(width),
        end=(i + 1) * float(width),
        packets_total=draw(_counts),
        bytes_total=draw(_counts),
        zoom_packets=draw(_counts),
        meetings_formed=draw(_counts),
        meetings_active=draw(_counts),
        streams_evicted=draw(_counts),
        forced=draw(st.booleans()),
        media=media,
    )


_widths = st.integers(min_value=1, max_value=60)


class TestWindowSchema:
    """One declaration drives the live record *and* its merge: whatever
    ``WindowRecord.to_dict`` emits, re-aggregation carries through."""

    @settings(max_examples=200, deadline=None)
    @given(window=_widths.flatmap(_live_windows))
    def test_single_window_at_its_own_width_is_the_identity(self, window):
        record = window_record(window)
        [merged] = reaggregate_windows([record], window.width)
        # The live record lists media by type number, the merge by name.
        live_media = {entry["media"]: entry for entry in record.pop("media")}
        merged_media = {entry["media"]: entry for entry in merged.pop("media")}
        assert merged == {**record, "windows_merged": 1}
        assert merged_media == live_media

    @settings(max_examples=100, deadline=None)
    @given(
        windows=_widths.flatmap(
            lambda width: st.lists(
                _live_windows(width, index=st.integers(0, 40)),
                max_size=8,
                unique_by=lambda w: w.index,
            )
        ),
        factor=st.integers(min_value=1, max_value=5),
    )
    def test_reaggregation_is_idempotent_at_a_fixed_width(self, windows, factor):
        coarse = (windows[0].width if windows else 1.0) * factor
        once = reaggregate_windows([window_record(w) for w in windows], coarse)
        twice = reaggregate_windows(once, coarse)
        assert all(w["windows_merged"] == 1 for w in twice)
        assert [dict(w, windows_merged=1) for w in once] == twice
