"""Federated query plane: bit-identity, degradation, dedup, manifests."""

import json

import pytest

from repro.core import FleetConfig, FleetNodeConfig, StoreConfig
from repro.fleet import (
    FederatedQuery,
    federated_query,
    load_fleet_manifest,
    meeting_fingerprint,
    save_fleet_manifest,
)
from repro.service.exporters import MetricsHTTPServer
from repro.store import MetricsStore, StoreQuery


def _window(index: int, *, media=("video",), packets=100, fps=24.0) -> dict:
    return {
        "kind": "window",
        "window": index,
        "start": index * 10.0,
        "end": (index + 1) * 10.0,
        "packets_total": packets,
        "bytes_total": packets * 100,
        "zoom_packets": packets - 10,
        "meetings_formed": 0,
        "meetings_active": 1,
        "streams_evicted": 0,
        "forced": False,
        "media": [
            {
                "media": name,
                "packets": packets // 2,
                "bytes": packets * 50,
                "bitrate_bps": packets * 40.0,
                "streams": 1,
                "streams_opened": 0,
                "p2p_packets": 0,
                "mean_fps": fps,
                "mean_jitter_ms": 2.0,
                "lost": 1,
                "duplicates": 0,
            }
            for name in media
        ],
    }


def _stream(start: float, *, ssrc=0x10, media: str = "video") -> dict:
    return {
        "kind": "stream",
        "start": start,
        "end": start + 30.0,
        "ssrc": ssrc,
        "media": media,
        "packets": 500,
        "bytes": 50_000,
    }


def _meeting(meeting_id: int, start: float, end: float, *, streams=4) -> dict:
    return {
        "kind": "meeting",
        "start": start,
        "end": end,
        "meeting_id": meeting_id,
        "streams": streams,
        "participants": 3,
    }


def _store(path, records) -> MetricsStore:
    store = MetricsStore(path, StoreConfig(partition_seconds=100.0))
    for record in records:
        store.append(record)
    store.close()
    return store


#: Three nodes' worth of records: interleaved windows, a stream, and a
#: meeting whose record and windows live on DIFFERENT nodes.
def _partitions():
    return [
        [_window(i, packets=100 + i) for i in range(0, 9, 3)]
        + [_meeting(1, 40.0, 70.0)],
        [_window(i, packets=100 + i) for i in range(1, 9, 3)]
        + [_stream(5.0)],
        [_window(i, packets=100 + i) for i in range(2, 9, 3)],
    ]


@pytest.fixture()
def fleet(tmp_path):
    parts = _partitions()
    nodes = []
    for i, records in enumerate(parts):
        _store(tmp_path / f"node-{i}", records)
        nodes.append(
            FleetNodeConfig(name=f"node-{i}", store_dir=str(tmp_path / f"node-{i}"))
        )
    return FleetConfig(nodes=tuple(nodes))


@pytest.fixture()
def union_store(tmp_path):
    return _store(tmp_path / "union", [r for part in _partitions() for r in part])


QUERIES = [
    StoreQuery(),
    StoreQuery(kinds=("window", "stream", "meeting")),
    StoreQuery(start=20.0, end=60.0),
    StoreQuery(reaggregate_seconds=30.0),
    StoreQuery(media="video", metrics=("packets_total", "mean_fps")),
    StoreQuery(meeting_id=1, kinds=("window",)),
    StoreQuery(meeting_id=1, kinds=("window", "stream", "meeting")),
    StoreQuery(use_index=False),
]


class TestBitIdentity:
    @pytest.mark.parametrize("query", QUERIES, ids=range(len(QUERIES)))
    def test_federated_equals_union_store(self, fleet, union_store, query):
        """The acceptance criterion: a federated query over partitioned
        stores is bit-identical to a single-store query over the union."""
        federated = federated_query(fleet, query)
        single = union_store.query(query)
        assert federated.records == single.records
        assert federated.nodes_missing == []

    def test_meeting_span_resolved_fleet_wide(self, fleet):
        """The meeting record lives on node-0; its windows are spread over
        all three nodes.  A meeting query must still find them."""
        result = federated_query(fleet, StoreQuery(meeting_id=1))
        # Span 40..70 touches windows 3..6 (the [start, end] overlap is
        # closed below, half-open above — same rule as a single store).
        assert [r["window"] for r in result.records] == [3, 4, 5, 6]

    def test_meeting_fan_out_plans_by_the_fleet_wide_span(self, tmp_path):
        """Windows alternate between nodes over six 100 s partitions."""
        meetings = {"a": _meeting(1, 140.0, 170.0), "b": _meeting(2, 520.0, 550.0)}
        for first, (node, meeting) in enumerate(meetings.items()):
            _store(tmp_path / node, [_window(i) for i in range(first, 60, 2)] + [meeting])
        nodes = tuple(FleetNodeConfig(name=n, store_dir=str(tmp_path / n)) for n in meetings)
        config = FleetConfig(nodes=nodes)
        indexed = federated_query(config, StoreQuery(meeting_id=1))
        full = federated_query(config, StoreQuery(meeting_id=1, use_index=False))
        assert [r["window"] for r in indexed.records] == [13, 14, 15, 16]
        assert indexed.records == full.records
        # Span pass: a's meeting segment; scan: partition 1's windows on each node.
        assert (indexed.segments_scanned, full.segments_scanned) == (3, 26)

    def test_unknown_meeting_returns_empty(self, fleet):
        result = federated_query(fleet, StoreQuery(meeting_id=99))
        assert result.records == []
        assert result.nodes_missing == []


class TestDegradation:
    def _with_dead_node(self, fleet: FleetConfig) -> FleetConfig:
        dead = FleetNodeConfig(
            name="dead", endpoint="http://127.0.0.1:9"  # discard port
        )
        return fleet.replace(
            nodes=fleet.nodes + (dead,), query_timeout=1.0, query_retries=0
        )

    def test_partial_results_with_missing_annotation(self, fleet, union_store):
        config = self._with_dead_node(fleet)
        result = federated_query(config, StoreQuery())
        assert result.nodes_missing == ["dead"]
        assert "dead" in result.node_errors
        assert not result.complete
        # The reachable nodes' records still merge to the full answer.
        assert result.records == union_store.query(StoreQuery()).records

    def test_all_nodes_dead_is_still_a_result(self):
        config = FleetConfig(
            nodes=(
                FleetNodeConfig(name="a", endpoint="http://127.0.0.1:9"),
                FleetNodeConfig(name="b", endpoint="http://127.0.0.1:9"),
            ),
            query_timeout=1.0,
            query_retries=0,
        )
        result = federated_query(config, StoreQuery())
        assert result.records == []
        assert sorted(result.nodes_missing) == ["a", "b"]
        assert result.nodes_queried == []

    def test_missing_store_directory_marks_node_missing(self, tmp_path):
        good = _store(tmp_path / "good", [_window(0)])
        config = FleetConfig(
            nodes=(
                FleetNodeConfig(name="good", store_dir=str(tmp_path / "good")),
                FleetNodeConfig(name="gone", endpoint="http://127.0.0.1:9"),
            ),
            query_timeout=1.0,
            query_retries=0,
        )
        result = federated_query(config, StoreQuery())
        assert result.nodes_queried == ["good"]
        assert result.nodes_missing == ["gone"]
        assert len(result.records) == 1
        del good


class TestMeetingDedup:
    def _two_node_config(self, tmp_path, a_records, b_records) -> FleetConfig:
        _store(tmp_path / "a", a_records)
        _store(tmp_path / "b", b_records)
        return FleetConfig(
            nodes=(
                FleetNodeConfig(name="a", store_dir=str(tmp_path / "a")),
                FleetNodeConfig(name="b", store_dir=str(tmp_path / "b")),
            )
        )

    def test_cross_node_duplicate_collapses_with_sites(self, tmp_path):
        # Same meeting seen by two taps: ids differ (analyzer counters),
        # fingerprint agrees.
        config = self._two_node_config(
            tmp_path, [_meeting(0, 40.0, 70.0)], [_meeting(5, 40.0, 70.0)]
        )
        result = federated_query(config, StoreQuery(kinds=("meeting",)))
        assert result.count == 1
        assert result.meetings_deduped == 1
        assert result.records[0]["sites"] == ["a", "b"]

    def test_same_node_duplicates_survive(self, tmp_path):
        # One store returning two identical records must federate to two
        # identical records (the union store would hold both).
        config = self._two_node_config(
            tmp_path,
            [_meeting(0, 40.0, 70.0), _meeting(0, 40.0, 70.0)],
            [_window(0)],
        )
        result = federated_query(config, StoreQuery(kinds=("meeting",)))
        assert result.count == 2
        assert result.meetings_deduped == 0

    def test_different_meetings_do_not_dedup(self, tmp_path):
        config = self._two_node_config(
            tmp_path,
            [_meeting(0, 40.0, 70.0)],
            [_meeting(0, 40.0, 70.0, streams=9)],  # same span, more streams
        )
        result = federated_query(config, StoreQuery(kinds=("meeting",)))
        assert result.count == 2
        assert result.meetings_deduped == 0

    def test_fingerprint_ignores_meeting_id(self):
        assert meeting_fingerprint(_meeting(0, 1.0, 2.0)) == meeting_fingerprint(
            _meeting(42, 1.0, 2.0)
        )


class TestHttpNodes:
    @pytest.fixture()
    def served(self, tmp_path):
        store = _store(tmp_path / "served", [r for p in _partitions() for r in p])

        def handler(payload: dict) -> dict:
            result = store.query(StoreQuery.from_dict(payload))
            return {
                "records": result.records,
                "segments_scanned": result.segments_scanned,
                "segments_skipped": result.segments_skipped,
                "records_examined": result.records_examined,
            }

        server = MetricsHTTPServer(
            "127.0.0.1:0", render_metrics=lambda: "", store_query=handler
        )
        server.start()
        host, port = server.address
        yield store, f"http://{host}:{port}"
        server.stop()

    def test_endpoint_node_equals_local_query(self, served):
        store, endpoint = served
        config = FleetConfig(
            nodes=(FleetNodeConfig(name="remote", endpoint=endpoint),)
        )
        for query in (StoreQuery(), StoreQuery(meeting_id=1)):
            federated = federated_query(config, query)
            assert federated.records == store.query(query).records
            assert federated.nodes_queried == ["remote"]

    def test_mixed_local_and_endpoint_fleet(self, served, tmp_path):
        _, endpoint = served
        _store(tmp_path / "local", [_window(100)])
        config = FleetConfig(
            nodes=(
                FleetNodeConfig(name="remote", endpoint=endpoint),
                FleetNodeConfig(name="local", store_dir=str(tmp_path / "local")),
            )
        )
        result = federated_query(config, StoreQuery())
        assert sorted(result.nodes_queried) == ["local", "remote"]
        assert {r["window"] for r in result.records} >= {0, 100}


class TestInjectedStores:
    def test_local_stores_bypass_disk(self, tmp_path):
        store = _store(tmp_path / "real", [_window(3)])
        config = FleetConfig(
            nodes=(FleetNodeConfig(name="mem", store_dir="/nonexistent/unused"),)
        )
        result = federated_query(
            config, StoreQuery(), local_stores={"mem": store}
        )
        assert [r["window"] for r in result.records] == [3]


class TestStoreQueryTransport:
    def test_round_trip(self):
        query = StoreQuery(
            start=1.0,
            end=2.0,
            kinds=("window", "meeting"),
            meeting_id=7,
            media="video",
            metrics=("packets_total",),
            reaggregate_seconds=30.0,
            use_index=False,
            meeting_spans=((1.0, 2.0),),
        )
        assert StoreQuery.from_dict(query.to_dict()) == query

    def test_defaults_round_trip_minimal(self):
        payload = StoreQuery().to_dict()
        assert payload == {"kinds": ["window"]}
        assert StoreQuery.from_dict(payload) == StoreQuery()

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown StoreQuery fields"):
            StoreQuery.from_dict({"kinds": ["window"], "surprise": 1})

    def test_payload_is_json_serializable(self):
        query = StoreQuery(meeting_spans=((0.0, 1.5),), metrics=("a",))
        assert json.loads(json.dumps(query.to_dict())) == query.to_dict()


class TestFleetManifest:
    def test_round_trip_with_relative_paths(self, tmp_path):
        config = FleetConfig(
            nodes=(
                FleetNodeConfig(
                    name="tap",
                    store_dir=str(tmp_path / "tap"),
                    campus_subnets=("10.0.0.0/8",),
                ),
                FleetNodeConfig(name="live", endpoint="http://host:9310"),
            ),
            query_timeout=2.5,
        )
        path = save_fleet_manifest(config, tmp_path)
        payload = json.loads(path.read_text())
        # Stores under the manifest dir are written relative: relocatable.
        assert payload["nodes"][0]["store_dir"] == "tap"
        loaded = load_fleet_manifest(tmp_path)
        assert loaded.query_timeout == 2.5
        assert loaded.node("tap").store_dir == str(tmp_path / "tap")
        assert loaded.node("live").endpoint == "http://host:9310"
        assert loaded.node("tap").campus_subnets == ("10.0.0.0/8",)

    def test_unknown_keys_raise(self, tmp_path):
        (tmp_path / "fleet.json").write_text('{"nodes": [], "typo": 1}')
        with pytest.raises(ValueError, match="unknown fleet manifest keys"):
            load_fleet_manifest(tmp_path)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetConfig(
                nodes=(
                    FleetNodeConfig(name="a", store_dir="x"),
                    FleetNodeConfig(name="a", store_dir="y"),
                )
            )
