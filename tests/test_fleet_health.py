"""Tests for the fleet health layer (:mod:`repro.fleet.health`).

Scraping is exercised two ways: against a real store directory written by
:class:`MetricsStore` (the ``store`` surface), and through the injectable
``scrape`` callable (anomaly rules, rendering) so no sockets are needed.
"""

from repro.core import FleetConfig, FleetNodeConfig, StoreConfig
from repro.fleet.health import (
    FLEET_COUNTER_SEEDS,
    FleetAnomaly,
    NodeHealth,
    fleet_status,
    parse_prometheus_text,
    render_fleet_status,
    scrape_node,
)
from repro.store import MetricsStore


class TestParsePrometheusText:
    def test_parses_samples_and_skips_comments(self):
        text = "\n".join(
            [
                "# HELP repro_capture_frames_total Frames seen",
                "# TYPE repro_capture_frames_total counter",
                "repro_capture_frames_total 1200",
                'repro_service_windows_total{site="a"} 42',
                "repro_window_start_seconds 1700.5",
            ]
        )
        samples = parse_prometheus_text(text)
        assert samples["repro_capture_frames_total"] == 1200.0
        assert samples['repro_service_windows_total{site="a"}'] == 42.0
        assert samples["repro_window_start_seconds"] == 1700.5

    def test_unparseable_lines_are_skipped_not_fatal(self):
        text = "garbage line without value\nrepro_ok 1\nrepro_bad not-a-float"
        assert parse_prometheus_text(text) == {"repro_ok": 1.0}

    def test_empty_page(self):
        assert parse_prometheus_text("") == {}


class TestScrapeStore:
    def test_reads_sealed_segments_from_manifest(self, tmp_path):
        store_dir = tmp_path / "node"
        store = MetricsStore(store_dir, StoreConfig(partition_seconds=50.0))
        for i in range(5):
            store.append(
                {"kind": "window", "start": i * 10.0, "end": (i + 1) * 10.0}
            )
        store.seal_all()
        store.close()

        node = FleetNodeConfig(name="n0", store_dir=str(store_dir))
        health = scrape_node(node)
        assert health.reachable is True
        assert health.source == "store"
        assert health.store_records == 5
        assert health.newest == 50.0
        # Store surfaces do not report capture counters.
        assert health.frames is None

    def test_missing_manifest_is_unreachable_not_an_exception(self, tmp_path):
        node = FleetNodeConfig(name="gone", store_dir=str(tmp_path / "nope"))
        health = scrape_node(node)
        assert health.reachable is False
        assert health.error

    def test_corrupt_manifest_is_unreachable(self, tmp_path):
        store_dir = tmp_path / "bad"
        store_dir.mkdir()
        (store_dir / "manifest.json").write_text("{not json", encoding="utf-8")
        health = scrape_node(FleetNodeConfig(name="bad", store_dir=str(store_dir)))
        assert health.reachable is False


def _fleet(names, **overrides):
    nodes = tuple(
        FleetNodeConfig(name=name, store_dir=f"/unused/{name}") for name in names
    )
    return FleetConfig(nodes=nodes, **overrides)


def _healthy(name, *, newest=1000.0):
    return NodeHealth(
        name=name, source="endpoint", reachable=True, frames=10_000, newest=newest
    )


def _injected(by_name):
    def scrape(node, *, timeout):
        return by_name[node.name]

    return scrape


class TestAnomalyRules:
    def test_all_healthy_no_anomalies(self):
        config = _fleet(["a", "b", "c"])
        status = fleet_status(
            config,
            scrape=_injected({n: _healthy(n) for n in ("a", "b", "c")}),
        )
        assert status.anomalies == []
        assert status.reachable == 3

    def test_unreachable_node_flagged(self):
        config = _fleet(["a", "b"])
        down = NodeHealth(
            name="b", source="endpoint", reachable=False, error="refused"
        )
        status = fleet_status(
            config, scrape=_injected({"a": _healthy("a"), "b": down})
        )
        assert FleetAnomaly("node-unreachable", "b", "refused") in status.anomalies
        assert status.reachable == 1

    def test_stale_node_graded_against_fleet_newest(self):
        config = _fleet(["a", "b"], stale_after=120.0)
        status = fleet_status(
            config,
            scrape=_injected(
                {"a": _healthy("a", newest=5000.0), "b": _healthy("b", newest=4000.0)}
            ),
        )
        rules = [(a.rule, a.node) for a in status.anomalies]
        assert rules == [("node-stale", "b")]
        assert "1000s" in status.anomalies[0].detail

    def test_lag_within_threshold_is_fine(self):
        config = _fleet(["a", "b"], stale_after=120.0)
        status = fleet_status(
            config,
            scrape=_injected(
                {"a": _healthy("a", newest=5000.0), "b": _healthy("b", newest=4900.0)}
            ),
        )
        assert status.anomalies == []


class TestRender:
    def test_table_and_anomaly_lines(self):
        config = _fleet(["a", "b"], stale_after=60.0)
        down = NodeHealth(
            name="b", source="store", reachable=False, error="no manifest"
        )
        status = fleet_status(
            config, scrape=_injected({"a": _healthy("a"), "b": down})
        )
        text = render_fleet_status(status)
        assert "node" in text and "qoe" in text  # header row
        assert "yes" in text and "NO" in text
        assert "nodes: 1/2 reachable, 1 anomalies" in text
        assert "[node-unreachable] b: no manifest" in text

    def test_qoe_mix_renders_in_severity_order(self):
        node = _healthy("a")
        node.qoe_states = {"impaired": 1, "good": 3}
        assert node.qoe_mix() == "good:3 impaired:1"
        assert NodeHealth(name="x", source="store", reachable=True).qoe_mix() == "-"


class TestCounterSeeds:
    def test_seed_names_are_the_fleet_counters(self):
        assert FLEET_COUNTER_SEEDS == (
            "fleet.store_queries",
            "fleet.store_query_records",
            "fleet.store_query_errors",
        )

    def test_seeds_register_with_telemetry(self):
        from repro.telemetry.registry import Telemetry

        telemetry = Telemetry()
        for name in FLEET_COUNTER_SEEDS:
            telemetry.count(name, 0)
        for name in FLEET_COUNTER_SEEDS:
            assert telemetry.counters.get(name, None) == 0
