"""The harness's own checks, on a ``--scale 0.1`` suite.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness -q`` (outside
the tier-1 ``testpaths``: the suite fixture takes about two minutes).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import report
import traces
from common import BENCHMARK_JSON, HARNESS_DIR, WORKLOADS, load_json, spread

RUN = [sys.executable, str(HARNESS_DIR / "run.py")]
SCALE = "0.1"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_harness(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, "--scale", SCALE, *arguments], capture_output=True, text=True, timeout=900
    )


@pytest.fixture(scope="session")
def suite(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("suite") / "report.json"
    done = run_harness("--seconds", "2", "--passes", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return load_json(out)


@pytest.fixture(scope="session")
def benchmark_json() -> dict:
    return load_json(BENCHMARK_JSON)


# ------------------------------------------------------------ the contract


def test_benchmark_json_matches_the_metric_table(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    expected = metrics.benchmark_json(
        benchmark_json["command"], benchmark_json["run_seconds"], benchmark_json["workloads"]
    )
    assert benchmark_json == expected
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(benchmark_json["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in (
        benchmark_json["end_to_end"]
    )


def test_every_metric_is_emitted_and_nothing_else(suite, benchmark_json):
    end_to_end = {m["name"] for m in benchmark_json["end_to_end"]}
    per_layer = {m["name"] for m in benchmark_json["per_layer"]}
    assert set(suite["workloads"]) == set(WORKLOADS)
    for workload in suite["workloads"].values():
        assert set(workload["end_to_end"]) == end_to_end
        assert set(workload["per_layer"]) == per_layer
        # The driver refuses an end-to-end metric that reads 0.
        assert all(entry["value"] > 0 for entry in workload["end_to_end"].values())


def test_the_result_line_is_the_drivers(benchmark_json):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_harness(
            "--workload", "meeting_media", "--seed", "5", "--seconds", "1", "--trace", trace
        )
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in benchmark_json[section]}
        units = {m["name"]: m["unit"] for m in benchmark_json[section]}
        assert {n: v["unit"] for n, v in line["metrics"].items()} == units
    shutil.rmtree(traces.cache_dir("meeting_media", 5, float(SCALE)), ignore_errors=True)


# ------------------------------------------------------- what is measured


def test_outputs_are_correct_on_every_workload(suite):
    for name, workload in suite["workloads"].items():
        assert workload["failed"] == 0, (name, workload["problems"])
        assert workload["attempted"] >= workload["items"]
    assert suite["claim"] is None
    assert suite["host"]["cpu_count"] >= 1 and "noisy" in suite["host"]


def test_layer_shares_account_for_the_whole_run(suite):
    for name, workload in suite["workloads"].items():
        layers = workload["per_layer"]
        shares = [value for key, value in layers.items() if key.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), name
        assert layers["other.self_share"] < 0.05, name
        assert layers["trace.overhead"] > 1.0, name


def test_the_workloads_discriminate(suite):
    border = suite["workloads"]["border98"]["per_layer"]
    media = suite["workloads"]["meeting_media"]["per_layer"]
    live = suite["workloads"]["campus_live"]["per_layer"]
    assert border["net.self_share"] > 2 * media["net.self_share"]
    assert media["net.self_share"] <= 0.25
    live_only = ("service.self_share", "qoe.self_share", "core.rolling.self_share")
    for offline in (border, media):
        assert sum(offline[key] for key in live_only) < 1e-3
    assert all(live[key] > 0 for key in live_only)
    assert sum(live[key] for key in live_only) > 0.02
    assert live["service.windows.emitted"] > 0 and border["service.windows.emitted"] == 0
    assert border["net.prefilter.pass_ratio"] < 0.05 < media["net.prefilter.pass_ratio"]
    assert suite["workloads"]["store_rw"]["per_layer"]["net.read.fps"] == 0


# ------------------------------------------------------------ the gates


def _materialised(seed: int) -> Path:
    traces.materialise("meeting_media", seed, float(SCALE))
    return traces.cache_dir("meeting_media", seed, float(SCALE))


def test_a_doctored_trace_trips_the_sha_check():
    directory = _materialised(97)
    try:
        capture = directory / "input.pcap"
        data = bytearray(capture.read_bytes())
        data[-1] ^= 0xFF
        capture.write_bytes(data)
        with pytest.raises(traces.TraceMismatch, match="differs from the sha-256"):
            traces.load("meeting_media", 97, float(SCALE))
        done = run_harness(
            "--workload", "meeting_media", "--seed", "97", "--seconds", "1", "--trace", "0"
        )
        assert done.returncode != 0
        assert "differs from the sha-256" in done.stderr
        assert not done.stdout.strip().endswith("}")  # no result line
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def test_a_changed_pinned_workload_asks_for_a_benchmark_pr(monkeypatch, tmp_path):
    directory = _materialised(96)
    try:
        truth = load_json(directory / "truth.json")
        pins = {
            "traces": {
                f"meeting_media@{SCALE}": {
                    "seed": 96, "items": truth["items"] + 1, "sha256": truth["sha256"],
                }
            }
        }
        pinned = tmp_path / "pins.json"
        pinned.write_text(json.dumps(pins))
        monkeypatch.setattr(traces, "PINS_JSON", pinned)
        with pytest.raises(traces.TraceMismatch, match="needs a benchmark PR"):
            traces.load("meeting_media", 96, float(SCALE))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def test_a_dropped_frame_trips_failed_share():
    from repro.net.pcap import PcapReader, write_pcap

    directory = _materialised(95)
    try:
        capture = directory / "input.pcap"
        with PcapReader(capture) as reader:
            packets = list(reader)
        write_pcap(capture, packets[:-1])
        truth = load_json(directory / "truth.json")
        truth["sha256"]["input.pcap"] = traces.sha256_file(capture)
        (directory / "truth.json").write_text(json.dumps(truth))
        done = run_harness(
            "--workload", "meeting_media", "--seed", "95", "--seconds", "1", "--trace", "0"
        )
        assert done.returncode == 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert line["correct"] is False and line["failed"] >= 1
        assert "frames accounted" in done.stdout
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    bare = tmp_path / "benchmarks" / "harness"
    shutil.copytree(HARNESS_DIR, bare, ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", "--workload", "store_rw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ------------------------------------------------------------ comparisons


def _report(runs: list[float]) -> dict:
    """A report whose ``ingest_per_s`` made ``runs``; every other metric steady."""
    steady = {"value": 1.0, "runs": [1.0, 1.0], "spread": 0.0, "median": 1.0}
    end_to_end = {name: dict(steady) for name, *_ in metrics.END_TO_END}
    end_to_end["ingest_per_s"] = {
        "value": max(runs), "runs": runs, "spread": spread(runs), "median": max(runs),
    }
    return {"workloads": {"w": {"end_to_end": end_to_end}}}


@pytest.mark.parametrize(
    "old_runs, new_runs, verdict",
    [
        ([100.0, 101.0], [100.5, 101.5], "same"),
        ([100.0, 101.0], [130.0, 131.0], "better"),
        ([100.0, 101.0], [80.0, 81.0], "worse"),
        ([100.0, 140.0], [95.0, 135.0], "unresolved"),
    ],
)
def test_compare_verdicts(old_runs, new_runs, verdict, capsys):
    status = report.compare(_report(old_runs), _report(new_runs))
    rows = [line for line in capsys.readouterr().out.splitlines() if "ingest_per_s" in line]
    assert rows[0].split()[-1] == verdict
    assert status == (1 if verdict == "worse" else 0)


def test_spread_is_the_drivers_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert spread([10.0, 12.0]) == pytest.approx(2.0 / 11.0)
    assert spread([5.0]) == 0.0
