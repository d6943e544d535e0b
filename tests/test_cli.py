"""Tests for the zoom-analysis command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def meeting_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "meeting.pcap"
    code = main(
        ["simulate", str(path), "--participants", "2", "--duration", "8", "--seed", "3"]
    )
    assert code == 0
    return path


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for argv in (
            ["simulate", "x"],
            ["filter", "in", "out"],
            ["analyze", "x"],
            ["dissect", "x"],
            ["entropy", "x"],
            ["analyze-live", "x"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_filter_needs_two_paths(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["filter", "only-one"])


class TestSimulate:
    def test_meeting_pcap_created(self, meeting_pcap):
        assert meeting_pcap.exists()
        assert meeting_pcap.stat().st_size > 10_000

    def test_campus_kind(self, tmp_path, capsys):
        path = tmp_path / "campus.pcap"
        code = main([
            "simulate", str(path), "--kind", "campus", "--hours", "1",
            "--peak", "1.0", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campus trace" in out
        assert path.exists()


class TestAnalyze:
    def test_summary_output(self, meeting_pcap, capsys):
        assert main(["analyze", str(meeting_pcap)]) == 0
        out = capsys.readouterr().out
        assert "meetings: 1" in out
        assert "Table 2" in out
        assert "per-stream metrics" in out
        assert "VIDEO" in out

    def test_csv_export(self, meeting_pcap, tmp_path, capsys):
        csv_path = tmp_path / "features.csv"
        assert main(["analyze", str(meeting_pcap), "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("stream_id,")


class TestAnalyzeStats:
    def test_stats_report_printed(self, meeting_pcap, capsys):
        assert main(["analyze", str(meeting_pcap), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "=== runtime telemetry (--stats) ===" in out
        assert "capture input:" in out
        assert "pipeline flow" in out
        assert "classification outcomes:" in out
        assert "stream lifecycle:" in out

    def test_stats_json_written(self, meeting_pcap, tmp_path, capsys):
        import json

        json_path = tmp_path / "stats.json"
        assert main(
            ["analyze", str(meeting_pcap), "--stats-json", str(json_path)]
        ) == 0
        payload = json.loads(json_path.read_text())
        assert payload["counters"]["capture.frames"] > 0
        assert payload["counters"]["pipeline.completed"] > 0
        assert any(name.startswith("stage.time.") for name in payload["timers"])

    def test_stats_json_to_stdout(self, meeting_pcap, capsys):
        assert main(["analyze", str(meeting_pcap), "--stats-json", "-"]) == 0
        out = capsys.readouterr().out
        assert '"capture.frames"' in out

    def test_sharded_stats_include_shard_balance(self, meeting_pcap, capsys):
        assert main(
            ["analyze", str(meeting_pcap), "--shards", "2", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "shard balance:" in out
        assert "stun hints replicated" in out

    def test_no_stats_by_default(self, meeting_pcap, capsys):
        assert main(["analyze", str(meeting_pcap)]) == 0
        assert "runtime telemetry" not in capsys.readouterr().out

    def test_tolerant_reads_truncated_capture(self, meeting_pcap, tmp_path, capsys):
        cut = tmp_path / "cut.pcap"
        cut.write_bytes(meeting_pcap.read_bytes()[:-7])
        assert main(["analyze", str(cut), "--tolerant", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "truncated" in out


class TestAnalyzeMultiInput:
    @pytest.fixture(scope="class")
    def two_pcaps(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("multi")
        for name, seed in (("first.pcap", 3), ("second.pcap", 9)):
            assert main([
                "simulate", str(directory / name),
                "--participants", "2", "--duration", "6", "--seed", str(seed),
            ]) == 0
        return directory

    @staticmethod
    def _counters(argv, tmp_path, tag):
        import json

        json_path = tmp_path / f"{tag}.json"
        assert main(argv + ["--stats-json", str(json_path)]) == 0
        return json.loads(json_path.read_text())["counters"]

    def test_parser_accepts_multiple_inputs(self):
        args = build_parser().parse_args(["analyze", "a.pcap", "b.pcap"])
        assert [str(p) for p in args.inputs] == ["a.pcap", "b.pcap"]

    def test_merged_stats_equal_per_file_sums(self, two_pcaps, tmp_path, capsys):
        first = str(two_pcaps / "first.pcap")
        second = str(two_pcaps / "second.pcap")
        merged = self._counters(["analyze", first, second], tmp_path, "merged")
        alone_a = self._counters(["analyze", first], tmp_path, "a")
        alone_b = self._counters(["analyze", second], tmp_path, "b")
        for key in ("capture.frames", "capture.bytes", "pipeline.completed"):
            assert merged[key] == alone_a[key] + alone_b[key], key
        assert merged["ingest.files"] == 2

    def test_directory_input(self, two_pcaps, capsys):
        assert main(["analyze", str(two_pcaps)]) == 0
        out = capsys.readouterr().out
        assert "inputs: 2 capture files" in out
        assert "packets:" in out

    def test_glob_option(self, two_pcaps, tmp_path, capsys):
        counters = self._counters(
            ["analyze", "--glob", str(two_pcaps / "*.pcap"),
             str(two_pcaps / "first.pcap")],
            tmp_path, "globbed",
        )
        assert counters["ingest.files"] == 3  # first.pcap + two glob matches

    def test_stats_report_shows_ingest_counters(self, two_pcaps, capsys):
        first = str(two_pcaps / "first.pcap")
        second = str(two_pcaps / "second.pcap")
        assert main(["analyze", first, second, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "capture input:" in out
        assert "files" in out


class TestFilter:
    def test_filter_roundtrip(self, meeting_pcap, tmp_path, capsys):
        out_path = tmp_path / "filtered.pcap"
        assert main(["filter", str(meeting_pcap), str(out_path)]) == 0
        output = capsys.readouterr().out
        assert "passed" in output
        assert out_path.exists()

    def test_filter_with_anonymization(self, meeting_pcap, tmp_path):
        out_path = tmp_path / "anon.pcap"
        assert main([
            "filter", str(meeting_pcap), str(out_path), "--anonymize", "secret-key",
        ]) == 0
        from repro.net.packet import parse_frame
        from repro.net.pcap import PcapReader

        for packet in list(PcapReader(out_path))[:20]:
            parsed = parse_frame(packet.data)
            if parsed.src_ip:
                assert not parsed.src_ip.startswith("198.18.")


class TestDissect:
    def test_dissection_printed(self, meeting_pcap, capsys):
        assert main(["dissect", str(meeting_pcap), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "Zoom" in out
        assert "Real-Time Transport Protocol" in out

    def test_server_media_tagged_with_direction(self, meeting_pcap, capsys):
        assert main(["dissect", str(meeting_pcap), "--limit", "2"]) == 0
        assert "[server]" in capsys.readouterr().out

    def test_port_8801_noise_between_non_zoom_hosts_skipped(self, tmp_path, capsys):
        """A flow that merely *uses* port 8801 is not Zoom.  The old
        ``8801 in (src_port, dst_port)`` heuristic dissected it as
        server media; the detector-driven path classifies and skips it."""
        from repro.net.packet import CapturedPacket, build_udp_frame
        from repro.net.pcap import write_pcap

        noise = [
            CapturedPacket(
                float(i),
                build_udp_frame(
                    "192.0.2.10", 8801, "198.51.100.5", 5555, b"\x05\x10" + bytes(40)
                ),
            )
            for i in range(3)
        ]
        path = tmp_path / "noise.pcap"
        write_pcap(path, noise)
        assert main(["dissect", str(path)]) == 1
        assert "no dissectable Zoom UDP packets" in capsys.readouterr().err

    def test_p2p_media_dissected_without_sfu_layer(self, tmp_path, capsys):
        """P2P media (learned via STUN) is dissected from the media layer
        and tagged [p2p] — not misparsed as server-encapsulated."""
        from repro.net.packet import CapturedPacket, build_udp_frame
        from repro.net.pcap import write_pcap
        from repro.rtp.rtp import RTPHeader
        from repro.rtp.stun import StunMessage
        from repro.zoom.constants import ZoomMediaType
        from repro.zoom.media_encap import MediaEncap
        from repro.zoom.packets import build_media_payload

        client, peer = "10.8.1.20", "198.18.2.30"
        stun = StunMessage.binding_request(b"abcdefghijkl").serialize()
        packets = [
            CapturedPacket(
                0.0, build_udp_frame(client, 52001, "170.114.200.9", 3478, stun)
            )
        ]
        for seq in range(3):
            payload = build_media_payload(
                media=MediaEncap(
                    media_type=ZoomMediaType.AUDIO,
                    sequence=seq,
                    timestamp=seq * 640,
                ),
                rtp=RTPHeader(
                    payload_type=112, sequence=seq, timestamp=seq * 640, ssrc=0x42
                ),
                rtp_payload=b"a" * 60,
            )
            packets.append(
                CapturedPacket(
                    1.0 + seq, build_udp_frame(client, 52001, peer, 53000, payload)
                )
            )
        path = tmp_path / "p2p.pcap"
        write_pcap(path, packets)
        assert main(["dissect", str(path), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "[p2p]" in out
        assert "[server]" not in out
        assert "Real-Time Transport Protocol" in out

    def test_empty_pcap_errors(self, tmp_path, capsys):
        from repro.net.pcap import write_pcap

        empty = tmp_path / "empty.pcap"
        write_pcap(empty, [])
        assert main(["dissect", str(empty)]) == 1


class TestEntropy:
    def test_sweep_output(self, meeting_pcap, capsys):
        assert main(["entropy", str(meeting_pcap)]) == 0
        out = capsys.readouterr().out
        assert "busiest flow" in out
        assert "type -> offset map" in out
        assert "counter" in out

    def test_empty_pcap_errors(self, tmp_path, capsys):
        from repro.net.pcap import write_pcap

        empty = tmp_path / "empty.pcap"
        write_pcap(empty, [])
        assert main(["entropy", str(empty)]) == 1


class TestAnalyzeLive:
    def test_runs_over_capture_dir_and_writes_windows(
        self, meeting_pcap, tmp_path, capsys
    ):
        import json
        import shutil

        directory = tmp_path / "caps"
        directory.mkdir()
        shutil.copy(meeting_pcap, directory / "zoom-00.pcap")
        jsonl = tmp_path / "windows.jsonl"
        code = main([
            "analyze-live", str(directory),
            "--window", "4", "--lateness", "1",
            "--poll-interval", "0.05", "--max-polls", "2",
            "--jsonl-out", str(jsonl),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tailing" in out
        assert "processed" in out and "windows" in out
        windows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert windows
        assert sum(w["packets_total"] for w in windows) > 0

    def test_listen_prints_metrics_url(self, meeting_pcap, tmp_path, capsys):
        import shutil

        directory = tmp_path / "caps"
        directory.mkdir()
        shutil.copy(meeting_pcap, directory / "zoom-00.pcap")
        code = main([
            "analyze-live", str(directory),
            "--window", "4", "--poll-interval", "0.05", "--max-polls", "1",
            "--listen", "127.0.0.1:0",
        ])
        assert code == 0
        assert "metrics: http://127.0.0.1:" in capsys.readouterr().out


class TestBackfill:
    def test_rotated_captures_backfill_as_one_meeting(self, sfu_meeting_result, tmp_path):
        """One meeting split over three files is one analysis run: one
        meeting record and whole streams, in any argument order."""
        from repro.core import ZoomAnalyzer
        from repro.store import MetricsStore, StoreQuery
        from tests.conftest import rotated_capture_dir

        captures = sfu_meeting_result.captures
        paths = sorted(str(p) for p in rotated_capture_dir(tmp_path, captures).iterdir())
        assert main(["backfill", str(tmp_path / "store"), *reversed(paths)]) == 0
        with MetricsStore(tmp_path / "store") as store:
            records = store.query(StoreQuery(kinds=("stream", "meeting"))).records
        kinds = [record["kind"] for record in records]
        batch = ZoomAnalyzer().analyze(captures)
        assert kinds.count("meeting") == len(batch.meetings) == 1
        assert kinds.count("stream") == len(batch.media_streams())


class TestQuery:
    @pytest.mark.parametrize("fmt, printed", [("table", "\n"), ("csv", ""), ("json", "")])
    def test_empty_result_is_an_empty_table(self, meeting_pcap, tmp_path, capsys, fmt, printed):
        """A query matching nothing exits 0 with an empty rendering (it
        used to raise IndexError in ``format_table``)."""
        store = tmp_path / "store"
        assert main(["backfill", str(store), str(meeting_pcap)]) == 0
        capsys.readouterr()
        assert main(["query", str(store), "--start", "1e9", "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.out == printed
        assert captured.err.startswith("0 records")
