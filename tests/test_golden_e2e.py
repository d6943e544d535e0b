"""Golden end-to-end regression test.

Simulates the fixed scenario from :mod:`tests.golden_utils`, runs the full
pipeline (simulate → pcap on disk → read back → analyze), and compares a
stable summary against the checked-in snapshot.  Any drift in detection,
stream assembly, meeting grouping, the Table 2/3 share tables, or the
§5 metric estimators fails this test.

If the change is intentional, regenerate the snapshot and commit the diff::

    PYTHONPATH=src python tests/regen_golden.py
"""

from __future__ import annotations

import pytest

from tests.golden_utils import (
    GOLDEN_PATH,
    IMPAIRED_GOLDEN_PATH,
    WEBRTC_GOLDEN_PATH,
    compute_golden_summary,
    compute_impaired_summary,
    compute_webrtc_summary,
    load_snapshot,
)

REGEN_HINT = (
    "golden snapshot drift — if intentional, regenerate with "
    "`PYTHONPATH=src python tests/regen_golden.py` and commit the diff"
)


@pytest.fixture(scope="module")
def actual_summary(tmp_path_factory) -> dict:
    return compute_golden_summary(tmp_path_factory.mktemp("golden"))


class TestGoldenEndToEnd:
    def test_snapshot_exists(self):
        assert GOLDEN_PATH.is_file(), (
            "missing snapshot; run `PYTHONPATH=src python tests/regen_golden.py`"
        )

    def test_matches_snapshot(self, actual_summary):
        expected = load_snapshot(GOLDEN_PATH)
        if actual_summary == expected:
            return
        # Point at the drifted sections before failing on the full dict.
        drifted = sorted(
            key
            for key in set(expected) | set(actual_summary)
            if expected.get(key) != actual_summary.get(key)
        )
        assert actual_summary == expected, f"{REGEN_HINT}; drifted keys: {drifted}"

    def test_key_outputs_sane(self, actual_summary):
        """Guard the snapshot itself: a regen that produces a degenerate
        run (empty capture, no meetings) must not be committable silently."""
        assert actual_summary["packets"]["total"] > 5000
        assert actual_summary["packets"]["zoom"] > 0
        assert len(actual_summary["streams"]) >= 7
        assert actual_summary["meetings"], "expected at least one meeting"
        assert actual_summary["meetings"][0]["participant_estimate"] == 3
        # Table 2 analogue: media encapsulation shares must sum to ~100%.
        pkt_share = sum(row[1] for row in actual_summary["encap_share_table"])
        assert pkt_share == pytest.approx(100.0, abs=0.01)
        # The congested sender must surface retransmission evidence: Zoom
        # retries fill the sequence gaps, so upstream loss shows up as
        # duplicates (the §5.5 lower bound), not as unfilled gaps.
        assert any(s.get("duplicates", 0) > 0 for s in actual_summary["streams"])
        assert any(s.get("frames_completed", 0) > 0 for s in actual_summary["streams"])

    def test_telemetry_consistent_with_results(self, actual_summary):
        """The telemetry counters and the analysis outputs describe the
        same run: capture frames == packets fed == pipeline accounting."""
        tel = actual_summary["telemetry"]
        total = actual_summary["packets"]["total"]
        assert tel["capture.frames"] == total
        stops = sum(v for k, v in tel.items() if k.startswith("pipeline.stop."))
        assert stops + tel.get("pipeline.completed", 0) == total
        assert tel.get("demux.undecoded", 0) == actual_summary["packets"]["undecoded"]
        assert tel.get("assemble.stream_opened", 0) == len(actual_summary["streams"])


@pytest.fixture(scope="module")
def impaired_summary(tmp_path_factory) -> dict:
    return compute_impaired_summary(tmp_path_factory.mktemp("impaired"))


class TestImpairedGolden:
    """Pin the full QoE transition/alert sequence of the bandwidth-cliff
    scenario — times, states, reason strings, and ``qoe.*`` counters."""

    def test_snapshot_exists(self):
        assert IMPAIRED_GOLDEN_PATH.is_file(), (
            "missing snapshot; run `PYTHONPATH=src python tests/regen_golden.py`"
        )

    def test_matches_snapshot(self, impaired_summary):
        expected = load_snapshot(IMPAIRED_GOLDEN_PATH)
        if impaired_summary == expected:
            return
        drifted = sorted(
            key
            for key in set(expected) | set(impaired_summary)
            if expected.get(key) != impaired_summary.get(key)
        )
        assert impaired_summary == expected, f"{REGEN_HINT}; drifted keys: {drifted}"

    def test_alert_sequence_sane(self, impaired_summary):
        """Guard the snapshot itself: a regen where the machine misses the
        impairment (or flaps) must not be committable silently."""
        transitions = impaired_summary["transitions"]
        (interval,) = impaired_summary["intervals"]
        assert len(transitions) == 2, transitions
        enter, leave = transitions
        assert enter["previous"] == "GOOD"
        assert enter["state"] == interval["expected_state"] == "IMPAIRED"
        assert interval["start"] <= enter["time"] <= interval["end"]
        assert leave["state"] == "GOOD"
        assert leave["time"] >= interval["end"]
        counters = impaired_summary["qoe_counters"]
        assert counters["transitions"] == 2
        assert counters["transitions_to.impaired"] == 1
        assert counters["alerts"] == 1


@pytest.fixture(scope="module")
def webrtc_summary(tmp_path_factory) -> dict:
    return compute_webrtc_summary(tmp_path_factory.mktemp("webrtc"))


class TestWebRTCGolden:
    """Pin the mixed-protocol (zoom+rtp) trace: the golden Zoom meeting
    plus one concurrent generic WebRTC call, analyzed with both registry
    plugins enabled."""

    def test_snapshot_exists(self):
        assert WEBRTC_GOLDEN_PATH.is_file(), (
            "missing snapshot; run `PYTHONPATH=src python tests/regen_golden.py`"
        )

    def test_matches_snapshot(self, webrtc_summary):
        expected = load_snapshot(WEBRTC_GOLDEN_PATH)
        if webrtc_summary == expected:
            return
        drifted = sorted(
            key
            for key in set(expected) | set(webrtc_summary)
            if expected.get(key) != webrtc_summary.get(key)
        )
        assert webrtc_summary == expected, f"{REGEN_HINT}; drifted keys: {drifted}"

    def test_both_protocols_claimed(self, webrtc_summary):
        """Guard the snapshot itself: both plugins must contribute streams
        and every packet of either protocol must be claimed."""
        counters = webrtc_summary["protocol_counters"]
        assert counters["claimed.zoom"] > 0
        assert counters["claimed.rtp"] > 0
        protocols = {s.get("protocol", "zoom") for s in webrtc_summary["streams"]}
        assert protocols == {"zoom", "rtp"}
        rtp_rows = [
            s for s in webrtc_summary["streams"] if s.get("protocol") == "rtp"
        ]
        # The 1:1 call contributes exactly four streams: audio+video both ways.
        assert len(rtp_rows) == 4
        assert all(row["is_p2p"] for row in rtp_rows)
        assert any(row.get("frames_completed", 0) > 0 for row in rtp_rows)
        # SFU-only Zoom meeting has no STUN flows, so nothing is claimable
        # by both plugins on this trace.
        assert counters.get("conflicts", 0) == 0

    def test_zoom_half_matches_single_protocol_golden(self, webrtc_summary):
        """The Zoom meeting's streams come out identical whether or not
        the generic RTP plugin rides along — claim precedence isolates
        the plugins on disjoint flows."""
        zoom_rows = [
            {k: v for k, v in s.items()}
            for s in webrtc_summary["streams"]
            if s.get("protocol", "zoom") == "zoom"
        ]
        expected = load_snapshot(GOLDEN_PATH)["streams"]
        assert zoom_rows == expected
