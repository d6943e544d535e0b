#!/usr/bin/env python
"""Regenerate the golden end-to-end snapshots.

Run from the repository root after an *intentional* behaviour change::

    PYTHONPATH=src python tests/regen_golden.py

then review the diffs of ``tests/golden/meeting_small.json`` (estimator
outputs on a healthy meeting), ``tests/golden/meeting_impaired.json``
(the QoE transition/alert sequence on the bandwidth-cliff scenario), and
``tests/golden/webrtc_small.json`` (the mixed zoom+rtp protocol-registry
trace), and ``tests/golden/service_windows.json`` (the live service's
closed windows and ``service.*`` counters) and commit them alongside the
change that caused them.  All four snapshots regenerate in one pass.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT, REPO_ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from tests.golden_utils import (  # noqa: E402  (path setup must come first)
    GOLDEN_PATH,
    IMPAIRED_GOLDEN_PATH,
    SERVICE_WINDOWS_GOLDEN_PATH,
    WEBRTC_GOLDEN_PATH,
    compute_golden_summary,
    compute_impaired_summary,
    compute_service_windows_summary,
    compute_webrtc_summary,
    write_snapshot,
)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp_dir:
        summary = compute_golden_summary(Path(tmp_dir))
    write_snapshot(GOLDEN_PATH, summary)
    print(f"wrote {GOLDEN_PATH.relative_to(REPO_ROOT)}")
    print(
        "  packets={total} zoom={zoom} streams={streams} meetings={meetings}".format(
            total=summary["packets"]["total"],
            zoom=summary["packets"]["zoom"],
            streams=len(summary["streams"]),
            meetings=len(summary["meetings"]),
        )
    )
    with tempfile.TemporaryDirectory() as tmp_dir:
        impaired = compute_impaired_summary(Path(tmp_dir))
    write_snapshot(IMPAIRED_GOLDEN_PATH, impaired)
    print(f"wrote {IMPAIRED_GOLDEN_PATH.relative_to(REPO_ROOT)}")
    print(
        "  transitions={transitions} alerts={alerts}".format(
            transitions=len(impaired["transitions"]),
            alerts=impaired["qoe_counters"].get("alerts", 0),
        )
    )
    with tempfile.TemporaryDirectory() as tmp_dir:
        webrtc = compute_webrtc_summary(Path(tmp_dir))
    write_snapshot(WEBRTC_GOLDEN_PATH, webrtc)
    print(f"wrote {WEBRTC_GOLDEN_PATH.relative_to(REPO_ROOT)}")
    print(
        "  packets={total} claimed={zoom} streams={streams} "
        "rtp_claimed={claimed} conflicts={conflicts}".format(
            total=webrtc["packets"]["total"],
            zoom=webrtc["packets"]["zoom"],
            streams=len(webrtc["streams"]),
            claimed=webrtc["protocol_counters"].get("claimed.rtp", 0),
            conflicts=webrtc["protocol_counters"].get("conflicts", 0),
        )
    )
    windows = compute_service_windows_summary()
    write_snapshot(SERVICE_WINDOWS_GOLDEN_PATH, windows)
    print(f"wrote {SERVICE_WINDOWS_GOLDEN_PATH.relative_to(REPO_ROOT)}")
    print(
        "  windows={windows} service={counters}".format(
            windows=len(windows["windows"]), counters=windows["service_counters"]
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
