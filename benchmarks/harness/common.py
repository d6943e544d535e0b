"""Names and locations shared by every harness module (stdlib only).

Nothing here imports :mod:`repro`: the orchestrating parent (``run.py``)
stays light so that set-up time — interpreter start, imports, trace
verification — is paid and measured inside the child processes.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
CACHE_DIR = HARNESS_DIR / ".cache"
WORK_DIR = CACHE_DIR / "work"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
PINS_JSON = HARNESS_DIR / "pins.json"
BASELINE_JSON = HARNESS_DIR / "baseline.json"

DEFAULT_SEED = 20220816

#: Run order of one pass; the suite makes two passes (A B C D A B C D) so a
#: slow host phase cannot cover every run of one workload.
WORKLOADS = ("border98", "meeting_media", "campus_live", "store_rw")

#: Workloads whose input is a packet capture (``store_rw`` ingests window
#: records, so the packet layers read 0 there).
PACKET_WORKLOADS = ("border98", "meeting_media", "campus_live")

#: Every record kind a store holds.
ALL_KINDS = ("window", "stream", "meeting")

#: Share of ``--seconds`` spent on ingest reps; the rest goes to query
#: rounds.  The packet workloads leave small stores behind, ``store_rw`` is
#: there for the read side.
INGEST_SHARE = {
    "border98": 0.8,
    "meeting_media": 0.8,
    "campus_live": 0.75,
    "store_rw": 0.4,
}


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    tmp.replace(path)


def scale_tag(scale: float) -> str:
    """``0.5`` -> ``"0.5"``, ``1.0`` -> ``"1"``: stable in file names and pins."""
    return f"{scale:g}"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def summary(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of one metric's samples."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": q2,
        "q3": q3,
        "max": max(values),
    }


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule);
    with fewer than four values, the full range over the median."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)
