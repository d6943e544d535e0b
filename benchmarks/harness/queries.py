"""The store's read side: a fixed shuffled query mix and its latencies.

The mix is derived from what the store under test holds (its time range,
its meeting ids), so the same four shapes apply to the tiny stores the
offline workloads leave behind, the live-written ``campus_live`` store and
the 20k-record ``store_rw`` store:

* ``narrow`` — a time range 1/400 of the store's span, every record kind;
* ``meeting`` — one meeting's windows and streams (the two-pass plan that
  resolves the meeting's span first, then scans for what overlaps it — on
  a large store the costliest shape, 8% of the mix so it sets the p95);
* ``media`` — one media type over 1/50 of the span, projected to three
  metrics;
* ``reagg`` — the windows of 1/5 of the span re-aggregated into 6x coarser
  windows: the wide scan, 5% of the mix.

Each slot of the mix keeps its fastest latency over the rounds that fit in
the budget (contention only ever slows a query), and the p50/p95 are taken
over the slots — so the percentiles describe the mix, not the host's noise.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from repro.store import MetricsStore, StoreQuery

from common import ALL_KINDS, percentile

SHAPES = (("narrow", 0.52), ("media", 0.35), ("meeting", 0.08), ("reagg", 0.05))
MIX_SIZE = 300
_PROJECTION = ("packets", "bitrate_bps", "mean_fps")


def build_mix(store: MetricsStore, size: int = MIX_SIZE) -> list[tuple[str, StoreQuery]]:
    """``size`` queries in a fixed shuffle, shaped to the store's content.

    The shuffle does not follow ``--seed``: which meeting or which hour a
    slot asks for would otherwise move the percentiles more than any change
    to the store could."""
    records = store.query(StoreQuery(kinds=ALL_KINDS)).records
    if not records:
        raise ValueError(f"{store.directory}: empty store, nothing to query")
    rng = random.Random(0x9E3779B1)
    low = min(float(r["start"]) for r in records)
    high = max(float(r["end"]) for r in records)
    span = max(high - low, 1.0)
    meeting_ids = sorted({r["meeting_id"] for r in records if r["kind"] == "meeting"})
    widths = [r["end"] - r["start"] for r in records if r["kind"] == "window"]
    window_width = max(sorted(widths)[len(widths) // 2], 1.0) if widths else 10.0

    def ranged(fraction: float) -> tuple[float, float]:
        width = span * fraction
        start = low + rng.random() * (span - width)
        return start, start + width

    def make(shape: str) -> StoreQuery:
        if shape == "meeting" and meeting_ids:
            return StoreQuery(kinds=("window", "stream"), meeting_id=rng.choice(meeting_ids))
        if shape == "media":
            start, end = ranged(1 / 50)
            return StoreQuery(
                start=start, end=end, kinds=("window", "stream"),
                media=rng.choice(("audio", "video", "screen")), metrics=_PROJECTION,
            )
        if shape == "reagg":
            start, end = ranged(1 / 5)
            return StoreQuery(
                start=start, end=end, kinds=("window",),
                reaggregate_seconds=6 * window_width,
            )
        start, end = ranged(1 / 400)
        return StoreQuery(start=start, end=end, kinds=ALL_KINDS)

    mix = []
    for shape, share in SHAPES:
        mix.extend((shape, make(shape)) for _ in range(round(size * share)))
    rng.shuffle(mix)
    return mix


def run_rounds(store: MetricsStore, mix: list, budget: float) -> dict:
    """Run the mix at least once, and again while ``budget`` seconds last.

    Returns per-slot best latencies (seconds), the rounds completed, and the
    plan accounting of the first round (segments skipped, records examined
    and returned) for the per-layer ratios.
    """
    best = [float("inf")] * len(mix)
    plan = {"skipped": 0, "scanned": 0, "examined": 0, "returned": 0}
    rounds = 0
    deadline = time.perf_counter() + budget
    while rounds == 0 or time.perf_counter() < deadline:
        for slot, (_shape, query) in enumerate(mix):
            start = time.perf_counter()
            result = store.query(query)
            elapsed = time.perf_counter() - start
            if elapsed < best[slot]:
                best[slot] = elapsed
            if rounds == 0:
                plan["skipped"] += result.segments_skipped
                plan["scanned"] += result.segments_scanned
                plan["examined"] += result.records_examined
                plan["returned"] += len(result.records)
        rounds += 1
    return {"latencies": best, "rounds": rounds, "plan": plan}


def latency_ms(latencies: list[float], q: float) -> float:
    return 1000.0 * percentile(latencies, q)


def shape_p50_ms(mix: list, latencies: list[float], shape: str) -> float:
    """Median latency of one shape's slots (0.0 when the mix has none)."""
    chosen = [lat for (name, _), lat in zip(mix, latencies) if name == shape]
    return latency_ms(chosen, 0.5) if chosen else 0.0


def index_mismatches(store: MetricsStore, mix: list, per_shape: int = 3) -> tuple[int, int]:
    """Compare indexed and full-scan answers for a few queries of every
    shape; returns ``(compared, mismatched)``."""
    compared = mismatched = 0
    seen: dict[str, int] = {}
    for shape, query in mix:
        if seen.get(shape, 0) >= per_shape:
            continue
        seen[shape] = seen.get(shape, 0) + 1
        compared += 1
        indexed = store.query(query).records
        scanned = store.query(replace(query, use_index=False)).records
        if indexed != scanned:
            mismatched += 1
    return compared, mismatched
