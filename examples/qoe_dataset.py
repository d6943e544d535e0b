#!/usr/bin/env python3
"""Generating a labeled QoE dataset from passive measurements (§8).

The paper's discussion proposes using its fine-grained metrics as *features*
for ML-based quality-of-experience inference, with the passive pipeline
"automatically generat[ing] large, feature-rich data sets from real-world
traffic".  This example builds exactly that dataset from an emulated campus
hour: one row per (stream, second) with every §5 metric as features, plus —
because the emulator knows the truth — a congestion label column that a
trained model would have to predict in the wild.

Run:  python examples/qoe_dataset.py [--out qoe_dataset.csv]
"""

import argparse
import csv
from pathlib import Path

from repro.analysis.export import FEATURE_COLUMNS, feature_rows, stream_id
from repro.core import ZoomAnalyzer
from repro.core.metrics.stalls import detect_stalls
from repro.simulation.campus import CampusTraceConfig, generate_campus_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("qoe_dataset.csv"))
    parser.add_argument("--hours", type=int, default=2)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    print(f"Generating {args.hours} campus hour(s) of Zoom traffic ...")
    trace = generate_campus_trace(
        CampusTraceConfig(
            hours=args.hours,
            meetings_per_hour_peak=2.0,
            congestion_fraction=0.4,  # plenty of label-positive seconds
            seed=args.seed,
        )
    )
    analysis = ZoomAnalyzer().analyze(trace.result.captures)
    rows = feature_rows(analysis)
    print(f"  {len(rows)} feature rows from {len(analysis.streams)} streams")

    # Ground-truth labels from the emulator: seconds where the sending
    # participant's uplink had an active congestion episode.
    congested_seconds: set[tuple[int, int]] = set()
    for config in trace.meeting_configs:
        for participant_index, participant in enumerate(config.participants):
            for event in participant.congestion:
                for second in range(int(event.start), int(event.end) + 1):
                    for media in participant.media:
                        ssrc = (participant_index << 8) | int(media)
                        congested_seconds.add((ssrc, second))

    # Stall predictions add a second derived label column.
    stall_seconds: set[tuple[str, int]] = set()
    for stream in analysis.media_streams():
        metrics = analysis.metrics_for(stream.key)
        for event in detect_stalls(metrics.frame_delay.samples):
            for second in range(int(event.start), int(event.start + event.duration) + 1):
                stall_seconds.add((stream_id(stream), second))

    columns = list(FEATURE_COLUMNS) + ["label_congested", "label_stalled"]
    labeled_positive = 0
    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            congested = int((row["ssrc"], row["second"]) in congested_seconds)
            stalled = int((row["stream_id"], row["second"]) in stall_seconds)
            labeled_positive += congested
            out_row = {}
            for key in FEATURE_COLUMNS:
                value = row[key]
                if isinstance(value, float) and value != value:  # NaN
                    value = ""
                out_row[key] = value
            out_row["label_congested"] = congested
            out_row["label_stalled"] = stalled
            writer.writerow(out_row)
    print(f"wrote {len(rows)} rows ({labeled_positive} congestion-positive) to {args.out}")
    print("feature columns:", ", ".join(FEATURE_COLUMNS))
    print("\nA QoE model would train on the features to predict the labels —")
    print("in production the labels would come from user ratings (§8).")


if __name__ == "__main__":
    main()
