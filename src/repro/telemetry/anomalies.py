"""Anomaly rules over a telemetry snapshot, with stdlib-``logging`` output.

Deployment-grade passive inference needs to know what the monitor silently
discarded (cf. Sharma et al. on app-header-free WebRTC QoE, and the paper's
own §6.2 operational notes).  These checks turn the raw counters into the
handful of warnings an operator actually acts on:

* media-class packets that failed Zoom decoding above a threshold share —
  a protocol change or a misclassifying detector;
* capture-level losses (truncated records, unparseable frames);
* pathological shard imbalance — one worker eating most of the trace means
  the flow hash is degenerate for this capture;
* a batch prefilter passing essentially every frame of a high-volume run —
  the compiled match-action rules are empty or wrong for this tap, so the
  fast path is silently filtering nothing;
* RTCP receiver reports — the paper observed Zoom never sends them (§4.2.1),
  so any appearing is a protocol-drift signal;
* meetings whose QoE state machine entered IMPAIRED or CRITICAL — sustained
  loss, jitter, or delivered-frame-rate collapse (§5) that a user would
  notice, surfaced from the ``qoe.transitions_to.*`` counters;
* live-monitor degradation — a crash-restarting ingest;
* kernel packet-ring drops in live-interface mode — frames lost before
  userspace ever saw them, which no batch re-run can recover;
* metrics-store recoveries — a torn frame truncated from an active segment
  (the writer was killed mid-append) or sealed segments adopted outside the
  manifest (a crash between seal and manifest write); both are handled
  automatically but tell the operator the previous run did not exit
  cleanly.

``log_anomalies`` emits each finding as a structured warning on the
``repro.telemetry`` logger (``extra={"telemetry_counter": ...}``) so existing
log pipelines pick them up without new plumbing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.telemetry.registry import TelemetrySnapshot

LOGGER_NAME = "repro.telemetry"

#: Fraction of media-class packets that may fail Zoom decoding before the
#: run is flagged.  The paper's own traces carry ~10% undecodable *control*
#: remainder among media-class UDP packets, so that share is healthy; the
#: default sits well above it, and a stricter bound (e.g. 0.01 on a capture
#: known to be pre-filtered to pure media) can be passed per call.
UNDECODED_WARN_FRACTION = 0.25

#: A single shard carrying more than this share of all home packets is
#: considered pathologically imbalanced.  A share threshold (rather than a
#: peak-to-mean ratio) keeps the rule meaningful at small shard counts:
#: peak/mean is bounded by the shard count, so a ratio threshold of 4 could
#: never fire on the common 2- and 4-shard deployments.
SHARD_IMBALANCE_SHARE = 0.7

#: Minimum prefiltered frame volume before the pass-rate rule is considered
#: at all — on small captures a 100% pass rate is unremarkable (a pure-Zoom
#: test clip passes everything, correctly).
PREFILTER_MIN_FRAMES = 10_000

#: Batch-prefilter pass rate above which a border-tap deployment is flagged.
#: A tap that sees general traffic should always carry *some* provably
#: non-Zoom background; passing essentially everything usually means the
#: match-action rules were compiled from an empty or wrong subnet list, so
#: the fast path is silently doing no work.
PREFILTER_PASS_WARN_FRACTION = 0.999


@dataclass(frozen=True, slots=True)
class Anomaly:
    """One detected operational anomaly."""

    name: str
    message: str
    counter: str
    value: float


def detect_anomalies(
    snapshot: TelemetrySnapshot,
    *,
    undecoded_fraction: float = UNDECODED_WARN_FRACTION,
    shard_imbalance_share: float = SHARD_IMBALANCE_SHARE,
) -> list[Anomaly]:
    """Evaluate every rule against ``snapshot`` and return the findings."""
    anomalies: list[Anomaly] = []

    undecoded = snapshot.counter("demux.undecoded")
    demux_in = snapshot.counter("demux.media_class_packets")
    if demux_in and undecoded / demux_in > undecoded_fraction:
        anomalies.append(
            Anomaly(
                name="undecoded-media",
                message=(
                    f"{undecoded} of {demux_in} media-class packets "
                    f"({100.0 * undecoded / demux_in:.2f}%) failed Zoom decoding "
                    f"(threshold {100.0 * undecoded_fraction:.2f}%)"
                ),
                counter="demux.undecoded",
                value=undecoded,
            )
        )

    truncated = snapshot.counter("capture.truncated")
    if truncated:
        anomalies.append(
            Anomaly(
                name="truncated-capture",
                message=f"{truncated} truncated record(s) in the capture file",
                counter="capture.truncated",
                value=truncated,
            )
        )

    parse_failures = snapshot.counter("decode.parse_failures")
    if parse_failures:
        anomalies.append(
            Anomaly(
                name="frame-parse-failures",
                message=f"{parse_failures} frame(s) had no decodable Ethernet layer",
                counter="decode.parse_failures",
                value=parse_failures,
            )
        )

    shard_packets = [
        count
        for _, count in sorted(
            (int(k), v)
            for k, v in snapshot.counters_under("sharded.shard_packets.").items()
        )
    ]
    if len(shard_packets) >= 2:
        total = sum(shard_packets)
        peak = max(shard_packets)
        if total > 0 and peak / total > shard_imbalance_share:
            anomalies.append(
                Anomaly(
                    name="shard-imbalance",
                    message=(
                        f"busiest shard holds {peak} of {total} home packets "
                        f"({100.0 * peak / total:.1f}%; threshold "
                        f"{100.0 * shard_imbalance_share:.0f}%) — "
                        "degenerate flow hash?"
                    ),
                    counter="sharded.shard_packets",
                    value=peak,
                )
            )

    kernel_drops = snapshot.counter("dataplane.kernel_drops")
    if kernel_drops:
        anomalies.append(
            Anomaly(
                name="dataplane-kernel-drops",
                message=(
                    f"{kernel_drops} frame(s) dropped in the kernel packet "
                    "ring before the analyzer could read them — the live "
                    "interface is overrunning userspace; these are NOT on "
                    "disk and cannot be recovered by a batch re-run"
                ),
                counter="dataplane.kernel_drops",
                value=kernel_drops,
            )
        )

    restarts = snapshot.counter("service.ingest_restarts")
    if restarts:
        anomalies.append(
            Anomaly(
                name="service-ingest-restarts",
                message=(
                    f"the live monitor's ingest crash-restarted "
                    f"{restarts} time(s) — check the capture directory for "
                    "corrupt or vanishing files"
                ),
                counter="service.ingest_restarts",
                value=restarts,
            )
        )

    torn = snapshot.counter("store.torn_frames")
    if torn:
        anomalies.append(
            Anomaly(
                name="store-torn-frames",
                message=(
                    f"{torn} torn frame(s) truncated from the metrics "
                    "store's active segment(s) on open — the previous "
                    "writer was killed mid-append; at most one record per "
                    "segment was lost"
                ),
                counter="store.torn_frames",
                value=torn,
            )
        )

    orphans = snapshot.counter("store.manifest_orphans")
    if orphans:
        anomalies.append(
            Anomaly(
                name="store-manifest-orphans",
                message=(
                    f"{orphans} sealed segment(s) were missing from the "
                    "store manifest and re-indexed from their footers — "
                    "the previous run stopped between sealing and the "
                    "manifest write"
                ),
                counter="store.manifest_orphans",
                value=orphans,
            )
        )

    passed = snapshot.counter("prefilter.passed")
    prefiltered = passed + snapshot.counter("prefilter.dropped")
    if (
        prefiltered >= PREFILTER_MIN_FRAMES
        and passed / prefiltered > PREFILTER_PASS_WARN_FRACTION
    ):
        anomalies.append(
            Anomaly(
                name="prefilter-pass-through",
                message=(
                    f"the batch prefilter passed {passed} of {prefiltered} "
                    f"raw frames ({100.0 * passed / prefiltered:.2f}%) — on "
                    "a border tap this usually means the Zoom subnet rules "
                    "were not loaded and the fast path is filtering nothing"
                ),
                counter="prefilter.passed",
                value=passed,
            )
        )

    impaired = snapshot.counter("qoe.transitions_to.impaired")
    critical = snapshot.counter("qoe.transitions_to.critical")
    if impaired or critical:
        total_alerts = impaired + critical
        anomalies.append(
            Anomaly(
                name="qoe-impairments",
                message=(
                    f"{total_alerts} meeting QoE alert(s) during the run "
                    f"({impaired} IMPAIRED, {critical} CRITICAL entries) — "
                    "sustained loss/jitter/frame-rate degradation; inspect "
                    "the per-meeting transition log"
                ),
                counter="qoe.alerts",
                value=total_alerts,
            )
        )

    receiver_reports = snapshot.counter("demux.rtcp_receiver_reports")
    if receiver_reports:
        anomalies.append(
            Anomaly(
                name="rtcp-receiver-reports",
                message=(
                    f"{receiver_reports} RTCP receiver report(s) observed — "
                    "the paper found Zoom never sends RRs (§4.2.1); "
                    "possible protocol drift"
                ),
                counter="demux.rtcp_receiver_reports",
                value=receiver_reports,
            )
        )

    return anomalies


def log_anomalies(
    snapshot: TelemetrySnapshot,
    logger: logging.Logger | None = None,
    **thresholds: float,
) -> list[Anomaly]:
    """Run :func:`detect_anomalies` and log each finding as a warning.

    Returns the findings so callers can also render them inline.
    """
    anomalies = detect_anomalies(snapshot, **thresholds)
    if anomalies:
        log = logger if logger is not None else logging.getLogger(LOGGER_NAME)
        for anomaly in anomalies:
            log.warning(
                "telemetry anomaly [%s]: %s",
                anomaly.name,
                anomaly.message,
                extra={"telemetry_counter": anomaly.counter},
            )
    return anomalies
