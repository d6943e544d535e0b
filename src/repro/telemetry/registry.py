"""The telemetry registry: monotonic, mergeable counters, timers, and histograms.

A :class:`Telemetry` instance rides on every
:class:`~repro.core.pipeline.AnalysisResult` and is threaded through the
packet path — capture readers, pipeline stages, the sharded driver, and the
rolling eviction policy all record into it.  Three design rules keep it deployable
on a hot path:

* **Monotonic** — every instrument only accumulates (counts, seconds,
  observations, maxima).  There is no reset mid-run, so a snapshot taken at
  any time is a consistent prefix of the run.
* **Mergeable** — shard-local registries combine by summation (counters,
  timers, histograms) or maximum (gauges), so
  :meth:`~repro.core.pipeline.AnalysisResult.merge` can fold per-shard
  telemetry into one registry whose additive totals equal a single-pass run.
* **Near-zero overhead when disabled** — every recording method bails on a
  single attribute check, and the hot call sites in the analyzer check
  ``telemetry.enabled`` once per packet and skip name construction entirely.

Instrument names are dotted paths (``"pipeline.stop.classify"``,
``"capture.frames"``); the conventions in use are documented in
DESIGN.md §"Observability".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: Counter namespaces that are *not* additive across flow-affine shards and
#: therefore excluded when comparing a sharded run against a single pass:
#: ``sharded.*`` exists only on the merged result (partition accounting),
#: ``rolling.*`` exists only in rolling mode, and meeting formation
#: is grouper-instance-local (a meeting whose streams land on two shards is
#: "formed" once per shard, then re-grouped at merge time).
SHARD_VARIANT_PREFIXES: tuple[str, ...] = (
    "sharded.",
    "rolling.",
    "assemble.meetings_formed",
    # Batch-execution bookkeeping: how many batches the input was chopped
    # into, and how many frames the prefilter short-circuited, depend on
    # the execution strategy (batch size, shard partitioning) — never on what the traffic *was*.  The semantic
    # counters (classify.class.*, decode.*, pipeline.stop.*) stay
    # invariant and stay compared.
    "pipeline.batch.",
    "prefilter.",
    # Registry claim/conflict accounting: a shard that sees only a flow's
    # media (its STUN preamble replicated as a hint, not counted) resolves
    # claims against different tracker state than a single pass, and
    # conflict probing is skipped entirely for hint frames.
    "protocols.",
)


def shard_invariant_counters(snapshot: "TelemetrySnapshot") -> dict[str, int]:
    """The counters that must be identical between a single-pass run and the
    merged result of a flow-sharded run over the same capture."""
    return {
        name: value
        for name, value in snapshot.counters.items()
        if not name.startswith(SHARD_VARIANT_PREFIXES)
    }


class Histogram:
    """A power-of-two bucketed histogram of non-negative values.

    Bucket ``i`` counts observations in ``[2**(i-1), 2**i)`` (bucket 0 holds
    zeros and values below 1).  Coarse by design: the consumers are health
    tables and anomaly checks, not percentile SLOs.
    """

    __slots__ = ("buckets", "count", "total", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        bucket = 0 if value < 1 else int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_from(self, other: "Histogram") -> None:
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


@dataclass(frozen=True)
class TelemetrySnapshot:
    """An immutable point-in-time copy of a :class:`Telemetry` registry.

    Attributes:
        counters: Monotonic event counts by dotted name.
        timer_seconds / timer_samples: Accumulated wall time and the number
            of timed samples per timer name.  Stage timers are *sampled*
            (one packet in :data:`Telemetry.TIMING_SAMPLE` is timed), so
            per-packet cost is ``seconds / samples``, not
            ``seconds / packets``.
        maxima: High-water gauges (``record_max``).
        histograms: Serialized :class:`Histogram` payloads.
    """

    counters: dict[str, int] = field(default_factory=dict)
    timer_seconds: dict[str, float] = field(default_factory=dict)
    timer_samples: dict[str, int] = field(default_factory=dict)
    maxima: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def counters_under(self, prefix: str) -> dict[str, int]:
        """All counters whose dotted name starts with ``prefix``, with the
        prefix stripped."""
        offset = len(prefix)
        return {
            name[offset:]: value
            for name, value in self.counters.items()
            if name.startswith(prefix)
        }

    def timer_mean_us(self, name: str) -> float:
        """Mean microseconds per timed sample, 0.0 when never sampled."""
        samples = self.timer_samples.get(name, 0)
        if not samples:
            return 0.0
        return 1e6 * self.timer_seconds.get(name, 0.0) / samples

    def to_dict(self) -> dict:
        """A JSON-serializable dump with deterministically ordered keys."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: {
                    "seconds": self.timer_seconds[name],
                    "samples": self.timer_samples.get(name, 0),
                }
                for name in sorted(self.timer_seconds)
            },
            "maxima": dict(sorted(self.maxima.items())),
            "histograms": {
                name: self.histograms[name] for name in sorted(self.histograms)
            },
        }


class Telemetry:
    """The mutable registry the analyzer records into.

    Args:
        enabled: When ``False``, every recording method is a no-op behind a
            single attribute check and the analyzer skips instrumentation
            branches entirely — the registry stays empty.

    All instruments are created lazily on first use; reading an instrument
    that was never recorded is simply absent from the snapshot.
    """

    #: One packet in this many gets per-stage wall-time measurement.  A
    #: power of two so the hot path can use a bitmask (``seq & MASK == 0``).
    TIMING_SAMPLE = 16
    TIMING_MASK = TIMING_SAMPLE - 1

    __slots__ = ("enabled", "counters", "timer_seconds", "timer_samples",
                 "maxima", "histograms")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.counters: dict[str, int] = {}
        self.timer_seconds: dict[str, float] = {}
        self.timer_samples: dict[str, int] = {}
        self.maxima: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------ recording

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        if not self.enabled:
            return
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float, samples: int = 1) -> None:
        """Accumulate ``seconds`` of wall time (from ``samples`` timed
        observations) into timer ``name``."""
        if not self.enabled:
            return
        self.timer_seconds[name] = self.timer_seconds.get(name, 0.0) + seconds
        self.timer_samples[name] = self.timer_samples.get(name, 0) + samples

    def record_max(self, name: str, value: float) -> None:
        """Raise high-water gauge ``name`` to ``value`` if it is larger."""
        if not self.enabled:
            return
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        if not self.enabled:
            return
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -------------------------------------------------------------- merging

    def merge_from(self, other: "Telemetry") -> None:
        """Fold another registry into this one (sums; maxima by max).

        An enabled input makes the merged registry enabled, so a merged
        result's telemetry reflects whatever its shards recorded.
        """
        if other.enabled:
            self.enabled = True
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, seconds in other.timer_seconds.items():
            self.timer_seconds[name] = self.timer_seconds.get(name, 0.0) + seconds
        for name, samples in other.timer_samples.items():
            self.timer_samples[name] = self.timer_samples.get(name, 0) + samples
        for name, value in other.maxima.items():
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge_from(histogram)

    @staticmethod
    def merged(registries: Iterable["Telemetry"]) -> "Telemetry":
        """A fresh registry holding the sum of ``registries``."""
        result = Telemetry(enabled=False)
        for registry in registries:
            result.merge_from(registry)
        return result

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> TelemetrySnapshot:
        """An immutable copy of the current state."""
        return TelemetrySnapshot(
            counters=dict(self.counters),
            timer_seconds=dict(self.timer_seconds),
            timer_samples=dict(self.timer_samples),
            maxima=dict(self.maxima),
            histograms={
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
        )

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)


def coerce_telemetry(value: "Telemetry | bool | None") -> Telemetry:
    """Normalize the ``telemetry=`` constructor argument used across the
    analyzers: a registry passes through, ``True``/``None`` build an enabled
    one, ``False`` builds a disabled one."""
    if isinstance(value, Telemetry):
        return value
    return Telemetry(enabled=bool(value) if value is not None else True)
