"""Fixed-width time binning used by the §6.2 campus analysis.

The paper computes every per-stream metric in one-second bins (≈33 million
data points over the 12-hour trace).  :class:`TimeBinner` is the shared
accumulator: feed (time, value) points, read back per-bin sums, counts, or
means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class _Bin:
    total: float = 0.0
    count: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan


class TimeBinner:
    """Accumulates scalar samples into fixed-width time bins.

    Bins are indexed by ``floor(time / width)``; they are created lazily so
    sparse traces stay cheap.
    """

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise ValueError("bin width must be positive")
        self.width = width
        self._bins: dict[int, _Bin] = {}

    def add(self, time: float, value: float = 1.0) -> None:
        """Add one sample at ``time``."""
        index = int(time // self.width)
        slot = self._bins.get(index)
        if slot is None:
            slot = self._bins[index] = _Bin()
        slot.total += value
        slot.count += 1

    def __len__(self) -> int:
        return len(self._bins)

    @property
    def span(self) -> tuple[int, int] | None:
        """(first, last) occupied bin index, or ``None`` when empty."""
        if not self._bins:
            return None
        return min(self._bins), max(self._bins)

    def sums(self, *, fill_gaps: bool = True) -> list[tuple[float, float]]:
        """Per-bin (bin start time, sum) in time order.

        With ``fill_gaps`` empty bins between the first and last occupied
        bin are reported as zero — a stream that sent nothing for a second
        really had zero throughput that second.
        """
        return self._series(lambda b: b.total, 0.0, fill_gaps)

    def counts(self, *, fill_gaps: bool = True) -> list[tuple[float, int]]:
        """Per-bin (bin start time, sample count)."""
        return self._series(lambda b: b.count, 0, fill_gaps)

    def means(self, *, fill_gaps: bool = False) -> list[tuple[float, float]]:
        """Per-bin (bin start time, mean value); gap bins are NaN if filled."""
        return self._series(lambda b: b.mean, math.nan, fill_gaps)

    def rates(self, *, fill_gaps: bool = True) -> list[tuple[float, float]]:
        """Per-bin (bin start time, sum / width) — e.g. bytes/s from bytes."""
        return [
            (time, total / self.width) for time, total in self.sums(fill_gaps=fill_gaps)
        ]

    def _series(self, extract, empty_value, fill_gaps: bool) -> list:
        if not self._bins:
            return []
        if not fill_gaps:
            return [
                (index * self.width, extract(self._bins[index]))
                for index in sorted(self._bins)
            ]
        first, last = self.span  # type: ignore[misc]
        out = []
        for index in range(first, last + 1):
            slot = self._bins.get(index)
            out.append(
                (index * self.width, extract(slot) if slot is not None else empty_value)
            )
        return out

    def values(self) -> list[float]:
        """All per-bin sums, unordered by need (for CDFs)."""
        return [slot.total for slot in self._bins.values()]

    def merge_from(self, other: "TimeBinner") -> None:
        """Fold another binner's bins into this one (sharded-result merge).

        Bin widths must match — shard analyzers are constructed identically,
        so a mismatch means the caller mixed unrelated binners.
        """
        if other.width != self.width:
            raise ValueError(
                f"cannot merge binners of width {other.width} into {self.width}"
            )
        for index, slot in other._bins.items():
            mine = self._bins.setdefault(index, _Bin())
            mine.total += slot.total
            mine.count += slot.count
