"""The one tumbling-window clock: watermark-closed, index-ordered, bounded.

Every per-window consumer in this repo — the service's export windows
(:class:`~repro.service.windows.WindowAggregator`) and the QoE tracker's
scoring windows (:class:`~repro.qoe.tracker.MeetingQoeTracker`) — needs the
same lifecycle over *capture time*, and :class:`TumblingWindows` is its only
implementation:

* a timestamp belongs to window ``index = ts // window_seconds``;
* the watermark trails the newest timestamp seen by ``lateness`` seconds;
* a window closes once its end is at or before the watermark, strictly in
  index order, exactly once, through one close callback;
* **the late rule**: input whose window's *end* is at or before the
  watermark gets no slot (:meth:`slot` returns ``None``) — the caller counts
  and drops it.  Comparing the window's end rather than the raw timestamp
  keeps an event sitting exactly on a boundary out of the late bucket, and
  comparing against the watermark rather than "the highest index closed so
  far" makes the verdict independent of which windows happened to hold data;
* an optional cap on simultaneously open windows force-closes the oldest,
  so a capture with a wildly wrong clock cannot grow state without bound.

What a window *holds* is the caller's business: the container maps index →
an accumulator the caller's ``make`` callback builds, and hands it back to
the caller's ``close`` callback.  Counters (late input, forced closes) stay
with the callers too — they name them differently.

:meth:`slot` and :meth:`advance` sit on the per-frame and per-media-packet
path of the live service, so both are plain bound-method calls that
allocate nothing unless a window opens or closes.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

A = TypeVar("A")

_INF = float("inf")


class TumblingWindows(Generic[A]):
    """Index → accumulator map with a watermark lifecycle.

    Args:
        window_seconds: Tumbling window width (> 0).
        lateness: Watermark lag — how long a window stays open after
            capture time passes its end.
        make: ``make(index)`` builds the accumulator of a newly opened
            window.
        close: ``close(index, accumulator, forced)`` receives each window
            exactly once, in index order; ``forced`` is true only for
            closes caused by the open-window cap.
        max_open: Bound on open windows (``None`` = unbounded); opening one
            beyond it force-closes the oldest.

    Attributes:
        max_ts: Newest timestamp :meth:`advance` has seen (``-inf`` before
            the first).
    """

    __slots__ = (
        "window_seconds",
        "lateness",
        "max_open",
        "max_ts",
        "_make",
        "_close",
        "_open",
        "_watermark",
        "_first_end",
    )

    def __init__(
        self,
        window_seconds: float,
        lateness: float,
        make: Callable[[int], A],
        close: Callable[[int, A, bool], None],
        *,
        max_open: int | None = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        self.window_seconds = window_seconds
        self.lateness = lateness
        self.max_open = max_open
        self.max_ts = -_INF
        self._make = make
        self._close = close
        self._open: dict[int, A] = {}
        self._watermark = -_INF
        # End of the oldest open window (inf when none): lets advance()
        # decide "nothing can close" with one comparison.
        self._first_end = _INF

    def __len__(self) -> int:
        """Number of currently open windows."""
        return len(self._open)

    def slot(self, timestamp: float) -> A | None:
        """The accumulator of ``timestamp``'s window, opened on demand;
        ``None`` when that window is already behind the watermark (late)."""
        index = int(timestamp // self.window_seconds)
        if (index + 1) * self.window_seconds <= self._watermark:
            return None
        accumulator = self._open.get(index)
        if accumulator is None:
            accumulator = self._open_window(index)
        return accumulator

    def advance(self, timestamp: float) -> None:
        """Move the clock to ``timestamp`` (no-op unless it is the newest
        seen) and close every window the watermark has now passed."""
        if timestamp <= self.max_ts:
            return
        self.max_ts = timestamp
        watermark = timestamp - self.lateness
        if watermark > self._watermark:
            self._watermark = watermark
            if self._first_end <= watermark:
                self.flush()

    def flush(self, *, final: bool = False) -> list[A]:
        """Close every window the watermark has passed; ``final=True``
        closes all of them and leaves the watermark at infinity, so any
        later input is late.  Idempotent: a window is closed exactly once.
        Returns the accumulators closed by this call, in index order.
        """
        if final:
            self._watermark = _INF
        closed: list[A] = []
        while self._open and self._first_end <= self._watermark:
            closed.append(self._close_window(min(self._open), False))
        return closed

    # ----------------------------------------------------------- internals

    def _open_window(self, index: int) -> A:
        accumulator = self._open[index] = self._make(index)
        end = (index + 1) * self.window_seconds
        if end < self._first_end:
            self._first_end = end
        if self.max_open is not None:
            while len(self._open) > self.max_open:
                self._close_window(min(self._open), True)
        return accumulator

    def _close_window(self, index: int, forced: bool) -> A:
        accumulator = self._open.pop(index)
        self._first_end = (
            (min(self._open) + 1) * self.window_seconds if self._open else _INF
        )
        self._close(index, accumulator, forced)
        return accumulator
