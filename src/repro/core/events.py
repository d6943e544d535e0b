"""Typed analysis events and the sink registry.

The staged analyzer (:mod:`repro.core.stages`) tells the layers built on
top of it — service windows, QoE scoring, rolling eviction — about its
stream and meeting lifecycle through events published on an
:class:`EventBus`, rather than those layers reaching into the analyzer's
internals.  (The analyzer's own estimators, bit-rate binning and RTCP
clock sync, are fed by direct calls from the stages.)  The bus carries:

* :class:`StreamOpened` / :class:`StreamUpdated` — a media stream appeared /
  received another decoded packet record (published by the assemble stage);
* :class:`MeetingFormed` — the grouping heuristic opened a new meeting;
* :class:`StreamEvicted` — a stream was finalized and released via
  :meth:`repro.core.pipeline.ZoomAnalyzer.evict_stream`;
* :class:`MeetingQoeChanged` — a meeting's QoE state machine transitioned
  (published by :class:`~repro.qoe.tracker.MeetingQoeTracker`).

Subscribe either with a bare callable (``bus.subscribe(StreamEvicted, fn)``)
or by subclassing :class:`AnalysisSink` and overriding the ``on_*`` hooks,
then registering the sink (``bus.register(sink)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.meetings import Meeting
from repro.core.streams import MediaStream, RTPPacketRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.pipeline import StreamMetrics
    from repro.qoe.machine import QoeSample, QoeState


@dataclass(frozen=True, slots=True)
class AnalysisEvent:
    """Base class: every event carries the capture time it happened at."""

    timestamp: float


@dataclass(frozen=True, slots=True)
class StreamOpened(AnalysisEvent):
    """First decoded packet of a new media stream."""

    stream: MediaStream
    record: RTPPacketRecord


@dataclass(frozen=True, slots=True)
class StreamUpdated(AnalysisEvent):
    """Another decoded packet arrived on an existing stream."""

    stream: MediaStream
    record: RTPPacketRecord


@dataclass(frozen=True, slots=True)
class StreamEvicted(AnalysisEvent):
    """A stream was finalized and removed from the live analyzer state.

    Carries the full stream object and its metric estimators so subscribers
    can compute closing summaries — after this event the analyzer itself no
    longer holds either.
    """

    stream: MediaStream
    metrics: "StreamMetrics | None"
    reason: str = "idle"


@dataclass(frozen=True, slots=True)
class MeetingFormed(AnalysisEvent):
    """The grouping heuristic opened a new meeting."""

    meeting: Meeting


@dataclass(frozen=True, slots=True)
class MeetingQoeChanged(AnalysisEvent):
    """A meeting's QoE state machine transitioned (see :mod:`repro.qoe`).

    Emitted by :class:`~repro.qoe.tracker.MeetingQoeTracker` when a meeting
    crosses a hysteresis boundary; ``timestamp`` is the end of the scoring
    window that triggered the transition.  ``sample`` carries the window's
    monitor-visible signals so alert consumers can render the evidence
    without re-deriving it.
    """

    meeting: Meeting
    previous: "QoeState"
    state: "QoeState"
    sample: "QoeSample"
    windows_in_previous: int
    reason: str = ""


EventHandler = Callable[[AnalysisEvent], None]


class EventBus:
    """Synchronous publish/subscribe registry for analysis events.

    Handlers run inline on the analyzer's thread, in subscription order;
    emission for an event type with no subscribers is a dictionary miss.
    """

    __slots__ = ("_handlers",)

    def __init__(self) -> None:
        self._handlers: dict[type, list[EventHandler]] = {}

    def subscribe(self, event_type: type, handler: EventHandler) -> None:
        """Call ``handler(event)`` for every emitted ``event_type``."""
        self._handlers.setdefault(event_type, []).append(handler)

    def unsubscribe(self, event_type: type, handler: EventHandler) -> None:
        handlers = self._handlers.get(event_type)
        if handlers is not None and handler in handlers:
            handlers.remove(handler)

    def has_subscribers(self, event_type: type) -> bool:
        return bool(self._handlers.get(event_type))

    def emit(self, event: AnalysisEvent) -> None:
        """Deliver one event to every subscriber of its exact type."""
        handlers = self._handlers.get(type(event))
        if handlers:
            for handler in handlers:
                handler(event)

    def register(self, sink: "AnalysisSink") -> None:
        """Subscribe every ``on_*`` hook the sink overrides."""
        for event_type, handler in sink.subscriptions():
            self.subscribe(event_type, handler)

    def unregister(self, sink: "AnalysisSink") -> None:
        for event_type, handler in sink.subscriptions():
            self.unsubscribe(event_type, handler)


class AnalysisSink:
    """Base class for event subscribers.

    Override any subset of the ``on_*`` hooks; :meth:`EventBus.register`
    subscribes exactly the overridden ones, so an unused hook costs nothing
    per packet.
    """

    _DISPATCH: dict[str, type] = {
        "on_stream_opened": StreamOpened,
        "on_stream_updated": StreamUpdated,
        "on_stream_evicted": StreamEvicted,
        "on_meeting_formed": MeetingFormed,
        "on_qoe_changed": MeetingQoeChanged,
    }

    def on_stream_opened(self, event: StreamOpened) -> None: ...

    def on_stream_updated(self, event: StreamUpdated) -> None: ...

    def on_stream_evicted(self, event: StreamEvicted) -> None: ...

    def on_meeting_formed(self, event: MeetingFormed) -> None: ...

    def on_qoe_changed(self, event: MeetingQoeChanged) -> None: ...

    def subscriptions(self) -> Iterator[tuple[type, EventHandler]]:
        """(event type, bound handler) pairs for every overridden hook."""
        for name, event_type in self._DISPATCH.items():
            if getattr(type(self), name) is not getattr(AnalysisSink, name):
                yield event_type, getattr(self, name)
