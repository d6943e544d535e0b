"""Classify stage: protocol-registry claim dispatch and non-media exits.

Asks each enabled :class:`~repro.protocols.base.ProtocolPlugin`, in
deterministic ``(priority, name)`` order, to classify the parsed packet;
the first *claiming* verdict wins, and the claimant's
:meth:`~repro.protocols.base.ProtocolPlugin.on_claimed` runs the protocol's
non-media side channels (TLS RTT folding, STUN endpoint accounting) and
decides whether the packet continues into demux.  With the default
Zoom-only registry this is bit-identical to the pre-registry Zoom decision
tree (proven by the unregenerated golden snapshots).

When several plugins are enabled, lower-priority plugins are additionally
probed side-effect-free (:meth:`would_claim`) after a claim so overlapping
detection rules surface as a ``protocols.conflicts`` counter instead of
silently disappearing into precedence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.detector import ZoomClass
from repro.core.stages.base import PacketContext
from repro.net.batch import BatchPrefilter, PrefilterVerdict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisResult
    from repro.net.batch import FrameBatch, HeaderColumns
    from repro.protocols.base import ProtocolPlugin


class ClassifyStage:
    """Registry claim dispatch plus the per-protocol early exits."""

    name = "classify"

    def __init__(
        self, result: "AnalysisResult", plugins: Sequence["ProtocolPlugin"]
    ) -> None:
        self._result = result
        self._telemetry = result.telemetry
        self._prefilter: BatchPrefilter | None = None
        self._plugins: tuple["ProtocolPlugin", ...] = tuple(
            sorted(plugins, key=lambda plugin: (plugin.priority, plugin.name))
        )
        self._multi = len(self._plugins) > 1

    @property
    def plugins(self) -> tuple["ProtocolPlugin", ...]:
        return self._plugins

    def process(self, ctx: PacketContext) -> bool:
        """Set ``ctx.klass`` and, on a claim, ``ctx.plugin``/``ctx.protocol``.

        The per-class and per-claimant telemetry counters are tallied from
        those fields by the pipeline's survivor loop, once per batch.
        """
        parsed = ctx.parsed
        claimant = None
        claim_index = 0
        klass = None
        for index, plugin in enumerate(self._plugins):
            verdict = plugin.classify(parsed)
            if verdict is None:
                continue
            if verdict.claimed:
                claimant, claim_index, klass = plugin, index, verdict
                break
            if klass is None:
                # Remember the first explicit non-claiming verdict (Zoom's
                # NOT_ZOOM) so its telemetry class counter keeps ticking.
                klass = verdict
        if klass is None:
            klass = ZoomClass.NOT_ZOOM
        ctx.klass = klass
        if claimant is None:
            return False
        ctx.plugin = claimant
        ctx.protocol = claimant.name
        result = self._result
        result.packets_zoom += 1
        if self._multi:
            tel = self._telemetry
            if tel.enabled:
                for other in self._plugins[claim_index + 1 :]:
                    if other.would_claim(parsed):
                        tel.count("protocols.conflicts")
        return claimant.on_claimed(ctx, result)

    # ------------------------------------------------------------ batch path

    def process_batch(
        self, batch: "FrameBatch", columns: "HeaderColumns"
    ) -> PrefilterVerdict:
        """Run the compiled prefilter over one batch's header columns.

        The prefilter compiles the **union** of the enabled plugins'
        match-action rules, so dropped frames are provably unclaimed by
        every plugin on the per-packet decision tree and provably touch no
        plugin state (see ``repro.net.batch``); their per-plugin and
        classify accounting is applied in bulk here with exactly the
        values :meth:`process` would have produced.  Survivors and hint
        frames come back as index lists for lazy materialization.
        """
        prefilter = self._prefilter
        if prefilter is None:
            prefilter = self._prefilter = BatchPrefilter.from_plugins(self._plugins)
        # Fold in endpoints learned outside the prefilter's own sniffing
        # (STUN hints interleaved between batches).
        for plugin in self._plugins:
            for tracker in plugin.stun_trackers:
                prefilter.sync_stun(tracker)
        verdict = prefilter.apply(batch, columns)
        if verdict.dropped:
            for plugin in self._plugins:
                plugin.account_unclaimed_batch(verdict.dropped)
            tel = self._telemetry
            if tel.enabled:
                tel.count("classify.class.not_zoom", verdict.dropped)
                tel.count("classify.bytes.not_zoom", verdict.dropped_bytes)
        return verdict
