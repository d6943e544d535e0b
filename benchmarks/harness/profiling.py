"""Hooks installed from outside the program: layer profile, opcode count.

Nothing under ``src/`` is edited for the benchmark, so the per-layer view
comes from two interpreter hooks the harness installs around the same
public calls the untraced runs make:

* :class:`LayerProfile` — one ``cProfile.Profile`` per thread (3.11's
  profiler is per-thread; ``threading.setprofile`` starts one in the
  service's ingest thread).  Every profiled function is charged to a
  *layer* — one of this repository's packages.  Built-in and standard-library
  code has no layer of its own: its self time is charged, through the
  profiler's caller table, to the layer that called it, so ``net`` carries
  its ``struct.unpack_from`` calls and ``store`` its ``json``/``gzip`` time.
  ``ipaddress`` is the one exception, kept visible as ``stdlib.ipaddress``.
* :class:`OpcodeCounter` — ``sys.settrace`` with ``f_trace_opcodes`` on
  every frame of every thread, counting bytecode instructions executed.
  The count repeats exactly where the program does, which makes it the one
  metric a noisy shared host cannot blur.
"""

from __future__ import annotations

import cProfile
import sys
import threading
from collections import defaultdict
from pathlib import Path

from common import HARNESS_DIR, SRC_DIR

LAYERS = (
    "net", "dataplane", "core.pipeline", "core.stages", "core.detector",
    "protocols", "zoom", "rtp", "core.streams", "core.meetings",
    "core.metrics", "core.events", "core.rolling", "service", "qoe", "store",
    "telemetry", "stdlib.ipaddress", "other",
)

STAGES = ("decode", "classify", "demux", "assemble", "metrics")

# Longest prefix wins; paths are relative to src/repro.
_REPRO_LAYERS = (
    ("core/stages/", "core.stages"),
    ("core/metrics/", "core.metrics"),
    ("core/pipeline.py", "core.pipeline"),
    ("core/session.py", "core.pipeline"),
    ("core/sharded.py", "core.pipeline"),
    ("core/detector.py", "core.detector"),
    ("core/streams.py", "core.streams"),
    ("core/meetings.py", "core.meetings"),
    ("core/events.py", "core.events"),
    ("core/rolling.py", "core.rolling"),
    ("net/", "net"),
    ("dataplane/", "dataplane"),
    ("protocols/", "protocols"),
    ("zoom/", "zoom"),
    ("rtp/", "rtp"),
    ("service/", "service"),
    ("qoe/", "qoe"),
    ("store/", "store"),
    ("telemetry/", "telemetry"),
)

_HARNESS = "harness"  # the harness's own frames: measured, then left out
_PROPAGATION_ROUNDS = 12
_REPRO_ROOT = str(SRC_DIR / "repro") + "/"
_HARNESS_ROOT = str(HARNESS_DIR) + "/"


def _static_layer(code) -> str | None:
    """The layer a function belongs to by where it is defined; ``None`` for
    built-ins and standard-library code, which inherit their caller's."""
    if isinstance(code, str):
        return None
    filename = code.co_filename
    if filename.startswith(_REPRO_ROOT):
        relative = filename[len(_REPRO_ROOT):]
        for prefix, layer in _REPRO_LAYERS:
            if relative.startswith(prefix):
                return layer
        return "other"
    if filename.startswith(_HARNESS_ROOT):
        return _HARNESS
    if filename.endswith("/ipaddress.py"):
        return "stdlib.ipaddress"
    return None


class LayerProfile:
    """Profile every thread between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self._profiles: list[cProfile.Profile] = []
        self._marks: list[tuple[str, tuple[dict, dict]]] = []

    def _enable_here(self, *_args) -> None:
        profile = cProfile.Profile()
        self._profiles.append(profile)
        profile.enable()  # replaces this bootstrap hook in the calling thread

    def start(self) -> None:
        threading.setprofile(self._enable_here)
        self._enable_here()

    def stop(self) -> None:
        threading.setprofile(None)
        for profile in self._profiles:
            profile.disable()

    def mark_request(self, kind: str) -> None:
        """Close one request.  Only the raw profiler tables are copied here;
        :meth:`request_records` attributes them after the run, so the hook
        stays cheap while the program is being timed."""
        self._marks.append((kind, self._tables()))

    def request_records(self) -> list[dict]:
        """One record per request: what every layer did between the previous
        mark and this one (self seconds, calls, boundary crossings)."""
        records = []
        previous: dict = {}
        for index, (kind, tables) in enumerate(self._marks):
            layers = _attribute(*tables)["layers"]
            record = {"request": index, "kind": kind, "layers": {}}
            for layer, now in layers.items():
                before = previous.get(layer, {"self_s": 0.0, "calls": 0.0, "crossings": 0})
                delta = {key: now[key] - before[key] for key in now}
                if delta["calls"] or delta["self_s"] > 0:
                    record["layers"][layer] = delta
            previous = layers
            records.append(record)
        return records

    def _tables(self) -> tuple[dict, dict]:
        entries: dict = {}
        pairs: dict = {}
        for profile in list(self._profiles):
            for entry in profile.getstats():
                slot = entries.setdefault(entry.code, [0, 0.0, 0.0])
                slot[0] += entry.callcount
                slot[1] += entry.inlinetime
                slot[2] += entry.totaltime
                for sub in entry.calls or ():
                    pair = pairs.setdefault((entry.code, sub.code), [0, 0.0])
                    pair[0] += sub.callcount
                    pair[1] += sub.inlinetime
        return entries, pairs

    def totals(self) -> dict:
        """Per-layer self seconds, Python-level calls and boundary crossings,
        plus each pipeline stage's cumulative ``process`` seconds."""
        return _attribute(*self._tables())


def _attribute(entries: dict, pairs: dict) -> dict:
    static = {code: _static_layer(code) for code in entries}
    callers: dict = defaultdict(list)
    for (caller, callee), (calls, inline) in pairs.items():
        callers[callee].append((caller, calls, inline))
    # Layer weights of unlayered (built-in / stdlib) functions, propagated
    # from their callers; each round reaches one call deeper into the
    # standard library (gzip and json chains are several calls deep).
    weights: dict = {
        code: ({layer: 1.0} if layer else {"other": 1.0}) for code, layer in static.items()
    }
    unlayered = [code for code, layer in static.items() if layer is None]
    for _ in range(_PROPAGATION_ROUNDS):
        for code in unlayered:
            mix: dict = defaultdict(float)
            total = 0.0
            for caller, calls, inline in callers.get(code, ()):
                share = inline if inline > 0 else calls * 1e-9
                total += share
                for layer, weight in weights.get(caller, {"other": 1.0}).items():
                    mix[layer] += share * weight
            if total > 0:
                weights[code] = {layer: value / total for layer, value in mix.items()}
    layers = {
        layer: {"self_s": 0.0, "calls": 0.0, "crossings": 0} for layer in (*LAYERS, _HARNESS)
    }
    for code, (calls, inline, _total) in entries.items():
        python_level = not isinstance(code, str)
        for layer, weight in weights[code].items():
            layers[layer]["self_s"] += inline * weight
            if python_level:
                layers[layer]["calls"] += calls * weight
    for (caller, callee), (calls, _inline) in pairs.items():
        source, target = static.get(caller), static.get(callee)
        if source and target and source != target:
            layers[target]["crossings"] += calls
    stages = {}
    for code, (_calls, _inline, total) in entries.items():
        if isinstance(code, str) or code.co_name != "process":
            continue
        name = Path(code.co_filename).stem
        if static[code] == "core.stages" and name in STAGES:
            stages[name] = total
    layers.pop(_HARNESS)
    return {"layers": layers, "stage_cum_s": stages}


class OpcodeCounter:
    """Count bytecode instructions executed on every thread while active.

    Each thread counts into its own cell: a shared ``+=`` would lose
    updates when the interpreter switches threads between load and store.
    """

    def __init__(self) -> None:
        self._tracers: dict[int, object] = {}
        self._cells: list[list[int]] = []

    @property
    def count(self) -> int:
        return sum(cell[0] for cell in self._cells)

    def _global(self, frame, _event, _arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        ident = threading.get_ident()
        tracer = self._tracers.get(ident)
        if tracer is None:
            cell = [0]
            self._cells.append(cell)

            def tracer(_frame, event, _arg):
                if event == "opcode":
                    cell[0] += 1

            self._tracers[ident] = tracer
        return tracer

    def __enter__(self) -> "OpcodeCounter":
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc: object) -> None:
        sys.settrace(None)
        threading.settrace(None)
