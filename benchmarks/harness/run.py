"""The one benchmark command: seeded workloads, checked outputs, every metric.

Two ways in:

* **one run** (what ``BENCHMARK.json``'s command and the CI driver call)::

      python3 benchmarks/harness/run.py --workload W --seed N --seconds S --trace 0|1

  measures one workload for ``S`` seconds and prints, as the last line of
  standard output, one JSON object ``{"correct", "attempted", "failed",
  "metrics"}`` — every end-to-end metric with ``--trace 0``, every
  per-layer metric with ``--trace 1``.

* **the suite** (no ``--trace``)::

      python3 benchmarks/harness/run.py [--seed N] [--workload W] [--out PATH]

  makes ``--passes`` passes over the workloads (A B C D A B C D, so a slow
  phase of the host cannot cover every run of one workload), one traced run
  each, and writes one JSON report with host facts; ``--aa`` runs the suite
  twice and holds the two against the bounds, ``--compare OLD NEW`` holds
  two reports against each other.

Every run is closed-loop replay by one client without pacing.  This process
only orchestrates: each phase runs in a fresh child (``worker.py``), whose
peak RSS is read with ``os.wait4``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import report
import traces
from common import (
    BENCHMARK_JSON,
    CACHE_DIR,
    DEFAULT_SEED,
    HARNESS_DIR,
    PINS_JSON,
    SRC_DIR,
    WORK_DIR,
    WORKLOADS,
    dump_json,
    load_json,
    scale_tag,
)
from hostfacts import HostFacts
from metrics import UNITS, per_layer

SETUP_ONLY_CHILDREN = 3  # + the pyops and measure children: 5 set-up samples
CACHED_SEEDS_PER_WORKLOAD = 10  # border98 is ~75 MB a seed at scale 0.5
_PHASE_TIMEOUT_S = {"materialise": 800.0}
_DEFAULT_PHASE_TIMEOUT_S = 170.0


class PhaseFailed(RuntimeError):
    """A child phase exited non-zero; the message carries its log tail."""


def _child_env(extra: dict | None) -> dict:
    env = dict(os.environ)
    path = [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    # Fixed so set/dict iteration order — and with it every count — repeats;
    # --aa checks separately that the counts do not depend on the value.
    env.setdefault("PYTHONHASHSEED", "0")
    env.update(extra or {})
    return env


def run_phase(phase: str, workload: str, seed: int, scale: float, root: Path, *,
              seconds: float | None = None, trace_out: Path | None = None,
              env: dict | None = None, tag: str = "") -> tuple[dict, float]:
    """Run one worker phase in a fresh process; returns its JSON result and
    its peak RSS in MiB (``ru_maxrss`` of exactly that child)."""
    name = phase + tag
    out = root / f"{name}.json"
    command = [
        sys.executable, str(HARNESS_DIR / "worker.py"), phase,
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--work", str(root / name), "--out", str(out),
    ]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    root.mkdir(parents=True, exist_ok=True)
    log_path = root / f"{name}.log"
    with open(log_path, "wb") as log:
        child = subprocess.Popen(command, env=_child_env(env), stdout=log, stderr=log)
    watchdog = threading.Timer(
        _PHASE_TIMEOUT_S.get(phase, _DEFAULT_PHASE_TIMEOUT_S), child.kill
    )
    watchdog.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        watchdog.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        raise PhaseFailed(f"{workload}: phase {name} exited {child.returncode}\n{tail}")
    return load_json(out), usage.ru_maxrss / 1024.0


def run_once(workload: str, seed: int, scale: float, seconds: float, trace: int, *,
             trace_out: Path | None = None) -> dict:
    """One run of one workload: materialise if needed, measure, check."""
    root = WORK_DIR / f"{os.getpid()}-{workload}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        materialise_s = 0.0
        if not (traces.cache_dir(workload, seed, scale) / "truth.json").exists():
            built, _ = run_phase("materialise", workload, seed, scale, root)
            materialise_s = built["materialise_s"]
            _prune_cache(workload)
        run = (_traced_run if trace else _plain_run)(workload, seed, scale, seconds, root, trace_out)
        run.update(workload=workload, seed=seed, trace=trace, materialise_s=materialise_s)
        return run
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _prune_cache(workload: str) -> None:
    """A driver that draws a new seed for every run must not fill the disk:
    keep the most recently built inputs of each workload, drop the rest."""
    entries = sorted(
        CACHE_DIR.glob(f"{workload}-s*-x*"), key=lambda path: path.stat().st_mtime
    )
    for stale in entries[:-CACHED_SEEDS_PER_WORKLOAD]:
        shutil.rmtree(stale, ignore_errors=True)


def _plain_run(workload, seed, scale, seconds, root, _trace_out) -> dict:
    setups = []
    for index in range(SETUP_ONLY_CHILDREN):
        result, _ = run_phase("setup", workload, seed, scale, root, tag=str(index))
        setups.append(result["setup_s"])
    pyops, _ = run_phase("pyops", workload, seed, scale, root)
    measured, rss_mib = run_phase("measure", workload, seed, scale, root, seconds=seconds)
    setups += [pyops["setup_s"], measured["setup_s"]]
    return {
        "metrics": {
            "ingest_per_s": measured["ingest_per_s"],
            "pyops_per_item": pyops["pyops_per_item"],
            "query_p50_ms": measured["query_p50_ms"],
            "query_p95_ms": measured["query_p95_ms"],
            "peak_rss_mib": rss_mib,
            "setup_s": statistics.median(setups),
        },
        "attempted": measured["attempted"] + pyops["attempted"],
        "failed": measured["failed"] + pyops["failed"],
        "problems": measured["problems"] + pyops["problems"],
        "detail": {
            "items": measured["items"],
            "zoom_share": measured["zoom_share"],
            "reps": measured["ingest_per_s_reps"],
            "rep_seconds": measured["rep_seconds"],
            "query_samples": measured["query_samples"],
            "query_rounds": measured["query_rounds"],
            "store_records": measured["store_records"],
            "opcodes": pyops["opcodes"],
            "opcode_items": pyops["items"],
            "setup_samples": setups,
        },
    }


def _traced_run(workload, seed, scale, _seconds, root, trace_out) -> dict:
    profiled, _ = run_phase("profile", workload, seed, scale, root, trace_out=trace_out)
    spanned, _ = run_phase("spans", workload, seed, scale, root)
    values = {**profiled["values"], **spanned["values"]}
    # A layer this workload never executes did no work: its metrics read 0.
    metrics = {name: float(values.get(name, 0.0)) for name, _unit, _better in per_layer()}
    return {
        "metrics": metrics,
        "attempted": profiled["attempted"] + spanned["attempted"],
        "failed": profiled["failed"] + spanned["failed"],
        "problems": profiled["problems"] + spanned["problems"],
        "detail": {
            "requests": profiled["requests"],
            "plain_s": profiled["plain_s"],
            "profiled_s": profiled["profiled_s"],
        },
    }


def result_line(run: dict) -> str:
    """The driver's contract: exactly these four keys, metrics with units."""
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in run["metrics"].items()
        },
    })


def single_run(args) -> int:
    host = HostFacts()
    run = run_once(args.workload, args.seed, args.scale, args.seconds, args.trace)
    report.print_run(run, host.finish())
    print(result_line(run))
    return 0 if run["failed"] == 0 else 1


def run_suite(args, label: str = "") -> dict:
    """``--passes`` untraced passes over the workloads, then one traced run
    of each; returns the report (see README.md for its layout)."""
    host = HostFacts()
    selected = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in selected}
    for index in range(args.passes):
        for name in selected:
            seed = args.seed + index if args.vary_seed else args.seed
            print(f"[{label}pass {index + 1}/{args.passes}] {name} seed={seed}", flush=True)
            runs[name].append(run_once(name, seed, args.scale, args.seconds, 0))
    traced = {}
    out = Path(args.out).resolve()
    for name in selected:
        print(f"[{label}traced] {name}", flush=True)
        out.parent.mkdir(parents=True, exist_ok=True)
        traced[name] = run_once(
            name, args.seed, args.scale, args.seconds, 1,
            trace_out=out.parent / f"trace_{name}.jsonl",
        )
    return report.assemble(args, runs, traced, host.finish())


def pin(args) -> int:
    """Benchmark PRs only: rebuild the default seed's inputs at ``--scale``
    and record their item counts and sha-256s in pins.json."""
    pins = load_json(PINS_JSON)
    for name in WORKLOADS:
        directory = traces.cache_dir(name, DEFAULT_SEED, args.scale)
        shutil.rmtree(directory, ignore_errors=True)
        run_phase("materialise", name, DEFAULT_SEED, args.scale, WORK_DIR / "pin")
        truth = load_json(directory / "truth.json")
        pins["traces"][f"{name}@{scale_tag(args.scale)}"] = {
            "seed": DEFAULT_SEED, "items": truth["items"], "sha256": truth["sha256"],
        }
        print(f"pinned {name}@{scale_tag(args.scale)}: {truth['items']} items")
    shutil.rmtree(WORK_DIR / "pin", ignore_errors=True)
    dump_json(PINS_JSON, pins)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="make one run and print its result line: 0 end-to-end, 1 per-layer")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size; 1 is ~315k frames / 22k / 24k packets / 12k records")
    parser.add_argument("--out", default=str(CACHE_DIR / "results" / "latest.json"),
                        help="suite report; trace_<workload>.jsonl is written beside it")
    parser.add_argument("--passes", type=int, default=2, help="untraced passes of the suite")
    parser.add_argument("--vary-seed", action="store_true",
                        help="pass i runs seed+i (the acceptance check's ten-seeds rule)")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and hold the two against the bounds")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), default=None)
    parser.add_argument("--pin", action="store_true",
                        help="benchmark PRs only: re-pin the default seed's inputs at --scale")
    args = parser.parse_args(argv)

    if args.compare:
        return report.compare(load_json(Path(args.compare[0])), load_json(Path(args.compare[1])))
    if not (SRC_DIR / "repro").is_dir():
        print(f"run.py: the program under test is missing ({SRC_DIR}/repro)", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_json(BENCHMARK_JSON)["run_seconds"])
    try:
        if args.pin:
            return pin(args)
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            return single_run(args)
        if args.aa:
            return report.aa(args, run_suite, run_phase)
        suite = run_suite(args)
        report.write(Path(args.out), suite)
        report.print_suite(suite)
        return 0 if all(w["failed"] == 0 for w in suite["workloads"].values()) else 1
    except PhaseFailed as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
