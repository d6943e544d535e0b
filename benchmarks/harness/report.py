"""Suite reports: assemble, print, compare two, and the A/A check.

A report keeps every run's value beside the headline so a reader can redo
the statistics.  The headline of a metric is the *best* run when all runs
share a seed — contention on a shared host only ever slows a run — and the
median when seeds vary (different inputs are not repeats of one
measurement).  The spread is the driver's: inter-quartile distance over the
median (full range with fewer than four runs).
"""

from __future__ import annotations

import shutil
import statistics
from pathlib import Path

from common import BASELINE_JSON, WORK_DIR, dump_json, spread
from metrics import BETTER, BOUNDS, END_TO_END, UNITS

#: Workloads whose bytecode count must repeat exactly, run to run and under
#: different PYTHONHASHSEEDs (campus_live's queue-poll loop depends on timing).
EXACT_PYOPS = ("border98", "meeting_media")
_HASH_SEEDS = ("1", "2")


def _headline(name: str, values: list[float], vary_seed: bool) -> float:
    if vary_seed:
        return statistics.median(values)
    return max(values) if BETTER[name] == "higher" else min(values)


def assemble(args, runs: dict, traced: dict, host: dict) -> dict:
    workloads = {}
    for name, passes in runs.items():
        end_to_end = {}
        for metric, *_ in END_TO_END:
            values = [run["metrics"][metric] for run in passes]
            end_to_end[metric] = {
                "value": _headline(metric, values, args.vary_seed),
                "unit": UNITS[metric],
                "runs": values,
                "median": statistics.median(values),
                "spread": spread(values),
            }
        layer_run = traced[name]
        workloads[name] = {
            "items": passes[0]["detail"]["items"],
            "zoom_share": passes[0]["detail"]["zoom_share"],
            "end_to_end": end_to_end,
            "per_layer": layer_run["metrics"],
            "attempted": sum(r["attempted"] for r in passes) + layer_run["attempted"],
            "failed": sum(r["failed"] for r in passes) + layer_run["failed"],
            "problems": [p for r in (*passes, layer_run) for p in r["problems"]],
            "runs": [run["detail"] for run in passes],
            "traced": layer_run["detail"],
        }
    return {
        "schema": 1,
        "claim": None,
        "seed": args.seed,
        "vary_seed": args.vary_seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "passes": args.passes,
        "host": host,
        "workloads": workloads,
    }


def write(path: Path, suite: dict) -> None:
    dump_json(path, suite)
    print(f"report: {path}")


# ------------------------------------------------------------------ printing


def _print_host(host: dict) -> None:
    pressure = host["cpu_pressure_share"]
    print(
        f"host: {host['cpu_count']} cpus (affinity {host['sched_affinity']}), "
        f"python {host['python']}, {host['platform']}, load {host['loadavg_start']}, "
        f"steal {host['steal_jiffies']} jiffies ({host['steal_share']:.1%}), "
        f"cpu pressure {'n/a' if pressure is None else format(pressure, '.1%')}, "
        f"git {host['git_sha']}, noisy={str(host['noisy']).lower()}"
    )


def _print_metrics(metrics: dict, skip_zero: bool = False) -> None:
    for name, value in metrics.items():
        if skip_zero and not value:
            continue
        print(f"  {name:40s} {value:>14.6g} {UNITS[name]}")


def print_run(run: dict, host: dict) -> None:
    _print_host(host)
    detail = run["detail"]
    print(f"workload {run['workload']} seed {run['seed']} trace {run['trace']}")
    if not run["trace"]:
        print(
            f"  {detail['items']} items, zoom_share {detail['zoom_share']:.4f}: "
            f"{run['metrics']['ingest_per_s']:.0f} items/s is "
            f"{run['metrics']['ingest_per_s'] * detail['zoom_share']:.0f} media packets/s; "
            f"{detail['reps']['n']} reps, {detail['query_samples']} queries x "
            f"{detail['query_rounds']} rounds"
        )
    _print_metrics(run["metrics"], skip_zero=bool(run["trace"]))
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    print(f"  failed_share {run['failed']}/{run['attempted']}")


def print_suite(suite: dict) -> None:
    _print_host(suite["host"])
    for name, workload in suite["workloads"].items():
        print(f"== {name}: {workload['items']} items, zoom_share {workload['zoom_share']:.4f}, "
              f"failed_share {workload['failed']}/{workload['attempted']}")
        for metric, entry in workload["end_to_end"].items():
            print(f"  {metric:18s} {entry['value']:>14.6g} {entry['unit']:6s} "
                  f"median {entry['median']:.6g} spread {entry['spread']:.3f} "
                  f"over {len(entry['runs'])} runs")
        _print_metrics(workload["per_layer"], skip_zero=True)
        for problem in workload["problems"]:
            print(f"  FAILED {problem}")


# ------------------------------------------------------------------ compare


def _worsening(metric: str, old: float, new: float) -> float:
    """Relative change of ``new`` against ``old``, positive when worse."""
    change = (new - old) / abs(old) if old else 0.0
    return -change if BETTER[metric] == "higher" else change


def _verdict(metric: str, old: dict, new: dict) -> tuple[str, float]:
    bound = BOUNDS[metric]
    worse = _worsening(metric, old["value"], new["value"])
    noise = max(old["spread"], new["spread"])
    new_above = min(new["runs"]) > max(old["runs"])
    new_below = max(new["runs"]) < min(old["runs"])
    if noise > bound and not (new_above or new_below):
        return "unresolved", worse
    if worse > bound:
        return "worse", worse
    every_run_better = new_above if BETTER[metric] == "higher" else new_below
    if every_run_better and -worse > noise:
        return "better", worse
    return "same", worse


def compare(old: dict, new: dict) -> int:
    """One row per workload x end-to-end metric; exit 1 on any ``worse``."""
    print(f"{'workload':14s} {'metric':16s} {'old':>12s} {'new':>12s} "
          f"{'new/old':>8s} {'bound':>6s}  verdict")
    worst = 0
    for name in old["workloads"]:
        if name not in new["workloads"]:
            continue
        for metric, *_ in END_TO_END:
            a = old["workloads"][name]["end_to_end"][metric]
            b = new["workloads"][name]["end_to_end"][metric]
            verdict, _worse = _verdict(metric, a, b)
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            print(f"{name:14s} {metric:16s} {a['value']:>12.6g} {b['value']:>12.6g} "
                  f"{ratio:>8.3f} {BOUNDS[metric]:>6.3f}  {verdict}")
            if verdict == "worse":
                worst = 1
    return worst


# --------------------------------------------------------------------- A/A


def aa(args, run_suite, run_phase) -> int:
    """Two suites of the same code: every end-to-end metric must agree
    within its bound and the bytecode counts must repeat exactly; the
    observed spreads are written to baseline.json."""
    first = run_suite(args, "A ")
    second = run_suite(args, "B ")
    out = Path(args.out)
    write(out.with_name(out.stem + "_a.json"), first)
    write(out.with_name(out.stem + "_b.json"), second)
    failures = []
    spreads: dict = {}
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        if a["failed"] or b["failed"]:
            failures.append(f"{name}: correctness gate failed")
        for metric, *_ in END_TO_END:
            ea, eb = a["end_to_end"][metric], b["end_to_end"][metric]
            change = abs(_worsening(metric, ea["value"], eb["value"]))
            spreads.setdefault(name, {})[metric] = {
                "a": ea["value"], "b": eb["value"], "ab_change": change,
                "spread_a": ea["spread"], "spread_b": eb["spread"],
            }
            if change > BOUNDS[metric]:
                failures.append(
                    f"{name} {metric}: A {ea['value']:.6g} vs B {eb['value']:.6g} "
                    f"differ by {change:.3f} > bound {BOUNDS[metric]}"
                )
        if name in EXACT_PYOPS and not args.vary_seed:
            counts = {
                detail["opcodes"] for suite in (a, b) for detail in suite["runs"]
            }
            scratch = WORK_DIR / f"aa-{name}"
            for hash_seed in _HASH_SEEDS:
                result, _ = run_phase(
                    "pyops", name, args.seed, args.scale, scratch,
                    env={"PYTHONHASHSEED": hash_seed}, tag=hash_seed,
                )
                counts.add(result["opcodes"])
            shutil.rmtree(scratch, ignore_errors=True)
            spreads[name]["pyops_per_item"]["distinct_counts"] = len(counts)
            if len(counts) != 1:
                failures.append(f"{name}: bytecode count does not repeat: {sorted(counts)}")
    dump_json(BASELINE_JSON, {
        "claim": None,
        "seed": args.seed, "vary_seed": args.vary_seed, "scale": args.scale,
        "seconds": args.seconds, "passes": args.passes,
        "host": first["host"],
        "baseline": {
            name: {metric: entry["value"] for metric, entry in w["end_to_end"].items()}
            for name, w in first["workloads"].items()
        },
        "observed": spreads,
    })
    print_suite(first)
    print(f"{'workload':14s} {'metric':16s} {'A':>12s} {'B':>12s} {'|change|':>9s} "
          f"{'bound':>6s} {'spread A':>9s} {'spread B':>9s}")
    for name, per_metric in spreads.items():
        for metric, row in per_metric.items():
            print(f"{name:14s} {metric:16s} {row['a']:>12.6g} {row['b']:>12.6g} "
                  f"{row['ab_change']:>9.4f} {BOUNDS[metric]:>6.3f} "
                  f"{row['spread_a']:>9.4f} {row['spread_b']:>9.4f}")
    for failure in failures:
        print(f"A/A FAILED {failure}")
    print(f"A/A {'failed' if failures else 'passed'}; spreads written to {BASELINE_JSON}")
    return 1 if failures else 0
