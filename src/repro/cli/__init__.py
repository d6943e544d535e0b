"""``zoom-analysis`` — the command-line face of the library.

Subcommands mirror the paper's workflow, one module per verb:

* ``simulate``  — generate a meeting or campus trace to a pcap (the stand-in
  for a real capture);
* ``filter``    — run a pcap through the P4 capture-pipeline model
  (optionally anonymizing), writing the Zoom-only pcap;
* ``analyze``   — the full passive analysis: meetings, streams, Table 2/3
  style shares, latency, per-stream metrics; optional ML feature CSV;
* ``analyze-live`` — the monitoring daemon over a capture directory or a
  live interface;
* ``dissect``   — Wireshark-plugin style packet dissection;
* ``entropy``   — the §4.2 reverse-engineering sweep over a flow;
* ``query``     — slice a persistent metrics store (``analyze-live
  --store``) by time, meeting, and media type;
* ``backfill``  — load pre-store JSONL window logs or batch captures into
  a metrics store;
* ``compact``   — store maintenance: merge small segments, enforce
  retention;
* ``fleet``     — simulate, inspect and query a multi-node monitor fleet.

Option groups several verbs share are declared once in
:mod:`repro.cli.options`.  Run ``zoom-analysis <subcommand> --help`` for
options.
"""

from __future__ import annotations

import argparse

from repro.cli import (
    analyze,
    analyze_live,
    backfill,
    compact,
    dissect,
    entropy,
    fleet,
    query,
    simulate,
)
from repro.cli import filter as filter_verb


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zoom-analysis",
        description="Passive measurement of Zoom performance (IMC'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in (
        simulate, filter_verb, analyze, analyze_live, query, backfill, compact,
        fleet, dissect, entropy,
    ):
        verb.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
