"""Command-line interface.

``repro`` exposes the paper's experiments as subcommands::

    repro topology                    # summarize the generated Internet
    repro failover -t reactive-anycast -s sea1
    repro compare                     # Figure-2-style technique sweep
    repro compare --workers 4         # same sweep, sharded over processes
    repro sweep -o sweep.json --workers 4   # full matrix + JSON archive
    repro control                     # Table-1 traffic control
    repro appendix withdrawal         # Figure 3 pipeline
    repro appendix propagation        # Figure 4 pipeline
    repro drill -t reactive-anycast   # §4 rotation drill
    repro playbook --drain ams        # anycast-agility drain plays
    repro scenario -e fail:sea1@60 -e recover:sea1@200
    repro configgen -t proactive-prepending -o configs/
    repro failover --trace out.jsonl   # record a structured trace
    repro trace summarize out.jsonl    # per-phase/per-router breakdown
    repro explain out.jsonl --site sea1     # causal chains: why did routing change?
    repro report out.jsonl --json ledger.json  # user-seconds lost, classified
    repro failover --profile prof.json      # hot-path wall-clock attribution
    repro profile prof.json                 # ... rendered as a report
    repro lint src/repro               # determinism linter (DET rules)
    repro verify                       # static control-plane verifier (VER rules)
    repro verify tests/fixtures/verify/bad_gao_cycle.json
    repro workload flash-crowd --sample 5   # inspect a traffic profile
    repro scenario --workload flash-crowd   # stream requests through a run

Every command accepts ``--seed`` and the experiment ones accept scale
knobs, so results are reproducible and tunable without code. ``-v``
turns on INFO-level diagnostics (``-vv`` for DEBUG) on stderr; the
experiment commands accept ``--trace``/``--metrics`` (see
``docs/observability.md``) and pass the run they are about to execute
through the pre-run gate -- pre-flight validation, then static
control-plane verification -- before any event fires (``--no-check``
overrides; see ``docs/static-analysis.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    appendix,
    compare,
    configgen_cmd,
    control,
    drill,
    failover,
    lint_cmd,
    obs_cmd,
    playbook_cmd,
    scenario,
    sweep_cmd,
    topology_cmd,
    trace_cmd,
    verify_cmd,
    workload_cmd,
)
from repro.telemetry import logs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Best of Both Worlds: High Availability "
            "CDN Routing Without Compromising Control' (IMC 2022)"
        ),
    )
    parser.add_argument("--seed", type=int, default=42, help="topology/experiment seed")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="diagnostics on stderr (-v = INFO, -vv = DEBUG)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for module in (
        topology_cmd,
        failover,
        compare,
        sweep_cmd,
        control,
        appendix,
        drill,
        playbook_cmd,
        scenario,
        configgen_cmd,
        trace_cmd,
        obs_cmd,
        lint_cmd,
        verify_cmd,
        workload_cmd,
    ):
        module.register(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logs.configure(args.verbose)
    try:
        return args.func(args)
    except SystemExit as refusal:
        # common.resolve_* / claim_output said why on stderr
        return refusal.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
