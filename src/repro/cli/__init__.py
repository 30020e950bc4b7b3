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

Every command accepts ``--seed``, so results are reproducible and
tunable without code; ``-v`` turns on INFO-level diagnostics (``-vv``
for DEBUG) on stderr.

Each subcommand is one row of :data:`COMMANDS`: a
:class:`~repro.cli.common.Command` naming its help line, the body that
prints its result, and its flags -- its own, interleaved with the shared
blocks of :mod:`repro.cli.common`: the testbed at ``--seed``,
``-t/--technique(s)`` with the ``--prepend`` rule, site flags checked
against the deployment, ``--faults`` / ``--workload`` / ``--capacity``
loading, the pre-run gate (pre-flight validation, then static
control-plane verification, before any event fires; ``--no-check``
overrides, see ``docs/static-analysis.md``), the ``--workers`` pool, the
finding-code catalogue of ``lint`` and ``verify``, and the ``--trace`` /
``--metrics`` / ``--profile`` session (``docs/observability.md``).
Adding a subcommand is one row: a ``Command`` beside its body, listed
here.
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


#: ``repro``'s subcommands, in ``--help`` order
COMMANDS = (
    topology_cmd.COMMAND,
    failover.COMMAND,
    compare.COMMAND,
    sweep_cmd.COMMAND,
    control.COMMAND,
    appendix.COMMAND,
    drill.COMMAND,
    playbook_cmd.COMMAND,
    scenario.COMMAND,
    configgen_cmd.COMMAND,
    trace_cmd.COMMAND,
    obs_cmd.EXPLAIN,
    obs_cmd.REPORT,
    obs_cmd.PROFILE,
    lint_cmd.COMMAND,
    verify_cmd.COMMAND,
    workload_cmd.COMMAND,
)


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
    for command in COMMANDS:
        command.add_to(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logs.configure(args.verbose)
    try:
        return args.func(args)
    except SystemExit as refusal:
        # the prologue, claim_output or read_trace said why on stderr;
        # --list-rules / --list-checks exit 0 after the catalogue
        return refusal.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
