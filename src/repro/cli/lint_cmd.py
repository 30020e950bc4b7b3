"""``repro lint`` -- the determinism linter as a CI gate.

Exit status: 0 when clean, 1 when any finding survives suppression,
2 on usage errors (unknown rule, missing path).
"""

from __future__ import annotations

import argparse

from repro.analysis import (
    RULES,
    LintEngine,
    emit_findings,
    render_json,
    render_text,
    resolve_codes,
)
from repro.cli.common import METRICS, Catalogue, Command, Flag, Prologue


def _rule_lines():
    for code, cls in RULES.items():
        yield f"{code}  {cls.name:18s} [{cls.severity.value:7s}] {cls.summary}"


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    engine = LintEngine(select=ctx.select, ignore=ctx.ignore)
    findings = engine.lint_paths(args.paths)
    emit_findings(findings, layer="lint")
    if args.format == "json":
        print(render_json(findings, files_checked=engine.files_checked))
    else:
        print(render_text(findings, files_checked=engine.files_checked))
    return 1 if findings else 0


COMMAND = Command(
    "lint", "run the simulation-determinism linter (DET rules)", run, flags=(
        Flag("paths", nargs="*", default=["src"],
             help="files or directories to lint (default: src)"),
        Catalogue("rule", _rule_lines, resolve_codes, inputs="paths"),
        METRICS,
    ),
)
