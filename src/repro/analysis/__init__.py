"""Pre-flight static analysis for the simulation stack.

Two layers share one :class:`~repro.analysis.findings.Finding` model:

* **Determinism linter** (:mod:`repro.analysis.linter`,
  :mod:`repro.analysis.rules`) -- an AST rule engine catching
  simulator-specific hazards before they run: unseeded RNGs, the hidden
  module-global RNG, ``hash()``-derived seeds, wall-clock reads outside
  telemetry, set-iteration order leaks, float ``==`` on simulated
  timestamps, mutable default arguments. Codes are ``DETnnn``;
  suppress per line with ``# repro: noqa[CODE]``.
* **Semantic pre-flight validator** (:mod:`repro.analysis.preflight`) --
  static checks on topologies, deployments, scenario timelines,
  announcement plans, and protocol parameters before any event fires.
  Codes are ``PREnnn``; it is stage 1 of the experiment CLI's pre-run
  gate, which refuses to run on ERROR findings unless ``--no-check`` is
  given.

``repro lint`` drives the linter from the command line; see
``docs/static-analysis.md`` for the full rule catalogue.
"""

from repro.analysis.findings import (
    Finding,
    FindingCollector,
    Severity,
    emit_findings,
)
from repro.analysis.linter import PARSE_ERROR_CODE, LintEngine, lint_paths
from repro.analysis.preflight import (
    check_capacity,
    check_deployment,
    check_events,
    check_prefix_plan,
    check_run_shape,
    check_targets,
    check_timing,
    check_topology,
    check_workload,
    preflight_run,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import RULES, LintContext, LintRule, all_rules, resolve_codes

__all__ = [
    "Finding",
    "FindingCollector",
    "Severity",
    "emit_findings",
    "PARSE_ERROR_CODE",
    "LintEngine",
    "lint_paths",
    "check_capacity",
    "check_deployment",
    "check_events",
    "check_prefix_plan",
    "check_run_shape",
    "check_targets",
    "check_timing",
    "check_topology",
    "check_workload",
    "preflight_run",
    "render_json",
    "render_text",
    "RULES",
    "LintContext",
    "LintRule",
    "all_rules",
    "resolve_codes",
]
